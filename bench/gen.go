package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/workload"
)

// The four statement texts every workload is made of; the program under
// test sees these and their parameters, nothing else.
const (
	table     = "docs"
	sqlInsert = `INSERT INTO docs (id, owner, doc) VALUES (?, ?, ?)`
	sqlUpdate = `UPDATE docs SET doc = ? WHERE id = ?`
	sqlDelete = `DELETE FROM docs WHERE id = ?`
	sqlSelect = `SELECT doc FROM docs WHERE id = ?`
)

type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opDelete
	opRead
)

func (k opKind) String() string { return [...]string{"insert", "update", "delete", "read"}[k] }

// txn is one generated transaction: n rows (1, or 2 for cluster_paxos) of
// one kind. path is the file a row links (insert, update) or is expected to
// name (read; "" when the row is gone).
type txn struct {
	kind opKind
	n    int
	id   [2]int64
	path [2]string
}

// generator produces one client's transaction stream from a seed and
// mirrors the table state that stream leaves behind, so reads and the final
// table can be checked exactly. Clients own disjoint, interleaved ids
// (id mod clients == client): with two clients over thousands of uniformly
// drawn rows a true same-row collision would occur about once in ten
// thousand transactions — too rare to measure, but enough to make the
// expected value of a read ambiguous. Interleaving keeps the clients on the
// same index pages and neighbouring keys, which is where they do contend.
type generator struct {
	client, clients int
	rng             *rand.Rand
	mix             workload.Mix // percent; the remainder is reads
	rows            int          // rows per insert transaction
	// owner, when set, names the cluster member that owns a path; a
	// multi-row insert then draws paths until each row has another owner.
	owner func(path string) string

	nextRow  int64
	nextFile int64
	live     []int64          // ids present, for uniform picks
	at       map[int64]int    // id -> index in live
	cur      map[int64]string // id -> path currently linked
	// tainted holds ids a failed transaction touched: their state is no
	// longer known, so the final table check skips them.
	tainted map[int64]bool
}

func newGenerator(seed int64, client, clients int, m workload.Mix, rows int, owner func(string) string) *generator {
	return &generator{
		client: client, clients: clients,
		rng: rand.New(rand.NewSource(seed*7919 + int64(client))),
		mix: m, rows: rows, owner: owner,
		at: make(map[int64]int), cur: make(map[int64]string), tainted: make(map[int64]bool),
	}
}

// newPath names a fresh file in a directory drawn from the seed, so that
// even an insert-only stream (and the order of DLFM's name index) differs
// from seed to seed.
func (g *generator) newPath() string {
	g.nextFile++
	return fmt.Sprintf("/w/c%d/d%03x/f%08d", g.client, g.rng.Intn(1<<12), g.nextFile)
}

// insert generates an insert of g.rows new rows and applies it to the
// mirror. Preload uses it directly.
func (g *generator) insert() txn {
	t := txn{kind: opInsert, n: g.rows}
	for i := 0; i < t.n; i++ {
		g.nextRow++
		id := g.nextRow*int64(g.clients) + int64(g.client)
		path := g.newPath()
		for g.owner != nil && i > 0 && g.owner(path) == g.owner(t.path[0]) {
			path = g.newPath()
		}
		t.id[i], t.path[i] = id, path
		g.at[id] = len(g.live)
		g.live = append(g.live, id)
		g.cur[id] = path
	}
	return t
}

func (g *generator) pick() int64 { return g.live[g.rng.Intn(len(g.live))] }

// next generates the next transaction of the mix.
func (g *generator) next() txn {
	roll := g.rng.Intn(100)
	switch {
	case roll < g.mix.InsertPct || len(g.live) == 0:
		return g.insert()
	case roll < g.mix.InsertPct+g.mix.UpdatePct:
		id := g.pick()
		path := g.newPath()
		g.cur[id] = path
		return txn{kind: opUpdate, n: 1, id: [2]int64{id}, path: [2]string{path}}
	case roll < g.mix.InsertPct+g.mix.UpdatePct+g.mix.DeletePct:
		id := g.pick()
		g.forget(id)
		return txn{kind: opDelete, n: 1, id: [2]int64{id}}
	default:
		id := g.pick()
		return txn{kind: opRead, n: 1, id: [2]int64{id}, path: [2]string{g.cur[id]}}
	}
}

// taint drops id from the mirror after a transaction on it failed.
func (g *generator) taint(id int64) {
	g.forget(id)
	g.tainted[id] = true
}

// forget drops id from the mirror.
func (g *generator) forget(id int64) {
	i, ok := g.at[id]
	if !ok {
		return
	}
	last := len(g.live) - 1
	g.live[i] = g.live[last]
	g.at[g.live[i]] = i
	g.live = g.live[:last]
	delete(g.at, id)
	delete(g.cur, id)
}

// streamHash digests the first n transactions of a fresh generator — the
// statement stream's identity, for the determinism test and the report.
func streamHash(g *generator, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		t := g.next()
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%s;", t.kind, t.n, t.id[0], t.id[1], t.path[0], t.path[1])
	}
	return h.Sum64()
}
