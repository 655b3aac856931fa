package hostdb

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/rpc"
	"repro/internal/value"
)

// Multi-DLFM placement: a logical server name (as it appears in dlfs://
// URLs) can be backed by a cluster of DLFM members behind one placement
// map. The datalink engine routes every link/unlink through the map, so
// applications keep one namespace while the files spread over members —
// and membership changes migrate slots online (internal/cluster).

// placementStore persists cluster placement tables in dl_placement, giving
// placement the same durability as the dl_cols registry it lives beside.
type placementStore struct{ db *DB }

func (ps placementStore) SaveTable(name string, t cluster.Table) error {
	c := ps.db.eng.Connect()
	if _, err := c.Exec(`DELETE FROM dl_placement WHERE cluster = ?`, value.Str(name)); err != nil {
		c.Rollback()
		return err
	}
	for slot, owner := range t.Owners {
		if _, err := c.Exec(`INSERT INTO dl_placement (cluster, version, slots, slot, owner) VALUES (?, ?, ?, ?, ?)`,
			value.Str(name), value.Int(t.Version), value.Int(int64(t.Slots)),
			value.Int(int64(slot)), value.Str(owner)); err != nil {
			c.Rollback()
			return err
		}
	}
	return c.Commit()
}

func (ps placementStore) LoadTable(name string) (cluster.Table, bool, error) {
	c := ps.db.eng.Connect()
	rows, err := c.Query(`SELECT version, slots, slot, owner FROM dl_placement WHERE cluster = ?`, value.Str(name))
	if err != nil {
		return cluster.Table{}, false, err
	}
	if c.InTxn() {
		if err := c.Commit(); err != nil {
			return cluster.Table{}, false, err
		}
	}
	if len(rows) == 0 {
		return cluster.Table{}, false, nil
	}
	t := cluster.Table{
		Version: rows[0][0].Int64(),
		Slots:   int(rows[0][1].Int64()),
		Owners:  make([]string, int(rows[0][1].Int64())),
	}
	for _, r := range rows {
		slot := int(r[2].Int64())
		if slot < 0 || slot >= len(t.Owners) {
			return cluster.Table{}, false, fmt.Errorf("hostdb: placement row for %s has slot %d outside [0,%d)", name, slot, len(t.Owners))
		}
		t.Owners[slot] = r[3].Text()
	}
	return t, true, nil
}

// NewCluster declares (or recovers, when dl_placement holds a table under
// this name) a logical cluster. The name becomes routable: dlfs://<name>/…
// URLs resolve through the placement map instead of the dialer registry.
func (db *DB) NewCluster(name string, slots int) (*cluster.Map, error) {
	db.mu.Lock()
	if m := db.clusters[name]; m != nil {
		db.mu.Unlock()
		return m, nil
	}
	db.mu.Unlock()
	m, err := cluster.New(name, cluster.Config{
		Slots:  slots,
		Store:  placementStore{db: db},
		Obs:    db.obs,
		Tracer: db.tracer,
	})
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if exist := db.clusters[name]; exist != nil {
		return exist, nil
	}
	db.clusters[name] = m
	return m, nil
}

// SetMemberDegraded flags (or clears) a member of every registered cluster
// that knows it as degraded — the hook the fleet health monitor drives so
// the router deprioritizes a flagged member (read ordering, drain targets)
// without any placement change. Returns how many cluster maps were updated.
func (db *DB) SetMemberDegraded(member string, degraded bool) int {
	db.mu.Lock()
	maps := make([]*cluster.Map, 0, len(db.clusters))
	for _, m := range db.clusters {
		maps = append(maps, m)
	}
	db.mu.Unlock()
	n := 0
	for _, m := range maps {
		if m.HasMember(member) {
			m.SetDegraded(member, degraded)
			n++
		}
	}
	return n
}

// Cluster returns the placement map registered under name, nil if none.
func (db *DB) Cluster(name string) *cluster.Map {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.clusters[name]
}

// DescribeClusters renders every placement map — the /debug/cluster body.
func (db *DB) DescribeClusters() any {
	db.mu.Lock()
	names := make([]string, 0, len(db.clusters))
	for name := range db.clusters {
		names = append(names, name)
	}
	maps := make([]*cluster.Map, 0, len(names))
	for _, name := range names {
		maps = append(maps, db.clusters[name])
	}
	db.mu.Unlock()
	out := make(map[string]any, len(names))
	for i, name := range names {
		out[name] = maps[i].Describe()
	}
	return out
}

// route resolves the server component of a DATALINK URL for a write: a
// clustered name routes (and fences) through its placement map, anything
// else is already physical. The release callback must be invoked once the
// DLFM call for this path returns.
func (db *DB) route(server, path string) (string, func(), error) {
	db.mu.Lock()
	m := db.clusters[server]
	db.mu.Unlock()
	if m == nil {
		return server, func() {}, nil
	}
	return m.WriteOwner(path)
}

// ReadOwners resolves the server component for a read: every member that
// may currently hold the path's link state (two during a slot move —
// dual read). A non-clustered name resolves to itself.
func (db *DB) ReadOwners(server, path string) []string {
	db.mu.Lock()
	m := db.clusters[server]
	db.mu.Unlock()
	if m == nil {
		return []string{server}
	}
	return m.ReadOwners(path)
}

// mover builds a slot mover wired to this host's coordinator machinery.
func (db *DB) mover(m *cluster.Map) *cluster.Mover {
	return cluster.NewMover(m, cluster.Hooks{
		Dial: func(server string) (*rpc.Client, error) {
			dial, err := db.dialer(server)
			if err != nil {
				return nil, err
			}
			c, err := dial()
			if err != nil {
				return nil, err
			}
			c.SetTracer(db.tracer)
			return c, nil
		},
		BeginTxn: func() int64 {
			txn := db.NextTxn()
			db.markActive(txn)
			return txn
		},
		EndTxn:          db.unmarkActive,
		ResolveIndoubts: func() { db.ResolveIndoubts() }, //nolint:errcheck
		NoteGroup:       db.noteGroup,
		Tracer:          db.tracer,
	})
}

// noteGroup records (grp, server) in dl_grpsrv after a move lands a
// group's files on a new member, so DROP TABLE's delete-group fan-out
// reaches it. Tolerates the row already existing (a session's ensureGroup
// may have raced us there).
func (db *DB) noteGroup(grp int64, server string) error {
	c := db.eng.Connect()
	noted, err := groupNoted(c, grp, server)
	if err != nil {
		c.Rollback()
		return err
	}
	if noted {
		return c.Commit()
	}
	if _, err := c.ExecStmt(insGrpsrv, value.Int(grp), value.Str(server)); err != nil {
		c.Rollback()
		if errors.Is(err, engine.ErrDuplicate) {
			return nil
		}
		return err
	}
	return c.Commit()
}

// AddDLFM joins a member to a logical cluster: the member's dialer is
// registered (it stays individually addressable for diagnostics), the
// placement map learns it, and the rendezvous share of slots migrates over
// online. The cluster is created with DefaultSlots on first use; declare a
// custom ring with NewCluster beforehand. Returns files migrated.
func (db *DB) AddDLFM(clusterName, member string, dial Dialer) (int, error) {
	db.RegisterDLFM(member, dial)
	m, err := db.NewCluster(clusterName, 0)
	if err != nil {
		return 0, err
	}
	moves, err := m.Join(member)
	if err != nil {
		return 0, err
	}
	if len(moves) == 0 {
		return 0, nil
	}
	return db.mover(m).Run(moves)
}

// DrainDLFM migrates every slot off a member online, then deregisters it
// from the cluster (its dialer stays, so the drained DLFM remains
// reachable for verification). Returns files migrated. On error the member
// keeps its remaining slots; re-run to continue the drain.
func (db *DB) DrainDLFM(clusterName, member string) (int, error) {
	m := db.Cluster(clusterName)
	if m == nil {
		return 0, fmt.Errorf("hostdb: no cluster %q", clusterName)
	}
	plan, err := m.DrainPlan(member)
	if err != nil {
		return 0, err
	}
	files, err := db.mover(m).Run(plan)
	if err != nil {
		return files, err
	}
	return files, m.RemoveMember(member)
}

// Rebalance pins one slot onto an explicit member — relief for a hot
// group. Returns files migrated.
func (db *DB) Rebalance(clusterName string, slot int, to string) (int, error) {
	m := db.Cluster(clusterName)
	if m == nil {
		return 0, fmt.Errorf("hostdb: no cluster %q", clusterName)
	}
	mv, err := m.PlanMove(slot, to)
	if err != nil {
		return 0, err
	}
	return db.mover(m).MoveSlot(mv)
}

// RebalanceCluster drives the table back to the pure rendezvous assignment
// for the current member set — the retry after a partially failed join,
// and the cleanup for stale pins.
func (db *DB) RebalanceCluster(clusterName string) (int, error) {
	m := db.Cluster(clusterName)
	if m == nil {
		return 0, fmt.Errorf("hostdb: no cluster %q", clusterName)
	}
	return db.mover(m).Run(m.PlanRebalance())
}
