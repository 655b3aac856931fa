package hostdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
)

func TestHostCrashRecoversAndResolvesIndoubts(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	st.createFile("fs1", "/a", "alice", "x")

	s := st.db.Session()
	st.mustExec(s, `INSERT INTO media (id, title, clip) VALUES (1, 't', ?)`, value.Str(URL("fs1", "/a")))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Host crashes; its engine recovers from the log.
	if err := st.db.Crash(); err != nil {
		t.Fatal(err)
	}
	s2 := st.db.Session()
	defer s2.Close()
	rows, err := s2.Query(`SELECT title FROM media WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	s2.Commit()
	if len(rows) != 1 || rows[0][0].Text() != "t" {
		t.Fatalf("rows after host crash = %v", rows)
	}
	// Nothing indoubt: resolution is a no-op.
	n, err := st.db.ResolveIndoubts()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("resolved = %d, want 0", n)
	}
	// The datalink registry survived too: new links still work.
	st.createFile("fs1", "/b", "alice", "y")
	st.mustExec(s2, `INSERT INTO media (id, title, clip) VALUES (2, 't2', ?)`, value.Str(URL("fs1", "/b")))
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if !st.linkedOnDLFM("fs1", "/b") {
		t.Fatal("link after host crash failed")
	}
}

func TestSessionTxnIDAndDeadState(t *testing.T) {
	st := newStack(t, []string{"fs1"}, func(h *Config, d map[string]*core.Config) {
		h.DB.LockTimeout = 60 * time.Millisecond
	})
	st.mediaTable(false, false)
	s1 := st.db.Session()
	s2 := st.db.Session()
	defer s1.Close()
	defer s2.Close()

	if s1.TxnID() != 0 {
		t.Fatal("fresh session has a txn id")
	}
	st.mustExec(s1, `INSERT INTO media (id, title, clip) VALUES (1, 't', NULL)`)
	if s1.TxnID() == 0 {
		t.Fatal("no txn id after a statement")
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}

	// s1 holds a row lock; s2 times out and is force-rolled-back.
	if _, err := s1.Exec(`UPDATE media SET title = 'x' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	_, err := s2.Exec(`UPDATE media SET title = 'y' WHERE id = 1`)
	if !errors.Is(err, ErrTxnRolledBack) {
		t.Fatalf("err = %v, want ErrTxnRolledBack", err)
	}
	// Dead session refuses more work until Rollback acknowledges.
	if _, err := s2.Exec(`INSERT INTO media (id, title, clip) VALUES (9, 'z', NULL)`); !errors.Is(err, ErrTxnRolledBack) {
		t.Fatalf("statement on dead session: %v", err)
	}
	if _, err := s2.Query(`SELECT * FROM media`); !errors.Is(err, ErrTxnRolledBack) {
		t.Fatalf("query on dead session: %v", err)
	}
	if err := s2.Commit(); !errors.Is(err, ErrTxnRolledBack) {
		t.Fatalf("commit on dead session: %v", err)
	}
	if err := s2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	// s2 is usable again.
	st.mustExec(s2, `UPDATE media SET title = 'y' WHERE id = 1`)
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitRollbackWithoutTxn(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	s := st.db.Session()
	defer s.Close()
	if err := s.Commit(); !errors.Is(err, engine.ErrNoTxn) {
		t.Fatalf("Commit = %v", err)
	}
	if err := s.Rollback(); !errors.Is(err, engine.ErrNoTxn) {
		t.Fatalf("Rollback = %v", err)
	}
}

func TestExecParseAndShapeErrors(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	s := st.db.Session()
	defer s.Close()
	if _, err := s.Exec(`garbage sql`); err == nil {
		t.Error("garbage accepted")
	}
	// INSERT into a DATALINK table must name its columns.
	if _, err := s.Exec(`INSERT INTO media VALUES (1, 't', NULL)`); err == nil {
		t.Error("column-less DATALINK insert accepted")
	}
	// Malformed DATALINK URL is a statement error.
	if _, err := s.Exec(`INSERT INTO media (id, title, clip) VALUES (1, 't', 'not-a-url')`); !errors.Is(err, ErrStatement) {
		t.Errorf("bad url: %v", err)
	}
	// DATALINK value must be a literal or parameter.
	if _, err := s.Exec(`INSERT INTO media (id, title, clip) VALUES (1, 't', title)`); err == nil {
		t.Error("column-expression DATALINK accepted")
	}
	// Query requires SELECT.
	if _, err := s.Query(`DELETE FROM media`); err == nil {
		t.Error("Query accepted DELETE")
	}
	s.Rollback()
}

func TestUpdateAndDeleteWithoutDatalinkTouch(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	st.createFile("fs1", "/a", "alice", "x")
	s := st.db.Session()
	defer s.Close()
	st.mustExec(s, `INSERT INTO media (id, title, clip) VALUES (1, 't', ?)`, value.Str(URL("fs1", "/a")))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Updating a non-DATALINK column leaves the link alone.
	st.mustExec(s, `UPDATE media SET title = 'renamed' WHERE id = 1`)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if !st.linkedOnDLFM("fs1", "/a") {
		t.Fatal("plain update broke the link")
	}
	// Plain tables pass straight through.
	if err := st.db.CreateTable(`CREATE TABLE plain (x BIGINT)`); err != nil {
		t.Fatal(err)
	}
	st.mustExec(s, `INSERT INTO plain VALUES (1)`)
	st.mustExec(s, `UPDATE plain SET x = 2 WHERE x = 1`)
	st.mustExec(s, `DELETE FROM plain WHERE x = 2`)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateSetNullUnlinksOnly(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	st.createFile("fs1", "/a", "alice", "x")
	s := st.db.Session()
	defer s.Close()
	st.mustExec(s, `INSERT INTO media (id, title, clip) VALUES (1, 't', ?)`, value.Str(URL("fs1", "/a")))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	st.mustExec(s, `UPDATE media SET clip = NULL WHERE id = 1`)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.linkedOnDLFM("fs1", "/a") {
		t.Fatal("/a still linked after SET NULL")
	}
	rows, _ := s.Query(`SELECT clip FROM media WHERE id = 1`)
	s.Commit()
	if !rows[0][0].IsNull() {
		t.Fatalf("clip = %v", rows[0][0])
	}
}

func TestUpdateMatchingZeroRows(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	s := st.db.Session()
	defer s.Close()
	st.createFile("fs1", "/new", "alice", "x")
	n, err := s.Exec(`UPDATE media SET clip = ? WHERE id = 42`, value.Str(URL("fs1", "/new")))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("affected = %d", n)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// No phantom link was left behind.
	if st.linkedOnDLFM("fs1", "/new") {
		t.Fatal("zero-row update linked a file")
	}
}

func TestDeleteWithParamsInWhere(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	st.createFile("fs1", "/a", "alice", "x")
	s := st.db.Session()
	defer s.Close()
	st.mustExec(s, `INSERT INTO media (id, title, clip) VALUES (1, 't', ?)`, value.Str(URL("fs1", "/a")))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	n, err := s.Exec(`DELETE FROM media WHERE id = ? AND title = ?`, value.Int(1), value.Str("t"))
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.linkedOnDLFM("fs1", "/a") {
		t.Fatal("param-where delete left the link")
	}
}

func TestCreateTableValidation(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	if err := st.db.CreateTable(`DROP TABLE x`); err == nil {
		t.Error("non-CREATE DDL accepted")
	}
	if err := st.db.CreateTable(`garbage`); err == nil {
		t.Error("garbage DDL accepted")
	}
	if err := st.db.CreateTable(
		`CREATE TABLE t (a BIGINT)`, DatalinkCol{Name: "missing"},
	); err == nil {
		t.Error("DATALINK column not in DDL accepted")
	}
	if err := st.db.CreateTable(
		`CREATE TABLE t (a BIGINT)`, DatalinkCol{Name: "a"},
	); err == nil {
		t.Error("non-VARCHAR DATALINK column accepted")
	}
}

func TestMintTokenDisabled(t *testing.T) {
	st := newStack(t, []string{"fs1"}, func(h *Config, _ map[string]*core.Config) {
		h.TokenSecret = nil
	})
	if tok := st.db.MintToken("/a"); tok != "" {
		t.Fatalf("token minted with no secret: %q", tok)
	}
	// SELECT of full-control values returns raw URLs.
	st.mediaTable(true, true)
	st.createFile("fs1", "/a", "alice", "x")
	s := st.db.Session()
	defer s.Close()
	st.mustExec(s, `INSERT INTO media (id, title, clip) VALUES (1, 't', ?)`, value.Str(URL("fs1", "/a")))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _ := s.Query(`SELECT clip FROM media WHERE id = 1`)
	s.Commit()
	if rows[0][0].Text() != URL("fs1", "/a") {
		t.Fatalf("clip = %q, want raw URL", rows[0][0].Text())
	}
}

func TestRestoreUnknownBackup(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	if err := st.db.Restore(99); err == nil {
		t.Fatal("restore of unknown backup succeeded")
	}
}

func TestAggregateQueriesPassThrough(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(true, true)
	s := st.db.Session()
	defer s.Close()
	rows, err := s.Query(`SELECT COUNT(*) FROM media`)
	if err != nil || rows[0][0].Int64() != 0 {
		t.Fatalf("count = %v, %v", rows, err)
	}
	s.Commit()
}

// TestStatementCorpus drives the datalink engine's tree rewriting over one
// table: after every statement the host rows, their hidden recovery ids
// and the DLFM's link state must agree.
func TestStatementCorpus(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	st.mediaTable(false, false)
	files := []string{"/a", "/b", "/c", "/d", "/o'brien"}
	for _, f := range files {
		st.createFile("fs1", f, "alice", "x")
	}
	u := func(path string) string { return URL("fs1", path) }
	str, num := value.Str, value.Int

	steps := []struct {
		name   string
		sql    string
		params []value.Value
		n      int64
		fails  bool
		want   map[int64]string // id → clip after the step; "" = NULL
	}{
		{"insert, literals and params mixed",
			`INSERT INTO media (id, title, clip) VALUES (1, ?, ?)`, []value.Value{str("t1"), str(u("/a"))},
			1, false, map[int64]string{1: u("/a")}},
		{"insert, quoted literal URL",
			`INSERT INTO media (id, title, clip) VALUES (?, 'o''brien', 'dlfs://fs1/o''brien')`, []value.Value{num(2)},
			1, false, map[int64]string{1: u("/a"), 2: u("/o'brien")}},
		{"insert, NULL datalink",
			`INSERT INTO media (id, title, clip) VALUES (3, 't3', NULL)`, nil,
			1, false, map[int64]string{1: u("/a"), 2: u("/o'brien"), 3: ""}},
		{"insert, title equal to the URL",
			`INSERT INTO media (id, title, clip) VALUES (4, ?, ?)`, []value.Value{str(u("/c")), str(u("/c"))},
			1, false, map[int64]string{1: u("/a"), 2: u("/o'brien"), 3: "", 4: u("/c")}},
		{"insert, integer in the datalink column",
			`INSERT INTO media (id, title, clip) VALUES (7, 't', 5)`, nil,
			0, true, map[int64]string{1: u("/a"), 2: u("/o'brien"), 3: "", 4: u("/c")}},
		{"insert, fewer values than columns",
			`INSERT INTO media (id, title, clip) VALUES (8)`, nil,
			0, true, map[int64]string{1: u("/a"), 2: u("/o'brien"), 3: "", 4: u("/c")}},
		{"update, params in SET and WHERE",
			`UPDATE media SET title = ?, clip = ? WHERE id = ? AND title = ?`, []value.Value{str("t1b"), str(u("/b")), num(1), str("t1")},
			1, false, map[int64]string{1: u("/b"), 2: u("/o'brien"), 3: "", 4: u("/c")}},
		{"update, links a NULL row",
			`UPDATE media SET clip = ? WHERE id = ?`, []value.Value{str(u("/a")), num(3)},
			1, false, map[int64]string{1: u("/b"), 2: u("/o'brien"), 3: u("/a"), 4: u("/c")}},
		{"update, zero rows",
			`UPDATE media SET clip = ? WHERE id = ?`, []value.Value{str(u("/d")), num(99)},
			0, false, map[int64]string{1: u("/b"), 2: u("/o'brien"), 3: u("/a"), 4: u("/c")}},
		{"update, column-reference predicate",
			`UPDATE media SET clip = NULL WHERE title = clip`, nil,
			1, false, map[int64]string{1: u("/b"), 2: u("/o'brien"), 3: u("/a"), 4: ""}},
		{"update, several rows",
			`UPDATE media SET clip = NULL WHERE id >= ? AND id <= 2`, []value.Value{num(1)},
			2, false, map[int64]string{1: "", 2: "", 3: u("/a"), 4: ""}},
		{"update, relinks after the unlinks",
			`UPDATE media SET clip = ? WHERE id = 4`, []value.Value{str(u("/c"))},
			1, false, map[int64]string{1: "", 2: "", 3: u("/a"), 4: u("/c")}},
		{"delete, zero rows",
			`DELETE FROM media WHERE id = ?`, []value.Value{num(99)},
			0, false, map[int64]string{1: "", 2: "", 3: u("/a"), 4: u("/c")}},
		{"delete, column-reference predicate",
			`DELETE FROM media WHERE clip = title`, nil,
			1, false, map[int64]string{1: "", 2: "", 3: u("/a")}},
		{"delete, several rows",
			`DELETE FROM media WHERE id > ?`, []value.Value{num(0)},
			3, false, map[int64]string{}},
	}

	s := st.db.Session()
	defer s.Close()
	check := st.db.Engine().Connect()
	for _, step := range steps {
		n, err := s.Exec(step.sql, step.params...)
		if (err != nil) != step.fails || n != step.n {
			t.Fatalf("%s: n=%d err=%v, want n=%d fails=%v", step.name, n, err, step.n, step.fails)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", step.name, err)
		}
		rows, err := check.Query(`SELECT id, clip, clip__recid FROM media`)
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]string, len(rows))
		linked := make(map[string]bool)
		for _, r := range rows {
			url := ""
			if !r[1].IsNull() {
				url = r[1].Text()
			}
			isLinked := url != ""
			if isLinked == r[2].IsNull() {
				t.Errorf("%s: row %v: recid %v beside clip %v", step.name, r[0], r[2], r[1])
			}
			got[r[0].Int64()] = url
			linked[url] = isLinked
		}
		if len(got) != len(step.want) {
			t.Fatalf("%s: rows = %v, want %v", step.name, got, step.want)
		}
		for id, url := range step.want {
			if g, ok := got[id]; !ok || g != url {
				t.Fatalf("%s: rows = %v, want %v", step.name, got, step.want)
			}
		}
		for _, f := range files {
			if st.linkedOnDLFM("fs1", f) != linked[u(f)] {
				t.Errorf("%s: %s linked on DLFM = %v, host says %v", step.name, f, !linked[u(f)], linked[u(f)])
			}
		}
	}
}

// CreateTable appends the hidden columns to the parsed tree, so the shape
// of the DDL text's tail does not matter.
func TestCreateTableDDLTail(t *testing.T) {
	st := newStack(t, []string{"fs1"})
	for i, ddl := range []string{
		`CREATE TABLE t0 (id BIGINT, doc VARCHAR(200))`,
		"CREATE TABLE t1 (id BIGINT, doc VARCHAR(200))  \n",
		"CREATE TABLE t2 (id BIGINT, doc VARCHAR(200)\n)\t",
		`CREATE TABLE t3 (doc VARCHAR(200) NOT NULL, id BIGINT)`,
	} {
		if err := st.db.CreateTable(ddl, DatalinkCol{Name: "doc"}); err != nil {
			t.Fatalf("CreateTable(%q): %v", ddl, err)
		}
		meta, err := st.db.Engine().Catalog().Table(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := meta.Schema.ColIndex("doc__recid"); !ok || len(meta.Schema.Cols) != 3 {
			t.Fatalf("CreateTable(%q): columns %v", ddl, meta.Schema.Cols)
		}
	}
}
