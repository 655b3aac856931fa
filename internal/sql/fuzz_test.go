package sql

import (
	"reflect"
	"testing"
)

// goodStatements are the texts the parser tests accept, plus the host
// database's own dl_* statements (internal/hostdb parses those once at
// init and shares the trees, so they must parse the same way every time).
var goodStatements = []string{
	"CREATE TABLE dlfm_file (\n\tname VARCHAR(256) NOT NULL,\n\trecid BIGINT,\n\tgrpid INTEGER,\n\tlinked BOOLEAN\n)",
	"CREATE UNIQUE INDEX fx1 ON dlfm_file (name, chkflag)",
	"CREATE INDEX ix ON t (a)",
	"DROP TABLE old_stuff",
	"INSERT INTO f (name, recid, ok) VALUES (?, 42, TRUE)",
	"INSERT INTO f VALUES ('a', NULL)",
	"SELECT * FROM f WHERE name = ? AND chkflag = 0",
	"SELECT name, recid FROM f WHERE recid >= 100 ORDER BY recid DESC LIMIT 10 FOR UPDATE",
	"SELECT a FROM t ORDER BY a ASC",
	"SELECT a FROM t LIMIT ?",
	"SELECT COUNT(*) FROM f WHERE grpid = ?",
	"SELECT MIN(recid) FROM f",
	"SELECT MAX(backupid) FROM b",
	"UPDATE f SET state = 'U', utxn = ?, chkflag = recid WHERE name = ? AND state = 'L'",
	"DELETE FROM f WHERE del_txn = ?",
	"DELETE FROM f",
	"UPDATE f SET a = ?, b = ? WHERE c = ? AND d = ?",
	"INSERT INTO f VALUES ('o''brien')",
	"SELECT * FROM f WHERE x = -5",
	"select * from MyTable where NAME = 'x'",
	"SELECT * FROM f WHERE name = 'a' AND recid > ?",

	"SELECT col, grp, recovery, fullctl FROM dl_cols WHERE tbl = ?",
	"SELECT COUNT(*) FROM dl_grpsrv WHERE grp = ? AND server = ?",
	"INSERT INTO dl_grpsrv (grp, server) VALUES (?, ?)",
	"INSERT INTO dl_outcome (txnid, outcome) VALUES (?, 'C')",
	"SELECT outcome FROM dl_outcome WHERE txnid = ?",
	"INSERT INTO dl_cols (tbl, col, grp, recovery, fullctl) VALUES (?, ?, ?, ?, ?)",
	"CREATE TABLE dl_cols (tbl VARCHAR NOT NULL, col VARCHAR NOT NULL, grp BIGINT NOT NULL, recovery BIGINT NOT NULL, fullctl BIGINT NOT NULL)",
	"DELETE FROM dl_placement WHERE cluster = ?",
}

// FuzzParse: Parse never panics, and parsing is a pure function of the
// text — two parses of one text give deeply equal trees.
func FuzzParse(f *testing.F) {
	for _, src := range goodStatements {
		f.Add(src)
	}
	for _, src := range badStatements {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, errA := Parse(src)
		b, errB := Parse(src)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Parse(%q) errors differ: %v vs %v", src, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Parse(%q) trees differ:\n%#v\n%#v", src, a, b)
		}
	})
}
