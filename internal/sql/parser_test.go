package sql

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE dlfm_file (
		name VARCHAR(256) NOT NULL,
		recid BIGINT,
		grpid INTEGER,
		linked BOOLEAN
	)`)
	ct, ok := stmt.(CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Name != "dlfm_file" || len(ct.Cols) != 4 {
		t.Fatalf("parsed %+v", ct)
	}
	want := []ColDef{
		{Name: "name", Type: value.KindString, NotNull: true},
		{Name: "recid", Type: value.KindInt},
		{Name: "grpid", Type: value.KindInt},
		{Name: "linked", Type: value.KindBool},
	}
	for i, c := range want {
		if ct.Cols[i] != c {
			t.Errorf("col %d = %+v, want %+v", i, ct.Cols[i], c)
		}
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt := mustParse(t, "CREATE UNIQUE INDEX fx1 ON dlfm_file (name, chkflag)")
	ci := stmt.(CreateIndex)
	if !ci.Unique || ci.Name != "fx1" || ci.Table != "dlfm_file" ||
		len(ci.Cols) != 2 || ci.Cols[0] != "name" || ci.Cols[1] != "chkflag" {
		t.Fatalf("parsed %+v", ci)
	}
	ci2 := mustParse(t, "CREATE INDEX ix ON t (a)").(CreateIndex)
	if ci2.Unique {
		t.Error("non-unique index parsed as unique")
	}
}

func TestParseDropTable(t *testing.T) {
	dt := mustParse(t, "DROP TABLE old_stuff").(DropTable)
	if dt.Name != "old_stuff" {
		t.Fatalf("parsed %+v", dt)
	}
}

func TestParseInsert(t *testing.T) {
	ins := mustParse(t, "INSERT INTO f (name, recid, ok) VALUES (?, 42, TRUE)").(Insert)
	if ins.Table != "f" || len(ins.Cols) != 3 || len(ins.Vals) != 3 {
		t.Fatalf("parsed %+v", ins)
	}
	if p, ok := ins.Vals[0].(Param); !ok || p.Idx != 0 {
		t.Errorf("val 0 = %#v, want Param{0}", ins.Vals[0])
	}
	if l, ok := ins.Vals[1].(Literal); !ok || l.V.Int64() != 42 {
		t.Errorf("val 1 = %#v", ins.Vals[1])
	}
	if l, ok := ins.Vals[2].(Literal); !ok || !l.V.IsTrue() {
		t.Errorf("val 2 = %#v", ins.Vals[2])
	}
	// Without a column list.
	ins2 := mustParse(t, "INSERT INTO f VALUES ('a', NULL)").(Insert)
	if ins2.Cols != nil || len(ins2.Vals) != 2 {
		t.Fatalf("parsed %+v", ins2)
	}
	if l := ins2.Vals[1].(Literal); !l.V.IsNull() {
		t.Error("NULL literal lost")
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM f WHERE name = ? AND chkflag = 0").(Select)
	if !sel.Star || sel.Table != "f" || len(sel.Where) != 2 {
		t.Fatalf("parsed %+v", sel)
	}
	if sel.Where[0].Col != "name" || sel.Where[0].Op != OpEq {
		t.Errorf("pred 0 = %+v", sel.Where[0])
	}
	if sel.Where[1].Val.(Literal).V.Int64() != 0 {
		t.Errorf("pred 1 = %+v", sel.Where[1])
	}
	if sel.Limit != -1 || sel.ForUpdate {
		t.Errorf("defaults wrong: %+v", sel)
	}
}

func TestParseSelectProjectionOrderLimit(t *testing.T) {
	sel := mustParse(t, "SELECT name, recid FROM f WHERE recid >= 100 ORDER BY recid DESC LIMIT 10 FOR UPDATE").(Select)
	if len(sel.Cols) != 2 || sel.Cols[1] != "recid" {
		t.Fatalf("cols = %v", sel.Cols)
	}
	if sel.OrderBy != "recid" || !sel.Desc || sel.Limit != 10 || !sel.ForUpdate {
		t.Fatalf("parsed %+v", sel)
	}
	if sel.Where[0].Op != OpGe {
		t.Errorf("op = %v", sel.Where[0].Op)
	}
	asc := mustParse(t, "SELECT a FROM t ORDER BY a ASC").(Select)
	if asc.Desc {
		t.Error("ASC parsed as DESC")
	}
}

func TestParseAggregates(t *testing.T) {
	c := mustParse(t, "SELECT COUNT(*) FROM f WHERE grpid = ?").(Select)
	if c.Agg != AggCount {
		t.Fatalf("parsed %+v", c)
	}
	mn := mustParse(t, "SELECT MIN(recid) FROM f").(Select)
	if mn.Agg != AggMin || mn.AggCol != "recid" {
		t.Fatalf("parsed %+v", mn)
	}
	mx := mustParse(t, "SELECT MAX(backupid) FROM b").(Select)
	if mx.Agg != AggMax || mx.AggCol != "backupid" {
		t.Fatalf("parsed %+v", mx)
	}
}

func TestParseUpdate(t *testing.T) {
	up := mustParse(t, "UPDATE f SET state = 'U', utxn = ?, chkflag = recid WHERE name = ? AND state = 'L'").(Update)
	if up.Table != "f" || len(up.Sets) != 3 || len(up.Where) != 2 {
		t.Fatalf("parsed %+v", up)
	}
	if up.Sets[0].Col != "state" || up.Sets[0].Val.(Literal).V.Text() != "U" {
		t.Errorf("set 0 = %+v", up.Sets[0])
	}
	if _, ok := up.Sets[2].Val.(Column); !ok {
		t.Errorf("set 2 should reference column recid: %#v", up.Sets[2].Val)
	}
}

func TestParseDelete(t *testing.T) {
	del := mustParse(t, "DELETE FROM f WHERE del_txn = ?").(Delete)
	if del.Table != "f" || len(del.Where) != 1 {
		t.Fatalf("parsed %+v", del)
	}
	all := mustParse(t, "DELETE FROM f").(Delete)
	if all.Where != nil {
		t.Fatalf("parsed %+v", all)
	}
}

func TestParamNumbering(t *testing.T) {
	up := mustParse(t, "UPDATE f SET a = ?, b = ? WHERE c = ? AND d = ?").(Update)
	idx := []int{
		up.Sets[0].Val.(Param).Idx,
		up.Sets[1].Val.(Param).Idx,
		up.Where[0].Val.(Param).Idx,
		up.Where[1].Val.(Param).Idx,
	}
	for i, got := range idx {
		if got != i {
			t.Errorf("param %d numbered %d", i, got)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	ins := mustParse(t, "INSERT INTO f VALUES ('o''brien')").(Insert)
	if ins.Vals[0].(Literal).V.Text() != "o'brien" {
		t.Errorf("escaped quote lost: %v", ins.Vals[0])
	}
}

func TestNegativeNumbers(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM f WHERE x = -5").(Select)
	if sel.Where[0].Val.(Literal).V.Int64() != -5 {
		t.Error("negative literal misparsed")
	}
}

func TestCaseInsensitiveKeywordsLowercaseIdents(t *testing.T) {
	sel := mustParse(t, "select * from MyTable where NAME = 'x'").(Select)
	if sel.Table != "mytable" || sel.Where[0].Col != "name" {
		t.Fatalf("parsed %+v", sel)
	}
}

func TestCompareOpEval(t *testing.T) {
	cases := []struct {
		op   CmpOp
		cmps map[int]bool
	}{
		{OpEq, map[int]bool{-1: false, 0: true, 1: false}},
		{OpNe, map[int]bool{-1: true, 0: false, 1: true}},
		{OpLt, map[int]bool{-1: true, 0: false, 1: false}},
		{OpLe, map[int]bool{-1: true, 0: true, 1: false}},
		{OpGt, map[int]bool{-1: false, 0: false, 1: true}},
		{OpGe, map[int]bool{-1: false, 0: true, 1: true}},
	}
	for _, c := range cases {
		for cmp, want := range c.cmps {
			if got := c.op.Eval(cmp); got != want {
				t.Errorf("%s.Eval(%d) = %v, want %v", c.op, cmp, got, want)
			}
		}
	}
}

// badStatements must all fail to parse; FuzzParse also starts from them.
var badStatements = []string{
	"",
	"BOGUS",
	"SELECT",
	"SELECT * FROM",
	"SELECT * FROM t WHERE",
	"SELECT * FROM t WHERE a",
	"SELECT * FROM t WHERE a !! 3",
	"SELECT * FROM t LIMIT x",
	"SELECT * FROM t extra junk",
	"CREATE TABLE t",
	"CREATE TABLE t (a)",
	"CREATE TABLE t (a FLOAT)",
	"CREATE VIEW v",
	"CREATE INDEX i ON t",
	"INSERT INTO t",
	"INSERT t VALUES (1)",
	"INSERT INTO t VALUES 1",
	"UPDATE t",
	"UPDATE t SET",
	"UPDATE t SET a",
	"DELETE t",
	"DROP t",
	"SELECT * FROM t WHERE a = 'unterminated",
	"SELECT * FROM t WHERE a = -",
	"SELECT * FROM t WHERE a = @",
	"SELECT COUNT(x) FROM t",
	"SELECT * FROM t FOR SHARE",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badStatements {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorMentionsPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM t WHERE a = @")
	if err == nil || !strings.Contains(err.Error(), "position") {
		t.Errorf("error should carry position info: %v", err)
	}
}

func TestFormatPreds(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM f WHERE name = 'a' AND recid > ?").(Select)
	got := FormatPreds(sel.Where)
	if got != "name = 'a' AND recid > ?1" {
		t.Errorf("FormatPreds = %q", got)
	}
}
