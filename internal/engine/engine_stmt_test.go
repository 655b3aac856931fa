package engine

import (
	"testing"

	"repro/internal/sql"
	"repro/internal/value"
)

// ExecStmt/QueryStmt take trees no parser vetted: a malformed one must come
// back as an error, never a panic, and leave the connection usable.
func TestExecStmtRejectsMalformedTrees(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f VALUES ('a', 1, 'L', 0)`)
	mustCommit(t, c)

	lit := func(v value.Value) sql.Expr { return sql.Literal{V: v} }
	noLimit := sql.Select{Table: "f", Star: true, Limit: -1, LimitParam: -1}
	withWhere := func(p sql.Pred) sql.Select { s := noLimit; s.Where = []sql.Pred{p}; return s }
	execs := map[string]sql.Statement{
		"nil statement":        nil,
		"more columns":         sql.Insert{Table: "f", Cols: []string{"name", "recid"}, Vals: []sql.Expr{lit(value.Str("b"))}},
		"more values":          sql.Insert{Table: "f", Cols: []string{"name"}, Vals: []sql.Expr{lit(value.Str("b")), lit(value.Int(2))}},
		"no values":            sql.Insert{Table: "f"},
		"nil value":            sql.Insert{Table: "f", Cols: []string{"name"}, Vals: []sql.Expr{nil}},
		"unknown insert col":   sql.Insert{Table: "f", Cols: []string{"nope"}, Vals: []sql.Expr{lit(value.Int(1))}},
		"param past params":    sql.Insert{Table: "f", Cols: []string{"name"}, Vals: []sql.Expr{sql.Param{Idx: 3}}},
		"negative param":       sql.Insert{Table: "f", Cols: []string{"name"}, Vals: []sql.Expr{sql.Param{Idx: -1}}},
		"unknown pred col":     sql.Delete{Table: "f", Where: []sql.Pred{{Col: "nope", Op: sql.OpEq, Val: lit(value.Int(1))}}},
		"unknown set col":      sql.Update{Table: "f", Sets: []sql.Assign{{Col: "nope", Val: lit(value.Int(1))}}},
		"nil set value":        sql.Update{Table: "f", Sets: []sql.Assign{{Col: "grp"}}},
		"where param past":     sql.Update{Table: "f", Sets: []sql.Assign{{Col: "grp", Val: lit(value.Int(1))}}, Where: []sql.Pred{{Col: "name", Op: sql.OpEq, Val: sql.Param{Idx: 0}}}},
		"unknown table":        sql.Delete{Table: "nope"},
		"zero-valued select":   sql.Select{},
		"zero limit, no param": sql.Select{Table: "f", Star: true},
	}
	for name, st := range execs {
		if _, err := c.ExecStmt(st); err == nil {
			t.Errorf("ExecStmt(%s) succeeded", name)
		}
	}
	queries := map[string]sql.Select{
		"zero limit, no param": {Table: "f", Star: true},
		"unknown pred col":     withWhere(sql.Pred{Col: "nope", Op: sql.OpEq, Val: lit(value.Int(1))}),
		"nil pred value":       withWhere(sql.Pred{Col: "name", Op: sql.OpEq}),
		"pred param past":      withWhere(sql.Pred{Col: "name", Op: sql.OpEq, Val: sql.Param{Idx: 0}}),
		"unknown column":       {Table: "f", Cols: []string{"nope"}, Limit: -1, LimitParam: -1},
		"unknown order by":     {Table: "f", Star: true, OrderBy: "nope", Limit: -1, LimitParam: -1},
		"unknown aggregate":    {Table: "f", Agg: sql.AggMax, AggCol: "nope", Limit: -1, LimitParam: -1},
		"limit param past":     {Table: "f", Star: true, LimitParam: 2},
	}
	for name, sel := range queries {
		if _, err := c.QueryStmt(sel); err == nil {
			t.Errorf("QueryStmt(%s) succeeded", name)
		}
	}
	// A zero-valued Limit with LimitParam 0 reads the limit from the first
	// parameter, exactly as "LIMIT ?" parses.
	if rows, err := c.QueryStmt(sql.Select{Table: "f", Star: true}, value.Int(1)); err != nil || len(rows) != 1 {
		t.Errorf("LimitParam 0 with a parameter: %d rows, %v", len(rows), err)
	}
	if c.InTxn() {
		c.Rollback()
	}

	// The well-formed tree still works, and is not modified by running it.
	sel := withWhere(sql.Pred{Col: "name", Op: sql.OpEq, Val: sql.Param{Idx: 0}})
	for i := 0; i < 2; i++ {
		rows, err := c.QueryStmt(sel, value.Str("a"))
		if err != nil || len(rows) != 1 {
			t.Fatalf("QueryStmt on a good tree: %d rows, %v", len(rows), err)
		}
	}
	mustCommit(t, c)
}
