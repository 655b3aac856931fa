package engine

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/lock"
	"repro/internal/sql"
	"repro/internal/value"
	"repro/internal/wal"
)

// Exec parses text and runs it through ExecStmt.
func (c *Conn) Exec(text string, params ...value.Value) (int64, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	return c.ExecStmt(stmt, params...)
}

// ExecStmt executes an already-parsed statement, returning the number of
// affected rows (for SELECT, the number of rows). The plan is chosen at
// execution; stmt is only read, so callers may share one tree.
func (c *Conn) ExecStmt(stmt sql.Statement, params ...value.Value) (int64, error) {
	return c.execParsed(stmt, nil, params)
}

// Query parses text, which must be a SELECT, and runs it through QueryStmt.
func (c *Conn) Query(text string, params ...value.Value) ([]value.Row, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(sql.Select)
	if !ok {
		return nil, fmt.Errorf("engine: Query requires a SELECT, got %T", stmt)
	}
	return c.QueryStmt(sel, params...)
}

// QueryStmt executes an already-parsed SELECT, returning the materialized
// rows. A hand-built sel sets Limit and LimitParam to -1 for "no limit".
func (c *Conn) QueryStmt(sel sql.Select, params ...value.Value) ([]value.Row, error) {
	return c.execSelectPlanned(sel, nil, params)
}

// QueryInt runs a single-column, single-row SELECT (typically COUNT/MIN/MAX
// or a keyed lookup) and returns its integer result. ok is false when the
// query returned no row or a NULL.
func (c *Conn) QueryInt(text string, params ...value.Value) (int64, bool, error) {
	rows, err := c.Query(text, params...)
	if err != nil {
		return 0, false, err
	}
	if len(rows) == 0 || len(rows[0]) == 0 || rows[0][0].IsNull() {
		return 0, false, nil
	}
	if rows[0][0].Kind() != value.KindInt {
		return 0, false, fmt.Errorf("engine: QueryInt on non-integer column")
	}
	return rows[0][0].Int64(), true, nil
}

// execParsed dispatches a parsed statement. pl may carry a pre-bound plan
// (from a prepared statement); when nil the plan is chosen at execution.
func (c *Conn) execParsed(stmt sql.Statement, pl *plan, params []value.Value) (int64, error) {
	switch s := stmt.(type) {
	case sql.CreateTable:
		return 0, c.execCreateTable(s)
	case sql.CreateIndex:
		return 0, c.execCreateIndex(s)
	case sql.DropTable:
		return 0, c.execDropTable(s)
	case sql.Insert:
		return c.execInsert(s, params)
	case sql.Update:
		return c.execUpdate(s, pl, params)
	case sql.Delete:
		return c.execDelete(s, pl, params)
	case sql.Select:
		rows, err := c.execSelectPlanned(s, pl, params)
		return int64(len(rows)), err
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// --- DDL ----------------------------------------------------------------

func astColumns(s sql.CreateTable) []catalog.Column {
	cols := make([]catalog.Column, len(s.Cols))
	for i, cd := range s.Cols {
		cols[i] = catalog.Column{Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull}
	}
	return cols
}

// DDL is autocommitted: it takes effect immediately and is logged as its
// own unit, independent of any open transaction on the connection.
func (c *Conn) execCreateTable(s sql.CreateTable) error {
	c.db.latch.Lock()
	err := c.db.createTableLocked(s.Name, astColumns(s))
	c.db.latch.Unlock()
	if err != nil {
		return err
	}
	_, err = c.db.log.Append(wal.Record{Type: wal.RecCreateTable, Table: renderCreateTable(s)})
	return err
}

func (c *Conn) execCreateIndex(s sql.CreateIndex) error {
	c.db.latch.Lock()
	err := c.db.createIndexLocked(s.Name, s.Table, s.Cols, s.Unique)
	c.db.latch.Unlock()
	if err != nil {
		return err
	}
	_, err = c.db.log.Append(wal.Record{Type: wal.RecCreateIndex, Table: renderCreateIndex(s)})
	return err
}

func (c *Conn) execDropTable(s sql.DropTable) error {
	c.db.latch.Lock()
	if err := c.db.cat.DropTable(s.Name); err != nil {
		c.db.latch.Unlock()
		return err
	}
	delete(c.db.tables, s.Name)
	c.db.latch.Unlock()
	_, err := c.db.log.Append(wal.Record{Type: wal.RecDropTable, Table: "DROP TABLE " + s.Name})
	return err
}

// renderCreateTable reproduces canonical DDL text for the log.
func renderCreateTable(s sql.CreateTable) string {
	out := "CREATE TABLE " + s.Name + " ("
	for i, cd := range s.Cols {
		if i > 0 {
			out += ", "
		}
		out += cd.Name + " " + typeName(cd.Type)
		if cd.NotNull {
			out += " NOT NULL"
		}
	}
	return out + ")"
}

func renderCreateIndex(s sql.CreateIndex) string {
	out := "CREATE "
	if s.Unique {
		out += "UNIQUE "
	}
	out += "INDEX " + s.Name + " ON " + s.Table + " ("
	for i, col := range s.Cols {
		if i > 0 {
			out += ", "
		}
		out += col
	}
	return out + ")"
}

func typeName(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "BIGINT"
	case value.KindString:
		return "VARCHAR"
	case value.KindBool:
		return "BOOLEAN"
	default:
		return "BIGINT"
	}
}

// --- expression evaluation ------------------------------------------------

func evalExpr(e sql.Expr, schema *catalog.TableSchema, row value.Row, params []value.Value) (value.Value, error) {
	switch x := e.(type) {
	case sql.Literal:
		return x.V, nil
	case sql.Param:
		if x.Idx < 0 || x.Idx >= len(params) {
			return value.Null, fmt.Errorf("engine: statement needs parameter %d but only %d supplied", x.Idx+1, len(params))
		}
		return params[x.Idx], nil
	case sql.Column:
		if row == nil || schema == nil {
			return value.Null, fmt.Errorf("engine: column %q not valid in this context", x.Name)
		}
		i, ok := schema.ColIndex(x.Name)
		if !ok {
			return value.Null, fmt.Errorf("engine: unknown column %q in table %q", x.Name, schema.Name)
		}
		return row[i], nil
	default:
		return value.Null, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

// matchRow applies every predicate (SQL ternary logic: NULL never matches).
func matchRow(schema *catalog.TableSchema, row value.Row, preds []sql.Pred, params []value.Value) (bool, error) {
	for _, p := range preds {
		i, ok := schema.ColIndex(p.Col)
		if !ok {
			return false, fmt.Errorf("engine: unknown column %q in table %q", p.Col, schema.Name)
		}
		lhs := row[i]
		rhs, err := evalExpr(p.Val, schema, row, params)
		if err != nil {
			return false, err
		}
		if lhs.IsNull() || rhs.IsNull() {
			return false, nil
		}
		if !p.Op.Eval(lhs.Compare(rhs)) {
			return false, nil
		}
	}
	return true, nil
}

// --- candidate collection ---------------------------------------------------

// collectCandidates gathers the row ids the plan's access path visits, in
// ascending rid order for deterministic lock ordering. Counters reflect the
// access path taken.
func (c *Conn) collectCandidates(pl *plan, params []value.Value) ([]int64, error) {
	db := c.db
	db.latch.Lock()
	defer db.latch.Unlock()
	tbl, err := db.tableLocked(pl.table)
	if err != nil {
		return nil, err
	}
	if pl.index == nil {
		db.tableScans.Add(1)
		rids := make([]int64, 0, tbl.heap.Len())
		tbl.heap.Scan(func(rid int64, _ value.Row) bool {
			rids = append(rids, rid)
			return true
		})
		sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
		db.rowsRead.Add(int64(len(rids)))
		return rids, nil
	}

	db.indexScans.Add(1)
	// Locate the runtime index by name.
	var ix *index
	for _, cand := range tbl.indexes {
		if cand.schema.Name == pl.index.Name {
			ix = cand
			break
		}
	}
	if ix == nil {
		return nil, fmt.Errorf("%w: index %q no longer exists on %q", ErrStalePlan, pl.index.Name, pl.table)
	}
	probe := make(value.Key, len(pl.eqPreds))
	for i, p := range pl.eqPreds {
		v, err := evalExpr(p.Val, nil, nil, params)
		if err != nil {
			return nil, err
		}
		probe[i] = v
	}
	var rids []int64
	ix.tree.AscendGreaterOrEqual(probe, func(k value.Key, rid int64) bool {
		if !k.HasPrefix(probe) {
			return false
		}
		rids = append(rids, rid)
		return true
	})
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	db.rowsRead.Add(int64(len(rids)))
	return rids, nil
}

// --- SELECT -----------------------------------------------------------------

func (c *Conn) execSelectPlanned(s sql.Select, pl *plan, params []value.Value) ([]value.Row, error) {
	db := c.db
	db.selects.Add(1)
	t := c.begin()
	if t.aborted {
		return nil, ErrTxnAborted
	}
	if t.prepared {
		return nil, errPreparedStmt(t.id)
	}
	var err error
	if pl == nil {
		if pl, err = db.bindPlan(s.Table, s.Where); err != nil {
			return nil, err
		}
	}
	schemaMeta, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := schemaMeta.Schema

	limit := s.Limit
	if s.LimitParam >= 0 {
		if s.LimitParam >= len(params) {
			return nil, fmt.Errorf("engine: LIMIT parameter %d not supplied", s.LimitParam+1)
		}
		v := params[s.LimitParam]
		if v.Kind() != value.KindInt || v.Int64() < 0 {
			return nil, fmt.Errorf("engine: LIMIT parameter must be a non-negative integer")
		}
		limit = int(v.Int64())
	}

	rowMode, tableMode := lock.S, lock.IS
	if s.ForUpdate {
		rowMode, tableMode = lock.X, lock.IX
	}
	if err := db.lm.Acquire(t.id, lock.TableTarget(s.Table), tableMode); err != nil {
		c.autoAbort()
		return nil, err
	}
	cands, err := c.collectCandidates(pl, params)
	if err != nil {
		return nil, err
	}

	var matched []value.Row
	for _, rid := range cands {
		tgt := lock.RowTarget(s.Table, rid)
		prior := db.lm.Holds(t.id, tgt)
		if err := db.lm.Acquire(t.id, tgt, rowMode); err != nil {
			c.autoAbort()
			return nil, err
		}
		db.latch.Lock()
		tbl := db.tables[s.Table]
		var row value.Row
		if tbl != nil {
			row, _ = tbl.heap.Get(rid)
		}
		ok := false
		if row != nil {
			if ok, err = matchRow(schema, row, s.Where, params); err != nil {
				db.latch.Unlock()
				return nil, err
			}
		}
		var copied value.Row
		if ok {
			copied = row.Clone()
		}
		db.latch.Unlock()

		releasable := prior == lock.None && !s.ForUpdate && !db.cfg.HoldReadLocks
		if !ok {
			// Non-qualifying rows never stay locked (cursor stability).
			if prior == lock.None {
				db.lm.Release(t.id, tgt)
			}
			continue
		}
		if releasable {
			db.lm.Release(t.id, tgt)
		}
		matched = append(matched, copied)
		if s.OrderBy == "" && s.Agg == sql.AggNone && limit >= 0 && len(matched) >= limit {
			break
		}
	}

	return projectRows(schema, s, limit, matched)
}

// projectRows applies ORDER BY, LIMIT, aggregation, and projection.
func projectRows(schema *catalog.TableSchema, s sql.Select, limit int, matched []value.Row) ([]value.Row, error) {
	if s.Agg != sql.AggNone {
		switch s.Agg {
		case sql.AggCount:
			return []value.Row{{value.Int(int64(len(matched)))}}, nil
		case sql.AggMin, sql.AggMax:
			i, ok := schema.ColIndex(s.AggCol)
			if !ok {
				return nil, fmt.Errorf("engine: unknown column %q in aggregate", s.AggCol)
			}
			best := value.Null
			for _, row := range matched {
				v := row[i]
				if v.IsNull() {
					continue
				}
				if best.IsNull() ||
					(s.Agg == sql.AggMin && v.Compare(best) < 0) ||
					(s.Agg == sql.AggMax && v.Compare(best) > 0) {
					best = v
				}
			}
			return []value.Row{{best}}, nil
		}
	}

	if s.OrderBy != "" {
		i, ok := schema.ColIndex(s.OrderBy)
		if !ok {
			return nil, fmt.Errorf("engine: unknown ORDER BY column %q", s.OrderBy)
		}
		sort.SliceStable(matched, func(a, b int) bool {
			cmp := matched[a][i].Compare(matched[b][i])
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if limit >= 0 && len(matched) > limit {
		matched = matched[:limit]
	}
	if s.Star {
		return matched, nil
	}
	idxs := make([]int, len(s.Cols))
	for i, col := range s.Cols {
		pos, ok := schema.ColIndex(col)
		if !ok {
			return nil, fmt.Errorf("engine: unknown column %q in select list", col)
		}
		idxs[i] = pos
	}
	out := make([]value.Row, len(matched))
	for r, row := range matched {
		proj := make(value.Row, len(idxs))
		for i, pos := range idxs {
			proj[i] = row[pos]
		}
		out[r] = proj
	}
	return out, nil
}

// --- INSERT -----------------------------------------------------------------

func (c *Conn) execInsert(s sql.Insert, params []value.Value) (int64, error) {
	db := c.db
	t := c.begin()
	if t.aborted {
		return 0, ErrTxnAborted
	}
	if t.prepared {
		return 0, errPreparedStmt(t.id)
	}
	meta, err := db.cat.Table(s.Table)
	if err != nil {
		return 0, err
	}
	schema := meta.Schema

	// Assemble and type-check the row.
	row := make(value.Row, len(schema.Cols))
	for i := range row {
		row[i] = value.Null
	}
	cols := s.Cols
	if cols == nil {
		if len(s.Vals) != len(schema.Cols) {
			return 0, fmt.Errorf("engine: INSERT supplies %d values for %d columns", len(s.Vals), len(schema.Cols))
		}
		for i, e := range s.Vals {
			v, err := evalExpr(e, nil, nil, params)
			if err != nil {
				return 0, err
			}
			row[i] = v
		}
	} else {
		if len(cols) != len(s.Vals) {
			return 0, fmt.Errorf("engine: INSERT column/value count mismatch")
		}
		for i, col := range cols {
			pos, ok := schema.ColIndex(col)
			if !ok {
				return 0, fmt.Errorf("engine: unknown column %q in INSERT", col)
			}
			v, err := evalExpr(s.Vals[i], nil, nil, params)
			if err != nil {
				return 0, err
			}
			row[pos] = v
		}
	}
	for i, cd := range schema.Cols {
		if row[i].IsNull() {
			if cd.NotNull {
				return 0, fmt.Errorf("%w (column %s.%s)", ErrNotNull, s.Table, cd.Name)
			}
			continue
		}
		if row[i].Kind() != cd.Type {
			return 0, fmt.Errorf("%w (column %s.%s wants %s, got %s)",
				ErrTypeMismatch, s.Table, cd.Name, cd.Type, row[i].Kind())
		}
	}

	if err := db.lm.Acquire(t.id, lock.TableTarget(s.Table), lock.IX); err != nil {
		c.autoAbort()
		return 0, err
	}

	// Reserve a rid and X-lock it before the row becomes visible.
	db.latch.Lock()
	tbl, err := db.tableLocked(s.Table)
	if err != nil {
		db.latch.Unlock()
		return 0, err
	}
	rid := tbl.nextRID
	tbl.nextRID++
	db.latch.Unlock()
	if err := db.lm.Acquire(t.id, lock.RowTarget(s.Table, rid), lock.X); err != nil {
		c.autoAbort()
		return 0, err
	}

	for {
		// Uniqueness check plus next-key discovery under the latch.
		db.latch.Lock()
		var dupRID int64
		var nextKeys []lock.Target
		for _, ix := range tbl.indexes {
			k := ix.keyOf(row)
			if ix.schema.Unique {
				if d := ix.lookupUniqueLocked(k); d != 0 {
					dupRID = d
					break
				}
			}
			if db.cfg.NextKeyLocking {
				if nk, ok := ix.tree.NextKey(k); ok {
					nextKeys = append(nextKeys, lock.KeyTarget(s.Table, ix.schema.Name, nk.String()))
				} else {
					nextKeys = append(nextKeys, lock.KeyTarget(s.Table, ix.schema.Name, "+inf"))
				}
			}
		}
		if dupRID == 0 && len(nextKeys) == 0 {
			// Fast path: apply while still latched.
			if err := c.applyInsertLocked(tbl, s.Table, rid, row); err != nil {
				db.latch.Unlock()
				return 0, err
			}
			db.latch.Unlock()
			db.inserts.Add(1)
			return 1, nil
		}
		db.latch.Unlock()

		if dupRID != 0 {
			// Wait for the conflicting row's owner to resolve, then
			// re-check: if the row is still there the insert is a genuine
			// duplicate (SQLCODE -803); if it vanished (owner rolled
			// back), retry.
			tgt := lock.RowTarget(s.Table, dupRID)
			prior := db.lm.Holds(t.id, tgt)
			if err := db.lm.Acquire(t.id, tgt, lock.S); err != nil {
				c.autoAbort()
				return 0, err
			}
			db.latch.Lock()
			_, stillThere := tbl.heap.Get(dupRID)
			db.latch.Unlock()
			if prior == lock.None {
				db.lm.Release(t.id, tgt)
			}
			if stillThere {
				return 0, fmt.Errorf("%w (table %s)", ErrDuplicate, s.Table)
			}
			continue
		}

		// Next-key locking on insert: instant-duration X on each successor
		// key. This is the cross-index interleaving that deadlocks when
		// several agents insert/delete concurrently (experiment E3).
		for _, nk := range nextKeys {
			prior := db.lm.Holds(t.id, nk)
			if err := db.lm.Acquire(t.id, nk, lock.X); err != nil {
				c.autoAbort()
				return 0, err
			}
			if prior == lock.None {
				db.lm.Release(t.id, nk)
			}
		}

		// Re-verify uniqueness after the unlatch window, then apply.
		db.latch.Lock()
		dupRID = 0
		for _, ix := range tbl.indexes {
			if ix.schema.Unique {
				if d := ix.lookupUniqueLocked(ix.keyOf(row)); d != 0 {
					dupRID = d
					break
				}
			}
		}
		if dupRID != 0 {
			db.latch.Unlock()
			continue
		}
		if err := c.applyInsertLocked(tbl, s.Table, rid, row); err != nil {
			db.latch.Unlock()
			return 0, err
		}
		db.latch.Unlock()
		db.inserts.Add(1)
		return 1, nil
	}
}

// applyInsertLocked logs and applies the insert. Caller holds the latch.
func (c *Conn) applyInsertLocked(tbl *table, tableName string, rid int64, row value.Row) error {
	t := c.txn
	rec := wal.Record{Txn: t.id, Type: wal.RecInsert, Table: tableName, RID: rid, After: row}
	if _, err := c.db.log.Append(rec); err != nil {
		return err
	}
	tbl.heap.Put(rid, row)
	for _, ix := range tbl.indexes {
		ix.tree.Insert(ix.keyOf(row), rid)
	}
	t.undo = append(t.undo, rec)
	t.wrote = true
	return nil
}

// --- DELETE -----------------------------------------------------------------

func (c *Conn) execDelete(s sql.Delete, pl *plan, params []value.Value) (int64, error) {
	return c.writeScan(s.Table, s.Where, pl, params, func(tbl *table, rid int64, row value.Row) error {
		t := c.txn
		rec := wal.Record{Txn: t.id, Type: wal.RecDelete, Table: s.Table, RID: rid, Before: row}
		if _, err := c.db.log.Append(rec); err != nil {
			return err
		}
		tbl.heap.Delete(rid)
		for _, ix := range tbl.indexes {
			ix.tree.Delete(ix.keyOf(row), rid)
		}
		t.undo = append(t.undo, rec)
		t.wrote = true
		c.db.deletes.Add(1)
		return nil
	}, nil)
}

// --- UPDATE -----------------------------------------------------------------

func (c *Conn) execUpdate(s sql.Update, pl *plan, params []value.Value) (int64, error) {
	meta, err := c.db.cat.Table(s.Table)
	if err != nil {
		return 0, err
	}
	schema := meta.Schema
	setIdx := make([]int, len(s.Sets))
	for i, a := range s.Sets {
		pos, ok := schema.ColIndex(a.Col)
		if !ok {
			return 0, fmt.Errorf("engine: unknown column %q in UPDATE SET", a.Col)
		}
		setIdx[i] = pos
	}

	apply := func(tbl *table, rid int64, row value.Row) error {
		t := c.txn
		newRow := row.Clone()
		for i, a := range s.Sets {
			v, err := evalExpr(a.Val, schema, row, params)
			if err != nil {
				return err
			}
			cd := schema.Cols[setIdx[i]]
			if v.IsNull() {
				if cd.NotNull {
					return fmt.Errorf("%w (column %s.%s)", ErrNotNull, s.Table, cd.Name)
				}
			} else if v.Kind() != cd.Type {
				return fmt.Errorf("%w (column %s.%s wants %s, got %s)",
					ErrTypeMismatch, s.Table, cd.Name, cd.Type, v.Kind())
			}
			newRow[setIdx[i]] = v
		}
		// Unique checks for indexes whose key changes.
		for _, ix := range tbl.indexes {
			if !ix.schema.Unique {
				continue
			}
			oldK, newK := ix.keyOf(row), ix.keyOf(newRow)
			if value.CompareKeys(oldK, newK) == 0 {
				continue
			}
			if d := ix.lookupUniqueLocked(newK); d != 0 && d != rid {
				return fmt.Errorf("%w (table %s, index %s)", ErrDuplicate, s.Table, ix.schema.Name)
			}
		}
		rec := wal.Record{Txn: t.id, Type: wal.RecUpdate, Table: s.Table, RID: rid, Before: row, After: newRow}
		if _, err := c.db.log.Append(rec); err != nil {
			return err
		}
		tbl.heap.Put(rid, newRow)
		for _, ix := range tbl.indexes {
			oldK, newK := ix.keyOf(row), ix.keyOf(newRow)
			if value.CompareKeys(oldK, newK) != 0 {
				ix.tree.Delete(oldK, rid)
				ix.tree.Insert(newK, rid)
			}
		}
		t.undo = append(t.undo, rec)
		t.wrote = true
		c.db.updates.Add(1)
		return nil
	}

	// For next-key purposes an update that moves an index key behaves as a
	// delete of the old key (held lock) and insert of the new (instant).
	changedKeys := func(tbl *table, row value.Row) ([]value.Key, []*index, error) {
		newRow := row.Clone()
		for i, a := range s.Sets {
			v, err := evalExpr(a.Val, schema, row, params)
			if err != nil {
				return nil, nil, err
			}
			newRow[setIdx[i]] = v
		}
		var keys []value.Key
		var ixs []*index
		for _, ix := range tbl.indexes {
			oldK, newK := ix.keyOf(row), ix.keyOf(newRow)
			if value.CompareKeys(oldK, newK) != 0 {
				keys = append(keys, oldK, newK)
				ixs = append(ixs, ix, ix)
			}
		}
		return keys, ixs, nil
	}

	return c.writeScan(s.Table, s.Where, pl, params, apply, changedKeys)
}

// --- shared write-scan machinery ---------------------------------------------

// keysFn returns, per qualifying row, the index keys whose successors need
// next-key locks (nil for DELETE, where every index key counts).
type keysFn func(tbl *table, row value.Row) ([]value.Key, []*index, error)

// writeScan is the shared UPDATE/DELETE executor: plan, collect, X-lock each
// candidate, re-check the predicate, acquire next-key locks, and apply.
func (c *Conn) writeScan(tableName string, where []sql.Pred, pl *plan, params []value.Value,
	apply func(tbl *table, rid int64, row value.Row) error, keys keysFn) (int64, error) {

	db := c.db
	t := c.begin()
	if t.aborted {
		return 0, ErrTxnAborted
	}
	if t.prepared {
		return 0, errPreparedStmt(t.id)
	}
	var err error
	if pl == nil {
		if pl, err = db.bindPlan(tableName, where); err != nil {
			return 0, err
		}
	}
	meta, err := db.cat.Table(tableName)
	if err != nil {
		return 0, err
	}
	schema := meta.Schema

	if err := db.lm.Acquire(t.id, lock.TableTarget(tableName), lock.IX); err != nil {
		c.autoAbort()
		return 0, err
	}
	cands, err := c.collectCandidates(pl, params)
	if err != nil {
		return 0, err
	}

	var affected int64
	for _, rid := range cands {
		tgt := lock.RowTarget(tableName, rid)
		prior := db.lm.Holds(t.id, tgt)
		if err := db.lm.Acquire(t.id, tgt, lock.X); err != nil {
			c.autoAbort()
			return 0, err
		}

	recheck:
		db.latch.Lock()
		tbl := db.tables[tableName]
		var row value.Row
		if tbl != nil {
			row, _ = tbl.heap.Get(rid)
		}
		ok := false
		if row != nil {
			if ok, err = matchRow(schema, row, where, params); err != nil {
				db.latch.Unlock()
				return 0, err
			}
		}
		if !ok {
			db.latch.Unlock()
			// Non-qualifying examined rows are unlocked immediately
			// (cursor stability); qualifying ones stay X-locked to commit.
			if prior == lock.None {
				db.lm.Release(t.id, tgt)
			}
			continue
		}

		// Next-key lock discovery for this row.
		var nextTargets []lock.Target
		var heldDur []bool // true = hold to commit (delete side), false = instant
		if db.cfg.NextKeyLocking {
			var delKeys []value.Key
			var delIxs []*index
			if keys == nil {
				for _, ix := range tbl.indexes {
					delKeys = append(delKeys, ix.keyOf(row))
					delIxs = append(delIxs, ix)
				}
				for i := range delKeys {
					nextTargets = append(nextTargets, successorTarget(tableName, delIxs[i], delKeys[i]))
					heldDur = append(heldDur, true)
				}
			} else {
				ks, ixs, err := keys(tbl, row)
				if err != nil {
					db.latch.Unlock()
					return 0, err
				}
				for i := range ks {
					nextTargets = append(nextTargets, successorTarget(tableName, ixs[i], ks[i]))
					// Even positions are old keys (delete side, held);
					// odd are new keys (insert side, instant).
					heldDur = append(heldDur, i%2 == 0)
				}
			}
		}
		if len(nextTargets) > 0 {
			rowSnapshot := row.Clone()
			db.latch.Unlock()
			for i, nk := range nextTargets {
				priorNK := db.lm.Holds(t.id, nk)
				if err := db.lm.Acquire(t.id, nk, lock.X); err != nil {
					c.autoAbort()
					return 0, err
				}
				if !heldDur[i] && priorNK == lock.None {
					db.lm.Release(t.id, nk)
				}
			}
			// Re-verify the row after the unlatched window.
			db.latch.Lock()
			cur, _ := tbl.heap.Get(rid)
			if cur == nil {
				db.latch.Unlock()
				continue
			}
			same := len(cur) == len(rowSnapshot)
			if same {
				for i := range cur {
					if !cur[i].Equal(rowSnapshot[i]) {
						same = false
						break
					}
				}
			}
			if !same {
				db.latch.Unlock()
				goto recheck
			}
			row = cur
		}

		if err := apply(tbl, rid, row); err != nil {
			db.latch.Unlock()
			return affected, err
		}
		db.latch.Unlock()
		affected++
	}
	return affected, nil
}

// successorTarget finds the next key after k in ix (computed under the
// latch) and names its lock target; the logical end-of-index key stands in
// when k is the maximum.
func successorTarget(tableName string, ix *index, k value.Key) lock.Target {
	if nk, ok := ix.tree.NextKey(k); ok {
		return lock.KeyTarget(tableName, ix.schema.Name, nk.String())
	}
	return lock.KeyTarget(tableName, ix.schema.Name, "+inf")
}
