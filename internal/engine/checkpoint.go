package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/storage"
)

// Checkpoint bounds restart replay of a page-backed database (DataDir set).
// The checkpoint is *fuzzy*: it runs concurrently with transactions.
// StartLSN is computed from the log's oldest undecided transaction (and any
// restored indoubt ones the reopened log no longer tracks) BEFORE the latch
// is taken, so every record a later recovery could need sits at or above
// it; then all dirty pages are flushed (log first, the WAL rule) and the
// meta — table anchors plus that StartLSN — replaces the previous durable
// set atomically. An in-memory database has nothing to checkpoint: it
// replays its whole log at restart.
func (db *DB) Checkpoint() error {
	if db.store == nil {
		return fmt.Errorf("engine: checkpoint requires DataDir")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	startLSN := db.log.CheckpointLSN()

	db.latch.Lock()
	defer db.latch.Unlock()
	for _, t := range db.indoubt {
		if t.firstLSN > 0 && t.firstLSN < startLSN {
			startLSN = t.firstLSN
		}
	}
	meta := storage.Meta{StartLSN: startLSN, NextTxn: db.nextTxn.Load()}
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tbl := db.tables[name]
		tm := storage.TableMeta{
			DDL:      tableDDL(name, tbl),
			HeapHead: tbl.heap.(*storeHeap).h.Head(),
			NextRID:  tbl.nextRID,
		}
		for _, ix := range tbl.indexes {
			tm.Indexes = append(tm.Indexes, storage.IndexMeta{
				DDL:  indexDDL(name, ix),
				Root: ix.tree.(*storeIndex).t.Root(),
			})
		}
		meta.Tables = append(meta.Tables, tm)
	}
	if err := db.store.Checkpoint(meta); err != nil {
		return err
	}
	db.tracer.Emitf(0, "engine", "checkpoint", "%s fuzzy checkpoint at LSN %d (%d tables)",
		db.cfg.Name, startLSN, len(meta.Tables))
	return nil
}

// checkpointDaemon periodically checkpoints until stop closes.
func (db *DB) checkpointDaemon(every time.Duration, stop chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if err := db.Checkpoint(); err != nil {
				db.tracer.Emitf(0, "engine", "checkpoint_error", "%s: %v", db.cfg.Name, err)
			}
		}
	}
}

// tableDDL renders a table's canonical CREATE TABLE text (the same form the
// log uses).
func tableDDL(name string, tbl *table) string {
	ddl := "CREATE TABLE " + name + " ("
	for i, col := range tbl.schema.Cols {
		if i > 0 {
			ddl += ", "
		}
		ddl += col.Name + " " + typeName(col.Type)
		if col.NotNull {
			ddl += " NOT NULL"
		}
	}
	return ddl + ")"
}

// indexDDL renders an index's canonical CREATE INDEX text.
func indexDDL(tableName string, ix *index) string {
	stmt := "CREATE "
	if ix.schema.Unique {
		stmt += "UNIQUE "
	}
	return stmt + "INDEX " + ix.schema.Name + " ON " + tableName +
		" (" + strings.Join(ix.schema.Cols, ", ") + ")"
}
