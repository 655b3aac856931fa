package hostdb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/rpc"
	"repro/internal/sql"
	"repro/internal/value"
)

// backupImage is a quiesced dump of the host database's user tables plus
// the recovery-id watermark and the file servers involved — the extra
// information the paper says the backup utility keeps in the image
// ("which file servers and file groups were involved in the backup").
type backupImage struct {
	id      int64
	recID   int64
	servers []string
	tables  map[string]tableDump
}

type tableDump struct {
	cols    []catalog.Column
	indexes []*catalog.IndexSchema
	rows    []value.Row
}

// Backup takes a coordinated backup: it picks the recovery-id watermark,
// asks every DLFM to flush pending archive copies up to it (WaitArchive),
// snapshots the host tables, registers the backup with each DLFM for
// retention, and records it locally. The database is assumed quiesced, as
// the paper's backup utility assumes.
func (db *DB) Backup() (int64, error) {
	watermark := db.NextRecID()
	id := db.bkSeq.Add(1)

	img := &backupImage{id: id, recID: watermark, tables: make(map[string]tableDump)}
	for _, server := range db.Servers() {
		dial, err := db.dialer(server)
		if err != nil {
			return 0, err
		}
		client, err := dial()
		if err != nil {
			return 0, fmt.Errorf("hostdb: backup: DLFM %s unreachable: %w", server, err)
		}
		// "The Backup utility on the host database side makes sure that
		// all the files since last backup are archived to the archive
		// server before declaring that backup is successful."
		resp, callErr := client.Call(rpc.WaitArchiveReq{RecID: watermark})
		if callErr == nil && resp.OK() {
			resp, callErr = client.Call(rpc.RegisterBackupReq{BackupID: id, RecID: watermark})
		}
		client.Close()
		if callErr != nil {
			return 0, fmt.Errorf("hostdb: backup at %s: %w", server, callErr)
		}
		if !resp.OK() {
			return 0, fmt.Errorf("hostdb: backup at %s: %s: %s", server, resp.Code, resp.Msg)
		}
		img.servers = append(img.servers, server)
	}

	// Snapshot every user table (system tables are rebuilt by restore).
	for _, name := range db.eng.Catalog().TableNames() {
		if strings.HasPrefix(name, "dl_") {
			continue
		}
		meta, err := db.eng.Catalog().Table(name)
		if err != nil {
			continue
		}
		rows, err := db.eng.DumpTable(name)
		if err != nil {
			return 0, err
		}
		sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
		img.tables[name] = tableDump{
			cols:    append([]catalog.Column(nil), meta.Schema.Cols...),
			indexes: append([]*catalog.IndexSchema(nil), meta.Indexes...),
			rows:    rows,
		}
	}
	db.mu.Lock()
	db.backups[id] = img
	db.mu.Unlock()

	c := db.eng.Connect()
	if _, err := c.Exec(`INSERT INTO dl_backups (backupid, recid, ts) VALUES (?, ?, ?)`,
		value.Int(id), value.Int(watermark), value.Int(time.Now().UnixNano())); err != nil {
		c.Rollback()
		return 0, err
	}
	if err := c.Commit(); err != nil {
		return 0, err
	}
	return id, nil
}

func rowLess(a, b value.Row) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// Restore brings the host database back to the given backup and tells
// every involved DLFM to reconcile its metadata to the backup's recovery-
// id watermark (retrieving missing files from the archive server). The
// database must be quiesced.
func (db *DB) Restore(backupID int64) error {
	db.mu.Lock()
	img := db.backups[backupID]
	db.mu.Unlock()
	if img == nil {
		return fmt.Errorf("hostdb: no backup image %d", backupID)
	}

	c := db.eng.Connect()
	// Drop every current user table, then rebuild from the image.
	for _, name := range db.eng.Catalog().TableNames() {
		if strings.HasPrefix(name, "dl_") {
			continue
		}
		if _, err := c.Exec("DROP TABLE " + name); err != nil {
			return err
		}
	}
	for name, dump := range img.tables {
		ddl := "CREATE TABLE " + name + " ("
		for i, col := range dump.cols {
			if i > 0 {
				ddl += ", "
			}
			ddl += col.Name + " " + typeName(col.Type)
			if col.NotNull {
				ddl += " NOT NULL"
			}
		}
		ddl += ")"
		if _, err := c.Exec(ddl); err != nil {
			return err
		}
		for _, ix := range dump.indexes {
			stmt := "CREATE "
			if ix.Unique {
				stmt += "UNIQUE "
			}
			stmt += "INDEX " + ix.Name + " ON " + name + " (" + strings.Join(ix.Cols, ", ") + ")"
			if _, err := c.Exec(stmt); err != nil {
				return err
			}
		}
		if len(dump.rows) > 0 {
			marks := strings.Repeat(", ?", len(dump.cols))[2:]
			ins := "INSERT INTO " + name + " VALUES (" + marks + ")"
			for _, row := range dump.rows {
				if _, err := c.Exec(ins, row...); err != nil {
					c.Rollback()
					return err
				}
			}
			if err := c.Commit(); err != nil {
				return err
			}
		}
	}

	// Tell every DLFM involved in the backup to roll its metadata to the
	// watermark (Section 3.4).
	for _, server := range img.servers {
		dial, err := db.dialer(server)
		if err != nil {
			return err
		}
		client, err := dial()
		if err != nil {
			return fmt.Errorf("hostdb: restore: DLFM %s unreachable: %w", server, err)
		}
		resp, callErr := client.Call(rpc.RestoreToReq{RecID: img.recID})
		client.Close()
		if callErr != nil {
			return fmt.Errorf("hostdb: restore at %s: %w", server, callErr)
		}
		if !resp.OK() {
			return fmt.Errorf("hostdb: restore at %s: %s: %s", server, resp.Code, resp.Msg)
		}
	}
	return nil
}

func typeName(k value.Kind) string {
	switch k {
	case value.KindString:
		return "VARCHAR"
	case value.KindBool:
		return "BOOLEAN"
	default:
		return "BIGINT"
	}
}

// Reconcile synchronizes the host's DATALINK columns with every DLFM after
// a restore (Section 3.4): the host ships its complete view of linked
// files per server; each DLFM repairs what it can and reports the names it
// cannot produce, which the host then nulls out. Returns the number of
// column values nulled.
func (db *DB) Reconcile() (int, error) {
	c := db.eng.Connect()
	// Collect the host view: per server, every (path, recid) pair from
	// every DATALINK column of every table.
	type entry struct {
		table, col string
		url        string
		recID      int64
	}
	byServer := make(map[string][]entry)
	colRows, err := c.Query(`SELECT tbl, col FROM dl_cols`)
	if err != nil {
		return 0, err
	}
	if err := c.Commit(); err != nil {
		return 0, err
	}
	for _, cr := range colRows {
		table, col := cr[0].Text(), cr[1].Text()
		if _, err := db.eng.Catalog().Table(table); err != nil {
			continue // table dropped
		}
		rows, err := c.Query("SELECT " + col + ", " + recidCol(col) + " FROM " + table)
		if err != nil {
			return 0, err
		}
		if err := c.Commit(); err != nil {
			return 0, err
		}
		for _, r := range rows {
			if r[0].IsNull() || r[0].Text() == "" {
				continue
			}
			server, path, err := ParseURL(r[0].Text())
			if err != nil {
				continue
			}
			rec := int64(0)
			if !r[1].IsNull() {
				rec = r[1].Int64()
			}
			// A clustered name resolves to the member owning the path now
			// (Reconcile runs quiesced, so no fence interaction); the stored
			// URL keeps the logical name for the NULL-out match.
			phys := server
			if m := db.Cluster(server); m != nil {
				phys = m.Owner(path)
			}
			byServer[phys] = append(byServer[phys], entry{table: table, col: col, url: URL(server, path), recID: rec})
		}
	}

	nulled := 0
	for server, entries := range byServer {
		dial, err := db.dialer(server)
		if err != nil {
			return nulled, err
		}
		client, err := dial()
		if err != nil {
			return nulled, fmt.Errorf("hostdb: reconcile: DLFM %s unreachable: %w", server, err)
		}
		req := rpc.ReconcileReq{}
		for _, e := range entries {
			_, path, _ := ParseURL(e.url)
			req.Names = append(req.Names, path)
			req.RecIDs = append(req.RecIDs, e.recID)
		}
		resp, callErr := client.Call(req)
		client.Close()
		if callErr != nil {
			return nulled, fmt.Errorf("hostdb: reconcile at %s: %w", server, callErr)
		}
		if !resp.OK() {
			return nulled, fmt.Errorf("hostdb: reconcile at %s: %s: %s", server, resp.Code, resp.Msg)
		}
		// Null out unresolvable references.
		bad := make(map[string]bool, len(resp.Names))
		for _, n := range resp.Names {
			bad[n] = true
		}
		for _, e := range entries {
			_, path, _ := ParseURL(e.url)
			if !bad[path] {
				continue
			}
			if _, err := c.Exec("UPDATE "+e.table+" SET "+e.col+" = NULL, "+recidCol(e.col)+" = NULL WHERE "+e.col+" = ?",
				value.Str(e.url)); err != nil {
				c.Rollback()
				return nulled, err
			}
			nulled++
		}
		if c.InTxn() {
			if err := c.Commit(); err != nil {
				return nulled, err
			}
		}
	}
	return nulled, nil
}

// DropTable drops a host table; its DATALINK columns' file groups are
// deleted at every server that holds files, and the Delete Group daemon
// unlinks the files asynchronously after commit (Section 3.5).
func (db *DB) DropTable(table string) error {
	s := db.Session()
	defer s.Close()
	if err := s.begin(); err != nil {
		return err
	}

	cols, err := db.datalinkCols(s.conn, table)
	if err != nil {
		return err
	}
	for _, col := range cols {
		rows, err := s.conn.Query(`SELECT server FROM dl_grpsrv WHERE grp = ?`, value.Int(col.grp))
		if err != nil {
			s.Rollback()
			return err
		}
		for _, r := range rows {
			p, err := s.part(r[0].Text())
			if err != nil {
				s.Rollback()
				return err
			}
			resp, callErr := p.client.Call(rpc.DeleteGroupReq{Txn: s.txn, Grp: col.grp})
			if callErr != nil || !resp.OK() {
				s.Rollback()
				if callErr != nil {
					return callErr
				}
				return fmt.Errorf("hostdb: delete group %d at %s: %s", col.grp, r[0].Text(), resp.Msg)
			}
		}
		if _, err := s.conn.Exec(`DELETE FROM dl_grpsrv WHERE grp = ?`, value.Int(col.grp)); err != nil {
			s.Rollback()
			return err
		}
	}
	if _, err := s.conn.Exec(`DELETE FROM dl_cols WHERE tbl = ?`, value.Str(table)); err != nil {
		s.Rollback()
		return err
	}
	// DDL autocommits in the engine; do it after the metadata cleanup so a
	// failed cleanup leaves the table intact.
	if _, err := s.conn.Exec("DROP TABLE " + table); err != nil {
		s.Rollback()
		return err
	}
	return s.Commit()
}

// Load bulk-inserts rows into a DATALINK table using a single host
// transaction whose DLFM sub-transactions run in batched mode: DLFM
// locally commits every LoadBatchN operations to keep the log and lock
// list bounded (Section 4). cols names the target columns (DATALINK
// columns included), in the order of each row's values. Each row goes down
// the same path as a one-row INSERT statement.
func (db *DB) Load(table string, cols []string, rows []value.Row) (int64, error) {
	s := db.Session()
	defer s.Close() // rolls back whatever an early return leaves open
	s.batched = true
	if err := s.begin(); err != nil {
		return 0, err
	}
	ins := sql.Insert{
		Table: strings.ToLower(table),
		Cols:  make([]string, len(cols)),
		Vals:  make([]sql.Expr, len(cols)),
	}
	for i, c := range cols {
		ins.Cols[i], ins.Vals[i] = strings.ToLower(c), sql.Param{Idx: i}
	}
	var loaded int64
	for _, row := range rows {
		if len(row) != len(cols) {
			return loaded, fmt.Errorf("hostdb: load row has %d values for %d columns", len(row), len(cols))
		}
		if _, err := s.execInsert(ins, row); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, s.Commit()
}
