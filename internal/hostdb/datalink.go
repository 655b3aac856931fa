package hostdb

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fsim"
	"repro/internal/sql"
	"repro/internal/value"
)

// Datalink URLs name a file on a managed server: dlfs://<server>/<path>.
const urlScheme = "dlfs://"

// ParseURL splits a DATALINK value into server and absolute path. The
// server component may carry a port (host:port). Duplicate slashes in the
// path collapse to one, so the same file compares equal however the URL
// was spelled; URLs with an empty server ("dlfs:///a") or an empty path
// ("dlfs://srv", "dlfs://srv/") are rejected.
func ParseURL(url string) (server, path string, err error) {
	if !strings.HasPrefix(url, urlScheme) {
		return "", "", fmt.Errorf("hostdb: datalink value %q is not a %s URL", url, urlScheme)
	}
	rest := url[len(urlScheme):]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return "", "", fmt.Errorf("hostdb: datalink value %q lacks a path", url)
	}
	server, path = rest[:slash], canonPath(rest[slash:])
	if server == "" {
		return "", "", fmt.Errorf("hostdb: datalink value %q lacks a server", url)
	}
	if path == "/" {
		return "", "", fmt.Errorf("hostdb: datalink value %q lacks a path", url)
	}
	return server, path, nil
}

// canonPath collapses runs of slashes; the no-op case stays allocation-free.
func canonPath(p string) string {
	if !strings.Contains(p, "//") {
		return p
	}
	var b strings.Builder
	b.Grow(len(p))
	var prev byte
	for i := 0; i < len(p); i++ {
		if p[i] == '/' && prev == '/' {
			continue
		}
		b.WriteByte(p[i])
		prev = p[i]
	}
	return b.String()
}

// URL composes a DATALINK value; a path missing its leading slash gets one,
// so URL(ParseURL(u)) round-trips and URL(srv, "a/b") is still well formed.
func URL(server, path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return urlScheme + server + path
}

// recidCol names the hidden column that stores the link recovery id next
// to each DATALINK column (the paper's host keeps the recovery id with the
// datalink value; we keep it in a shadow column).
func recidCol(col string) string { return col + "__recid" }

// dlCol is the registry entry for one DATALINK column.
type dlCol struct {
	name     string
	grp      int64
	recovery bool
	fullctl  bool
}

// CreateTable executes DDL that may declare DATALINK columns. The DDL
// names them as VARCHAR columns; dlCols identifies which are DATALINK and
// with what options. The datalink engine adds the hidden recovery-id
// column for each and records the column→file-group mapping.
func (db *DB) CreateTable(ddl string, dlCols ...DatalinkCol) error {
	stmt, err := sql.Parse(ddl)
	if err != nil {
		return err
	}
	ct, isCreate := stmt.(sql.CreateTable)
	if !isCreate {
		return fmt.Errorf("hostdb: CreateTable requires CREATE TABLE DDL, got %T", stmt)
	}
	declared := make(map[string]value.Kind, len(ct.Cols))
	for _, c := range ct.Cols {
		declared[c.Name] = c.Type
	}
	for _, dc := range dlCols {
		kind, exists := declared[strings.ToLower(dc.Name)]
		if !exists {
			return fmt.Errorf("hostdb: DATALINK column %q not declared in DDL", dc.Name)
		}
		if kind != value.KindString {
			return fmt.Errorf("hostdb: DATALINK column %q must be VARCHAR", dc.Name)
		}
	}

	// A shadow recovery-id column per DATALINK column.
	for _, dc := range dlCols {
		ct.Cols = append(ct.Cols, sql.ColDef{Name: recidCol(strings.ToLower(dc.Name)), Type: value.KindInt})
	}

	c := db.eng.Connect()
	if _, err := c.ExecStmt(ct); err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed && c.InTxn() {
			c.Rollback()
		}
	}()
	for _, dc := range dlCols {
		grp := grpSeq.Add(1)
		rec, full := int64(0), int64(0)
		if dc.Recovery {
			rec = 1
		}
		if dc.FullControl {
			full = 1
		}
		if _, err := c.Exec(`INSERT INTO dl_cols (tbl, col, grp, recovery, fullctl) VALUES (?, ?, ?, ?, ?)`,
			value.Str(ct.Name), value.Str(strings.ToLower(dc.Name)),
			value.Int(grp), value.Int(rec), value.Int(full)); err != nil {
			return err
		}
	}
	committed = true
	if !c.InTxn() {
		return nil // no DATALINK columns: the DDL already autocommitted
	}
	return c.Commit()
}

// datalinkCols returns the registry entries for table, empty when the
// table has no DATALINK columns.
func (db *DB) datalinkCols(conn *engine.Conn, table string) ([]dlCol, error) {
	rows, err := conn.QueryStmt(selDatalinkCols, value.Str(table))
	if err != nil {
		return nil, err
	}
	out := make([]dlCol, 0, len(rows))
	for _, r := range rows {
		out = append(out, dlCol{
			name:     r[0].Text(),
			grp:      r[1].Int64(),
			recovery: r[2].Int64() == 1,
			fullctl:  r[3].Int64() == 1,
		})
	}
	return out, nil
}

// dlColNamed finds name among a table's DATALINK columns.
func dlColNamed(cols []dlCol, name string) (dlCol, bool) {
	for _, c := range cols {
		if c.name == name {
			return c, true
		}
	}
	return dlCol{}, false
}

// MintToken signs a read token for a full-access-control file, as the
// host does when an application SELECTs the DATALINK value.
func (db *DB) MintToken(path string) string {
	if len(db.cfg.TokenSecret) == 0 {
		return ""
	}
	db.stats.TokensMinted.Add(1)
	ttl := db.cfg.TokenTTL
	if ttl <= 0 {
		ttl = time.Hour
	}
	return fsim.MintToken(db.cfg.TokenSecret, path, time.Now().Add(ttl).Unix())
}
