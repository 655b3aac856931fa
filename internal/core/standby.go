package core

import (
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/rpc"
	"repro/internal/value"
	"repro/internal/wal"
)

// fpReplShip fires on the primary before a replication fetch is served
// (the ship window). Armed with an error it starves the standby; armed
// with a delay it opens a replication-lag window deterministically.
var fpReplShip = fault.P("repl.ship")

// replFetchDefaultMax bounds one ReplFetch batch when the client does not.
const replFetchDefaultMax = 512

// replFetch serves one replication fetch from the local write-ahead log:
// every record with LSN >= FromLSN, capped per batch, plus the log's next
// LSN so the standby can measure its lag. The fetch is read-only and
// idempotent — re-issuing it after a transport failure re-reads the same
// records.
func (s *Server) replFetch(r rpc.ReplFetchReq) rpc.Response {
	if err := fpReplShip.Fire(); err != nil {
		return fail(err)
	}
	max := r.Max
	if max <= 0 {
		max = replFetchDefaultMax
	}
	recs, err := s.db.WAL().ReadFrom(r.FromLSN)
	if err != nil {
		return fail(err)
	}
	if len(recs) > max {
		recs = recs[:max]
	}
	s.stats.ReplFetches.Add(1)
	return rpc.Response{Data: wal.EncodeRecords(recs), LSN: s.db.WAL().NextLSN(), N: int64(len(recs))}
}

// isLinkedStandby answers the IsLinked upcall from the replicated metadata.
// The standby has no bound SQL programs and no Upcall daemon, so the query
// runs ad hoc on the agent's own connection; locks are released right away
// with a commit, like the daemon's answer path.
func (s *Server) isLinkedStandby(conn *engine.Conn, name string) rpc.Response {
	rows, err := conn.Query(sqlIsLinked, value.Str(name))
	if err != nil {
		if conn.InTxn() {
			conn.Rollback()
		}
		return fail(err)
	}
	if err := conn.Commit(); err != nil {
		return fail(err)
	}
	if len(rows) == 0 {
		return rpc.Response{}
	}
	resp := rpc.Response{Linked: true}
	grows, err := conn.Query(sqlGroupLookup, value.Int(rows[0][0].Int64()))
	if err == nil {
		conn.Commit()
		if len(grows) > 0 {
			resp.FullControl = grows[0][1].Int64() == 1
		}
	} else if conn.InTxn() {
		conn.Rollback()
	}
	return resp
}
