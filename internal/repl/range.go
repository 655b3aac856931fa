package repl

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// Bounded-range log shipping: the cluster mover reuses the LogFeed protocol
// to watch a source member's WAL from a snapshot LSN (drain detection
// during a fenced cutover), and tests ship an explicit [from, cutover)
// range into a fresh standby to prove redo-apply stops cleanly at the
// cutover LSN.

// NextLSN asks a LogFeed endpoint for its current end-of-log LSN without
// transferring any records.
func NextLSN(client *rpc.Client) (int64, error) {
	resp, err := client.Call(rpc.ReplFetchReq{FromLSN: math.MaxInt64, Max: 1})
	if err != nil {
		return 0, err
	}
	if !resp.OK() {
		return 0, fmt.Errorf("repl: next-LSN probe refused: %s: %s", resp.Code, resp.Msg)
	}
	return resp.LSN, nil
}

// FetchRange pulls every WAL record with from <= LSN < to from a LogFeed
// endpoint, batching by batchMax (0 = server default). It stops early at
// the feed's current end of log; the second return is the feed's next LSN
// at the final fetch, so callers can tell how far the log had grown.
func FetchRange(client *rpc.Client, from, to int64, batchMax int) ([]wal.Record, int64, error) {
	var out []wal.Record
	cur := from
	for cur < to {
		resp, err := client.Call(rpc.ReplFetchReq{FromLSN: cur, Max: batchMax})
		if err != nil {
			return out, 0, err
		}
		if !resp.OK() {
			return out, 0, fmt.Errorf("repl: range fetch refused: %s: %s", resp.Code, resp.Msg)
		}
		recs, err := wal.DecodeRecords(resp.Data)
		if err != nil {
			return out, 0, err
		}
		if len(recs) == 0 {
			return out, resp.LSN, nil // caught up with the feed
		}
		for _, r := range recs {
			if r.LSN >= to {
				return out, resp.LSN, nil
			}
			out = append(out, r)
			cur = r.LSN + 1
		}
	}
	return out, cur, nil
}

// ApplyRange redo-applies records with LSN < cutover into srv (a fenced
// core.NewStandby instance) through the same transaction-reassembly rules
// the streaming standby uses. Transactions still incomplete at the cutover
// — data records without their commit, abort, or prepare — are dropped,
// not half-applied. Returns the highest LSN applied.
func ApplyRange(srv *core.Server, recs []wal.Record, cutover int64) (int64, error) {
	ap := newApplier(srv.Tracer())
	db := srv.DB()
	var last int64
	for _, r := range recs {
		if r.LSN >= cutover {
			break
		}
		if err := ap.apply(db, r); err != nil {
			return last, fmt.Errorf("repl: apply LSN %d (%s txn %d): %w", r.LSN, r.Type, r.Txn, err)
		}
		last = r.LSN
	}
	return last, nil
}

// applier holds the transaction-reassembly state shared by the streaming
// standby and the bounded-range apply: data records buffer per transaction
// until their commit/abort/prepare decides them.
type applier struct {
	tracer  *obs.Tracer
	pending map[int64][]wal.Record
	indoubt map[int64]bool
	txns    *obs.Counter // optional applied-transaction counter
}

func newApplier(tracer *obs.Tracer) *applier {
	return &applier{
		tracer:  tracer,
		pending: make(map[int64][]wal.Record),
		indoubt: make(map[int64]bool),
	}
}

// apply feeds one record through the reassembly rules: data records buffer
// per transaction; commit/abort/prepare apply the buffered transaction
// through the engine's recovery-path primitives; DDL applies immediately
// (it is autocommitted on the primary).
func (ap *applier) apply(db *engine.DB, r wal.Record) error {
	switch r.Type {
	case wal.RecBegin, wal.RecCheckpoint:
		return nil
	case wal.RecCreateTable, wal.RecCreateIndex, wal.RecDropTable:
		return db.ApplyDDL(r)
	case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
		ap.pending[r.Txn] = append(ap.pending[r.Txn], r)
		return nil
	case wal.RecPrepare:
		if err := db.ApplyPrepared(r.Txn, ap.pending[r.Txn]); err != nil {
			return err
		}
		delete(ap.pending, r.Txn)
		ap.indoubt[r.Txn] = true
		ap.countTxn()
		return nil
	case wal.RecCommit:
		// Redo-apply joins the originating transaction's trace (the WAL
		// record carries the primary engine's txn id), so apply work shows
		// up in the same span tree as the commit that shipped it.
		sp := ap.tracer.StartSpanInTrace(r.Txn, 0, "repl", "apply")
		if ap.indoubt[r.Txn] {
			delete(ap.indoubt, r.Txn)
			err := db.ResolveIndoubt(r.Txn, true)
			sp.Attr("kind", "indoubt_commit").End()
			return err
		}
		n := len(ap.pending[r.Txn])
		err := db.ApplyCommitted(r.Txn, ap.pending[r.Txn])
		if err == nil {
			delete(ap.pending, r.Txn)
			ap.countTxn()
		}
		sp.Attr("records", strconv.Itoa(n)).End()
		return err
	case wal.RecAbort:
		delete(ap.pending, r.Txn)
		if ap.indoubt[r.Txn] {
			delete(ap.indoubt, r.Txn)
			return db.ResolveIndoubt(r.Txn, false)
		}
		return nil
	default:
		return fmt.Errorf("repl: unknown record type %v", r.Type)
	}
}

func (ap *applier) countTxn() {
	if ap.txns != nil {
		ap.txns.Add(1)
	}
}
