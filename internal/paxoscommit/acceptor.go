// The acceptor side of Paxos Commit: 2F+1 of these hold the replicated
// commit decision. Each acceptor is an rpc.AgentFactory (served exactly
// like a DLFM child agent) whose per-instance promise/accept state is
// durably logged through internal/wal before any reply leaves the process,
// so a restarted acceptor rejoins with its promises intact — the property
// Paxos's safety argument leans on.
package paxoscommit

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/rpc"
	"repro/internal/value"
	"repro/internal/wal"
)

// fpAcceptorLag models a slow acceptor: arm it with Action{Delay: d} to
// stall every promise/accept/read this acceptor handles (detail is the
// request name, so Match can target accepts only).
var fpAcceptorLag = fault.P("paxos.acceptor.lag")

// instState is one Paxos instance's acceptor-side state.
type instState struct {
	promised int64 // highest ballot promised; -1 = none yet
	accBal   int64 // ballot of the accepted value; -1 = nothing accepted
	accVal   string
}

type instKey struct {
	txn  int64
	part string
}

// Acceptor is one member of the 2F+1 acceptor set. It is shared by every
// connection served off it (NewAgent returns thin per-connection handles).
type Acceptor struct {
	name string

	mu   sync.Mutex
	log  *wal.Log
	inst map[instKey]*instState

	promises int64 // stats: promises granted
	accepts  int64 // stats: values accepted
	rejects  int64 // stats: stale-ballot rejections
}

// NewAcceptor opens (or reopens) an acceptor over the log at path; "" keeps
// the log in memory with durability simulated, the harness configuration.
// Reopening a path replays the log so promises made before a crash still
// bind the restarted acceptor.
func NewAcceptor(name, path string) (*Acceptor, error) {
	log, err := wal.Open(path, 0)
	if err != nil {
		return nil, fmt.Errorf("paxoscommit: acceptor %s: %w", name, err)
	}
	a := &Acceptor{name: name, log: log, inst: make(map[instKey]*instState)}
	if err := a.replay(); err != nil {
		log.Close()
		return nil, err
	}
	return a, nil
}

// Log-record layout: Txn stays 0 (the acceptor log has no transaction
// lifecycle, and a nonzero Txn would pin wal active-space tracking
// forever); the payload row is {txn, part, kind, val} with the ballot in
// RID. kind is "promise", "accept", or "forget". The caller forces the log
// before it replies.
func (a *Acceptor) appendLocked(txn int64, part, kind string, bal int64, val string) error {
	rec := wal.Record{
		Type:  wal.RecInsert,
		Table: "paxos_acceptor",
		RID:   bal,
		After: value.Row{value.Int(txn), value.Str(part), value.Str(kind), value.Str(val)},
	}
	_, err := a.log.Append(rec)
	return err
}

// logLocked appends one record and forces it.
func (a *Acceptor) logLocked(txn int64, part, kind string, bal int64, val string) error {
	if err := a.appendLocked(txn, part, kind, bal, val); err != nil {
		return err
	}
	return a.log.Sync()
}

func (a *Acceptor) replay() error {
	recs, err := a.log.Records()
	if err != nil {
		return fmt.Errorf("paxoscommit: acceptor %s replay: %w", a.name, err)
	}
	for _, rec := range recs {
		if rec.Table != "paxos_acceptor" || len(rec.After) != 4 {
			continue
		}
		txn, part := rec.After[0].Int64(), rec.After[1].Text()
		kind, val := rec.After[2].Text(), rec.After[3].Text()
		switch kind {
		case "forget":
			for k := range a.inst {
				if k.txn == txn {
					delete(a.inst, k)
				}
			}
		case "promise":
			st := a.instFor(txn, part)
			if rec.RID > st.promised {
				st.promised = rec.RID
			}
		case "accept":
			st := a.instFor(txn, part)
			if rec.RID >= st.promised {
				st.promised = rec.RID
			}
			if rec.RID >= st.accBal {
				st.accBal, st.accVal = rec.RID, val
			}
		}
	}
	return nil
}

func (a *Acceptor) instFor(txn int64, part string) *instState {
	k := instKey{txn, part}
	st := a.inst[k]
	if st == nil {
		st = &instState{promised: -1, accBal: -1}
		a.inst[k] = st
	}
	return st
}

// Name returns the acceptor's configured name.
func (a *Acceptor) Name() string { return a.name }

// Stats returns (promises granted, values accepted, stale rejections).
func (a *Acceptor) Stats() (promises, accepts, rejects int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promises, a.accepts, a.rejects
}

// Instances returns how many undecided-or-unforgotten instances the
// acceptor currently holds (memory-bound diagnostics).
func (a *Acceptor) Instances() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.inst)
}

// Close releases the acceptor's log.
func (a *Acceptor) Close() error { return a.log.Close() }

// NewAgent returns a per-connection handle; all state lives on the shared
// Acceptor. Implements rpc.AgentFactory.
func (a *Acceptor) NewAgent() rpc.Agent { return acceptorAgent{a} }

type acceptorAgent struct{ a *Acceptor }

func (g acceptorAgent) Close() {}

func (g acceptorAgent) Handle(req any) rpc.Response {
	if err := fpAcceptorLag.FireDetail(rpc.Name(req)); err != nil {
		return rpc.Response{Code: "severe", Msg: err.Error()}
	}
	switch r := req.(type) {
	case rpc.PaxosPromiseReq:
		return g.a.promise(r)
	case rpc.PaxosAcceptReq:
		return g.a.accept(r)
	case rpc.PaxosReadReq:
		return g.a.read(r)
	case rpc.PaxosForgetReq:
		return g.a.forget(r)
	case rpc.PingReq:
		return rpc.Response{Msg: g.a.name}
	default:
		return rpc.Response{Code: "severe",
			Msg: fmt.Sprintf("acceptor %s: unsupported request %s", g.a.name, rpc.Name(req))}
	}
}

// promise is phase 1b. A success reply reports the instance's accepted
// value, if any, as Names=[val] / RecIDs=[ballot]; a "stale" reply carries
// the promised ballot in N so the caller can pick a higher one.
func (a *Acceptor) promise(r rpc.PaxosPromiseReq) rpc.Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.instFor(r.Txn, r.Part)
	if r.Bal <= st.promised {
		a.rejects++
		return rpc.Response{Code: "stale", N: st.promised,
			Msg: fmt.Sprintf("promised %d >= %d", st.promised, r.Bal)}
	}
	if err := a.logLocked(r.Txn, r.Part, "promise", r.Bal, ""); err != nil {
		return rpc.Response{Code: "severe", Msg: err.Error()}
	}
	st.promised = r.Bal
	a.promises++
	resp := rpc.Response{N: r.Bal}
	if st.accBal >= 0 {
		resp.Names = []string{st.accVal}
		resp.RecIDs = []int64{st.accBal}
	}
	return resp
}

// accept is phase 2b for a bundle of instances (see rpc.PaxosAcceptReq for
// the reply). Ballot 0 is the leader fast path: an instance accepts unless
// a recovery learner already promised past it. Every accepted instance is
// logged, then one Sync covers the bundle; the in-memory state changes only
// once the log is forced.
func (a *Acceptor) accept(r rpc.PaxosAcceptReq) rpc.Response {
	if len(r.Parts) != len(r.Vals) {
		return rpc.Response{Code: "severe",
			Msg: fmt.Sprintf("accept bundle has %d parts and %d values", len(r.Parts), len(r.Vals))}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	resp := rpc.Response{N: r.Bal, RecIDs: make([]int64, len(r.Parts))}
	accepted := make([]*instState, len(r.Parts))
	logged := 0
	for i, part := range r.Parts {
		st := a.instFor(r.Txn, part)
		if r.Bal < st.promised {
			a.rejects++
			resp.RecIDs[i] = st.promised
			if resp.Code == "" {
				resp.Code, resp.N = "stale", st.promised
				resp.Msg = fmt.Sprintf("%s: promised %d > %d", part, st.promised, r.Bal)
			}
			continue
		}
		if err := a.appendLocked(r.Txn, part, "accept", r.Bal, r.Vals[i]); err != nil {
			return rpc.Response{Code: "severe", Msg: err.Error()}
		}
		resp.RecIDs[i] = r.Bal
		accepted[i] = st
		logged++
	}
	if logged > 0 {
		if err := a.log.Sync(); err != nil {
			return rpc.Response{Code: "severe", Msg: err.Error()}
		}
	}
	for i, st := range accepted {
		if st != nil {
			st.promised = r.Bal
			st.accBal, st.accVal = r.Bal, r.Vals[i]
			a.accepts++
		}
	}
	return resp
}

// read reports every instance of the transaction with an accepted value:
// Names = parts, Owners = values, RecIDs = ballots.
func (a *Acceptor) read(r rpc.PaxosReadReq) rpc.Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	var resp rpc.Response
	for k, st := range a.inst {
		if k.txn != r.Txn || st.accBal < 0 {
			continue
		}
		resp.Names = append(resp.Names, k.part)
		resp.Owners = append(resp.Owners, st.accVal)
		resp.RecIDs = append(resp.RecIDs, st.accBal)
	}
	return resp
}

// forget discards the transaction's instances once its outcome has been
// applied everywhere. Durable like everything else: a replayed log must not
// resurrect forgotten state.
func (a *Acceptor) forget(r rpc.PaxosForgetReq) rpc.Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.logLocked(r.Txn, "", "forget", 0, ""); err != nil {
		return rpc.Response{Code: "severe", Msg: err.Error()}
	}
	var n int64
	for k := range a.inst {
		if k.txn == r.Txn {
			delete(a.inst, k)
			n++
		}
	}
	return rpc.Response{N: n}
}
