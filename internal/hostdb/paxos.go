package hostdb

import (
	"sync"

	"repro/internal/paxoscommit"
	"repro/internal/rpc"
)

// Paxos Commit as the host's commit protocol (Gray & Lamport): the
// decision is chosen by a majority of 2F+1 acceptors instead of hardened in
// the coordinator's log, so any participant's learner — or the host itself,
// recovering its own interrupted commit — computes the outcome without the
// coordinator, and no single failure wedges a prepared participant. The
// commit path is decide's atAcceptors case (commit.go); this file holds the
// acceptor registry and the host's learner.

// hostPart is the instance name of the host database's own branch in the
// transaction's Paxos bundle: the host is a participant too (its branch is
// hardened with PrepareTxn before the accept round), so the outcome
// function covers it like any DLFM.
const hostPart = "@host"

// hostLearnerID is the host's learner identity; DLFM learner daemons get
// IDs 2..len (wired by the stack), all sharing paxoscommit.DefaultStride.
const hostLearnerID = 1

// acceptorEntry is one registered acceptor endpoint, dialed lazily and
// shared by every session and daemon; a transport error drops the cached
// client so the next call re-dials.
type acceptorEntry struct {
	name string
	dial Dialer

	mu     sync.Mutex
	client *rpc.Client
}

// Call implements paxoscommit.Caller.
func (e *acceptorEntry) Call(req any) (rpc.Response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.client == nil {
		c, err := e.dial()
		if err != nil {
			return rpc.Response{}, err
		}
		e.client = c
	}
	resp, err := e.client.Call(req)
	if err != nil {
		e.client.Close()
		e.client = nil
	}
	return resp, err
}

// RegisterAcceptor makes a Paxos Commit acceptor reachable. Register an
// odd number (2F+1) before the first paxos commit; the set must be the
// same for every host and DLFM learner of the deployment.
func (db *DB) RegisterAcceptor(name string, dial Dialer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.acceptors = append(db.acceptors, &acceptorEntry{name: name, dial: dial})
}

// acceptorCallers snapshots the acceptor set in registration order.
func (db *DB) acceptorCallers() []paxoscommit.Caller {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]paxoscommit.Caller, len(db.acceptors))
	for i, e := range db.acceptors {
		out[i] = e
	}
	return out
}

// learner builds the host's recovery learner over the registered acceptors.
func (db *DB) learner() *paxoscommit.Learner {
	return &paxoscommit.Learner{
		Acceptors: db.acceptorCallers(),
		ID:        hostLearnerID,
		Stride:    paxoscommit.DefaultStride,
	}
}

// LearnOutcome determines txn's outcome ("commit"/"abort") from the
// acceptors alone — the entry point indoubt resolution and the DLFM-side
// learner closures use.
func (db *DB) LearnOutcome(txn int64) (string, error) {
	return db.learner().Outcome(txn)
}
