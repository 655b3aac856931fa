// Package paxoscommit implements Gray & Lamport's Paxos Commit (Consensus
// on Transaction Commit): the commit decision is replicated across 2F+1
// acceptors instead of living only in the coordinator's log, so any
// participant — or a recovering standby host — can learn a transaction's
// outcome without the coordinator. Coordinator death after prepare no
// longer wedges participant locks, which is classic 2PC's blocking window.
//
// One transaction is a bundle of Paxos instances over the same acceptor
// set: one instance per participant whose value is that participant's vote
// ("prepared" or "aborted"), plus a registrar instance whose value is the
// participant list itself (or the abort sentinel). The outcome is a
// deterministic function of chosen instance values:
//
//	commit  ⇔  the registrar chose a participant list L, and every
//	           instance named in L chose "prepared"
//	abort   ⇔  anything else that is decided
//
// The leader (the committing host session) uses the ballot-0 fast path:
// having collected the prepare votes itself, it skips phase 1 and sends
// each acceptor one ballot-0 accept carrying every instance — one message
// delay over plain 2PC's decision write, and the decision survives F
// acceptor failures. A learner that
// suspects the leader dead runs full Paxos at a higher ballot per instance,
// proposing "aborted" (or the registrar abort sentinel) for any instance
// with no accepted value; Paxos's invariant guarantees it converges on the
// same outcome the leader chose, if the leader chose one.
//
// The package is transport-agnostic: leaders and learners drive acceptors
// through the Caller interface, which *rpc.Client satisfies, and the
// Acceptor side is an rpc.AgentFactory served like any DLFM.
package paxoscommit

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/rpc"
)

// RegistrarPart names the registrar instance of a transaction: its chosen
// value is the comma-joined sorted participant list, or AbortSentinel.
const RegistrarPart = "@parts"

// Instance values. A participant instance chooses ValPrepared or
// ValAborted; the registrar chooses a participant list or AbortSentinel.
const (
	ValPrepared = "prepared"
	ValAborted  = "aborted"

	// AbortSentinel is the registrar value a recovery learner proposes when
	// the leader never registered a participant list: the transaction can
	// never commit, so it is aborted by fiat.
	AbortSentinel = "-"
)

// Outcomes returned by Learner.Outcome.
const (
	OutcomeCommit = "commit"
	OutcomeAbort  = "abort"
)

// DefaultStride is the ballot stride every learner of a deployment should
// share: ballot = attempt*Stride + ID keeps concurrent learners' ballots
// disjoint as long as each learner's ID is unique in [1, Stride).
const DefaultStride = 64

var (
	// ErrPreempted: an acceptor had promised a higher ballot — a recovery
	// learner is (or was) active for this transaction. The caller should
	// learn the outcome instead of retrying its own proposal.
	ErrPreempted = errors.New("paxoscommit: preempted by a higher ballot")

	// ErrNoQuorum: fewer than F+1 acceptors were reachable; the outcome
	// cannot be decided or learned until they return.
	ErrNoQuorum = errors.New("paxoscommit: no acceptor quorum reachable")
)

// Caller is the transport through which leaders and learners drive one
// acceptor. *rpc.Client satisfies it.
type Caller interface {
	Call(req any) (rpc.Response, error)
}

// EncodeParts canonicalises a participant list into the registrar's
// instance value: sorted, comma-joined.
func EncodeParts(parts []string) string {
	s := append([]string(nil), parts...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// DecodeParts is the inverse of EncodeParts. The abort sentinel (and the
// empty string) decode to nil: no list was ever registered.
func DecodeParts(v string) []string {
	if v == "" || v == AbortSentinel {
		return nil
	}
	return strings.Split(v, ",")
}

// Quorum returns the acceptor majority F+1 for a 2F+1 acceptor set.
func Quorum(nAcceptors int) int { return nAcceptors/2 + 1 }

// stale builds the error for a rejected promise/accept round.
func stale(txn int64, part string, bal int64) error {
	return fmt.Errorf("%w (txn %d instance %q ballot %d)", ErrPreempted, txn, part, bal)
}

// noQuorum builds the error for an unreachable acceptor majority.
func noQuorum(txn int64, got, need int) error {
	return fmt.Errorf("%w (txn %d: %d of %d needed)", ErrNoQuorum, txn, got, need)
}
