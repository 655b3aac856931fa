// Package rpc implements the remote-procedure-call mechanism between the
// host database's datalink engine and DLFM (Section 2: "Invoking the API's
// is through remote procedure call mechanism").
//
// Each connection is served by one DLFM child agent and carries one request
// at a time — the same serialization the paper relies on when it analyses
// the asynchronous-commit distributed deadlock ("T11 is blocked on message
// send as the DLFM child is still doing the commit processing for T1",
// Section 4; experiment E6).
package rpc

import "reflect"

// Request messages. The set mirrors the DLFM API surface the paper
// describes: transaction control (Section 3.3), link/unlink with the
// in_backout flag (Section 3.2), group management for DROP TABLE (Section
// 3.5), upcalls (Section 3.5), and the coordinated backup/restore/reconcile
// calls (Section 3.4).

// BeginTxnReq starts a DLFM sub-transaction in the host transaction's
// context. Batched marks a long-running utility transaction that DLFM
// should locally commit every BatchN operations (Section 4's log-full
// lesson). An ordinary transaction needs no BeginTxnReq: the agent adopts
// the transaction id of the first request that carries one.
type BeginTxnReq struct {
	Txn     int64
	Batched bool
	BatchN  int
}

// LinkFileReq links Name under group Grp with recovery id RecID. With
// InBackout set it instead undoes a link performed earlier in the same
// transaction (statement-level rollback).
type LinkFileReq struct {
	Txn       int64
	Name      string
	RecID     int64
	Grp       int64
	InBackout bool
}

// UnlinkFileReq unlinks Name. With InBackout set it restores an entry this
// transaction unlinked back to linked state.
type UnlinkFileReq struct {
	Txn       int64
	Name      string
	RecID     int64
	Grp       int64
	InBackout bool
}

// PrepareReq is phase 1 of the two-phase commit: DLFM hardens the
// transaction's changes in its local database and votes.
type PrepareReq struct{ Txn int64 }

// CommitReq is phase 2 commit; DLFM retries internally until it succeeds.
type CommitReq struct{ Txn int64 }

// AbortReq is phase 2 abort (or a forward-progress abort before prepare).
type AbortReq struct{ Txn int64 }

// CreateGroupReq registers a file group — one per DATALINK column
// (Section 3: "A File Group corresponds to all files that are referenced
// by a particular datalink column of an SQL table").
type CreateGroupReq struct {
	Txn         int64
	Grp         int64
	Recovery    bool // DLFM archives and restores these files
	FullControl bool // reads require a database token
}

// DeleteGroupReq marks a file group deleted (DROP TABLE); the files are
// unlinked asynchronously by the Delete Group daemon after commit.
type DeleteGroupReq struct {
	Txn int64
	Grp int64
}

// IsLinkedReq is the DLFF upcall.
type IsLinkedReq struct{ Name string }

// ListIndoubtReq asks for transactions prepared but not yet resolved; the
// host's indoubt-resolution daemon polls with it after a failure. With Kept
// it lists instead the outcomes the DLFM keeps until the host forgets them
// (see OnePhaseCommitReq and QueryOutcomeReq).
type ListIndoubtReq struct{ Kept bool }

// ForgetReq deletes kept outcomes the host no longer needs: those in Txns
// (the sweep, for outcomes whose connection ended first) and the one the
// connection itself last committed in one phase (a closing session).
type ForgetReq struct{ Txns []int64 }

// WaitArchiveReq is issued by the host Backup utility: all pending archive
// copies with recovery id <= RecID are promoted to high priority, and the
// call returns once they are on the archive server (Section 3.4).
type WaitArchiveReq struct{ RecID int64 }

// RegisterBackupReq records a successful host backup (its id and recovery-
// id watermark) so the Garbage Collector can apply the keep-last-N policy.
type RegisterBackupReq struct {
	BackupID int64
	RecID    int64
}

// RestoreToReq tells DLFM the host database was restored to the backup with
// the given recovery-id watermark: entries linked before and unlinked after
// the watermark return to linked state, entries linked after it are
// removed, and missing files are retrieved from the archive server.
type RestoreToReq struct{ RecID int64 }

// ReconcileReq carries the host's view of every linked file on this server
// (name and link recovery id); DLFM loads it into a temp table, compares,
// and repairs its metadata. The response lists files the host references
// that DLFM cannot produce (the host should null those columns).
type ReconcileReq struct {
	Names  []string
	RecIDs []int64
}

// MigrateManifestReq asks a DLFM for its current linked-file inventory
// (name, recovery id, group, file owner) — the cluster mover's unit of
// comparison when copying a placement slot to a new owner. The reply puts
// the parallel arrays in Names/RecIDs/Grps/Owners.
type MigrateManifestReq struct{}

// FetchFileReq reads one file's bytes (and owner, in Msg) off the DLFM's
// file server, for the migration bulk copy.
type FetchFileReq struct{ Name string }

// MigratePutReq installs one migrated file at the new owner inside the
// migration transaction: the bytes land on the file server, the linked
// dlfm_file entry is inserted with its original recovery id, and the file
// group is created on first contact (Recovery/FullControl carry its
// attributes). An existing linked entry for Name is replaced, so re-running
// a slot's delta sync converges.
type MigratePutReq struct {
	Txn         int64
	Name        string
	RecID       int64
	Grp         int64
	Owner       string
	Data        []byte
	Recovery    bool
	FullControl bool
}

// MigrateDelReq removes linked entries from the migration source (or an
// aborted move's target) inside the given transaction, after — or instead
// of — their cutover to the new owner. N reports entries removed.
type MigrateDelReq struct {
	Txn   int64
	Names []string
}

// OnePhaseCommitReq is the one-phase commit of a transaction with a single
// DLFM: that DLFM decides. It hardens its transaction entry directly as a
// kept one-phase outcome ('O') and performs the phase-2 work in the same
// local transaction — one fsync and one RPC where classic 2PC needs two of
// each. The entry stays until the host forgets it: the next OnePhaseCommitReq
// or ForgetReq on the same connection deletes it inside its own local
// commit, since the host sends one only after the reply arrived and its own
// branch landed. Deliberately NOT idempotent: a re-issue on a fresh
// connection cannot be told apart from a no-op transaction (the original
// agent's uncommitted work died with it), so the host resolves a lost reply
// with QueryOutcomeReq instead of re-sending.
type OnePhaseCommitReq struct{ Txn int64 }

// QueryOutcomeReq asks a DLFM for the durable outcome of a transaction it
// decided (one-phase commit) or participated in. The reply's Msg is
// "committed", "prepared", "inflight" or "none". "none" is made a fact
// before it is answered: the DLFM records the transaction as aborted, so a
// OnePhaseCommitReq still on its way is refused.
type QueryOutcomeReq struct{ Txn int64 }

// PaxosPromiseReq is phase 1a of one Paxos Commit instance (Gray &
// Lamport): the leader or a recovering learner asks the acceptor to promise
// ballot Bal for instance (Txn, Part) and report any value it has already
// accepted. Part names the voting participant; the registrar instance
// (paxoscommit.RegistrarPart) holds the participant list.
type PaxosPromiseReq struct {
	Txn  int64
	Part string
	Bal  int64
}

// PaxosAcceptReq is phase 2a of Paxos Commit for a bundle of instances of
// one transaction: accept Vals[i] for instance (Txn, Parts[i]) at ballot
// Bal. The leader's fast path sends one ballot-0 bundle per acceptor
// carrying every instance, skipping phase 1 (the Gray & Lamport
// optimisation); recovery learners send one-element bundles at higher
// ballots after a promise round.
//
// The acceptor applies the bundle under one lock hold and forces its log
// once before replying. The reply answers per instance: RecIDs[i] is
// instance i's promised ballot afterwards, equal to Bal when Vals[i] was
// accepted and higher when the instance was stale. If any instance was
// stale, Code is "stale" and N the first stale instance's promised ballot;
// any other error code acknowledges nothing in the bundle.
type PaxosAcceptReq struct {
	Txn   int64
	Bal   int64
	Parts []string
	Vals  []string
}

// PaxosReadReq reads an acceptor's accepted state for every instance of
// Txn (diagnostics and the learner's fast outcome check). The reply packs
// parallel arrays: Names = instance parts, Owners = accepted values,
// RecIDs = accepted ballots.
type PaxosReadReq struct{ Txn int64 }

// PaxosForgetReq discards an acceptor's state for a decided transaction
// once the outcome has been applied everywhere, bounding acceptor memory.
type PaxosForgetReq struct{ Txn int64 }

// PingReq checks liveness.
type PingReq struct{}

// StatsReq asks the DLFM for its internal counters (diagnostics).
type StatsReq struct{}

// ReplFetchReq asks a primary DLFM for write-ahead-log records with
// LSN >= FromLSN, up to Max records per batch (0 = server default). The
// standby's replication client polls with it; the response carries the
// records wal.EncodeRecords-packed in Data and the primary's next LSN in
// LSN, so the standby can compute its lag.
type ReplFetchReq struct {
	FromLSN int64
	Max     int
}

// Response is the uniform reply envelope.
type Response struct {
	// Code "" means success. Error codes: "deadlock", "timeout",
	// "duplicate", "notlinked", "nofile", "nogroup", "notxn", "logfull",
	// "severe".
	Code string
	Msg  string

	// IsLinked answer.
	Linked      bool
	FullControl bool

	// Prepare answer: the participant made no changes in this transaction
	// and has already released everything — the read-only vote of presumed
	// commit/abort. The coordinator must exclude it from phase 2.
	ReadOnly bool

	// ListIndoubt answer.
	Txns []int64

	// Generic numeric answer (WaitArchive: copies flushed; Restore:
	// entries repaired; Stats: encoded counters).
	N int64

	// Reconcile answer: names unresolvable on the DLFM side. Also the
	// MigrateManifest answer's name column.
	Names []string

	// MigrateManifest answer, parallel to Names. Flags carries each
	// file's group attributes (bit 0 recovery, bit 1 full control) so the
	// move target can recreate the group faithfully.
	RecIDs []int64
	Grps   []int64
	Owners []string
	Flags  []int64

	// ReplFetch answer: wal.EncodeRecords-packed records, and the
	// primary's next LSN (end of log) at the time of the fetch.
	Data []byte
	LSN  int64
}

// OK reports whether the response is a success.
func (r Response) OK() bool { return r.Code == "" }

// msgInfo is one message-type registry entry. The registry is the single
// source of truth for a request type's wire name, wire tag, and reconnect
// semantics: the Client's idempotent re-issue allowlist is driven off it,
// so adding a message type without deciding its reconnect safety is
// impossible.
type msgInfo struct {
	name       string
	tag        int             // position in registration order; the frame's type tag
	readOnly   bool            // no server-side state change at all
	idempotent bool            // safe to re-issue after a transport failure
	txnOf      func(any) int64 // nil: no transaction context
}

var (
	registry = map[reflect.Type]msgInfo{}
	byTag    []reflect.Type
)

// register adds a request type. Tags follow registration order, so a new
// type goes at the end of init's list.
func register(proto any, info msgInfo) {
	t := reflect.TypeOf(proto)
	checkWire(t)
	info.tag = len(byTag)
	byTag = append(byTag, t)
	registry[t] = info
}

func lookup(req any) (msgInfo, bool) {
	info, ok := registry[reflect.TypeOf(req)]
	return info, ok
}

// Name returns a request's wire name for diagnostics and trace events.
func Name(req any) string {
	if info, ok := lookup(req); ok {
		return info.name
	}
	return "Unknown"
}

// Idempotent reports whether a request may be safely re-issued on a fresh
// connection after a transport failure, when the server might already have
// processed the lost original. Phase-2 Commit and Abort are the paper's
// canonical cases: DLFM's commit processing "is idempotent: retrying a
// commit whose transaction entry is already gone returns success", and
// abort likewise finds nothing left to compensate. BeginTxn re-delivery
// re-adopts the same transaction id; the read-only requests have no
// server-side effects worth protecting.
func Idempotent(req any) bool {
	info, ok := lookup(req)
	return ok && info.idempotent
}

// ReadOnly reports whether a request has no server-side effects. Every
// read-only request must be idempotent (enforced by test); the converse is
// not true — Commit is idempotent but certainly not read-only.
func ReadOnly(req any) bool {
	info, ok := lookup(req)
	return ok && info.readOnly
}

// TxnOf returns the host transaction id a request runs under, or 0 for
// requests outside any transaction context.
func TxnOf(req any) int64 {
	if info, ok := lookup(req); ok && info.txnOf != nil {
		return info.txnOf(req)
	}
	return 0
}

// RequestTypes returns a zero value of every registered request type, for
// exhaustiveness tests over the registry.
func RequestTypes() []any {
	out := make([]any, 0, len(registry))
	for t := range registry {
		out = append(out, reflect.Zero(t).Interface())
	}
	return out
}

func init() {
	register(BeginTxnReq{}, msgInfo{name: "BeginTxn", idempotent: true,
		txnOf: func(r any) int64 { return r.(BeginTxnReq).Txn }})
	register(LinkFileReq{}, msgInfo{name: "LinkFile",
		txnOf: func(r any) int64 { return r.(LinkFileReq).Txn }})
	register(UnlinkFileReq{}, msgInfo{name: "UnlinkFile",
		txnOf: func(r any) int64 { return r.(UnlinkFileReq).Txn }})
	register(PrepareReq{}, msgInfo{name: "Prepare",
		txnOf: func(r any) int64 { return r.(PrepareReq).Txn }})
	register(CommitReq{}, msgInfo{name: "Commit", idempotent: true,
		txnOf: func(r any) int64 { return r.(CommitReq).Txn }})
	register(AbortReq{}, msgInfo{name: "Abort", idempotent: true,
		txnOf: func(r any) int64 { return r.(AbortReq).Txn }})
	register(CreateGroupReq{}, msgInfo{name: "CreateGroup",
		txnOf: func(r any) int64 { return r.(CreateGroupReq).Txn }})
	register(DeleteGroupReq{}, msgInfo{name: "DeleteGroup",
		txnOf: func(r any) int64 { return r.(DeleteGroupReq).Txn }})
	register(IsLinkedReq{}, msgInfo{name: "IsLinked", readOnly: true, idempotent: true})
	register(ListIndoubtReq{}, msgInfo{name: "ListIndoubt", readOnly: true, idempotent: true})
	register(WaitArchiveReq{}, msgInfo{name: "WaitArchive"})
	register(RegisterBackupReq{}, msgInfo{name: "RegisterBackup"})
	register(RestoreToReq{}, msgInfo{name: "RestoreTo"})
	register(ReconcileReq{}, msgInfo{name: "Reconcile"})
	register(MigrateManifestReq{}, msgInfo{name: "MigrateManifest", readOnly: true, idempotent: true})
	register(FetchFileReq{}, msgInfo{name: "FetchFile", readOnly: true, idempotent: true})
	register(MigratePutReq{}, msgInfo{name: "MigratePut",
		txnOf: func(r any) int64 { return r.(MigratePutReq).Txn }})
	register(MigrateDelReq{}, msgInfo{name: "MigrateDel",
		txnOf: func(r any) int64 { return r.(MigrateDelReq).Txn }})
	register(OnePhaseCommitReq{}, msgInfo{name: "OnePhaseCommit",
		txnOf: func(r any) int64 { return r.(OnePhaseCommitReq).Txn }})
	register(QueryOutcomeReq{}, msgInfo{name: "QueryOutcome", idempotent: true,
		txnOf: func(r any) int64 { return r.(QueryOutcomeReq).Txn }})
	register(ForgetReq{}, msgInfo{name: "Forget", idempotent: true})
	register(PaxosPromiseReq{}, msgInfo{name: "PaxosPromise", idempotent: true,
		txnOf: func(r any) int64 { return r.(PaxosPromiseReq).Txn }})
	register(PaxosAcceptReq{}, msgInfo{name: "PaxosAccept", idempotent: true,
		txnOf: func(r any) int64 { return r.(PaxosAcceptReq).Txn }})
	register(PaxosReadReq{}, msgInfo{name: "PaxosRead", readOnly: true, idempotent: true,
		txnOf: func(r any) int64 { return r.(PaxosReadReq).Txn }})
	register(PaxosForgetReq{}, msgInfo{name: "PaxosForget", idempotent: true,
		txnOf: func(r any) int64 { return r.(PaxosForgetReq).Txn }})
	register(PingReq{}, msgInfo{name: "Ping", readOnly: true, idempotent: true})
	register(StatsReq{}, msgInfo{name: "Stats", readOnly: true, idempotent: true})
	register(ReplFetchReq{}, msgInfo{name: "ReplFetch", readOnly: true, idempotent: true})
}
