package rpc

import (
	"reflect"
	"strings"
	"testing"
)

// Every request type the package defines (anything named *Req) must be in
// the registry, so a new message can't silently ship with no wire name and
// no reconnect-safety decision.
func TestRegistryCoversEveryRequestType(t *testing.T) {
	registered := make(map[string]bool)
	for _, req := range RequestTypes() {
		registered[reflect.TypeOf(req).Name()] = true
	}
	// The package's request types, by convention: keep in sync with
	// messages.go. A type listed here but unregistered fails below.
	known := []any{
		BeginTxnReq{}, LinkFileReq{}, UnlinkFileReq{}, PrepareReq{},
		CommitReq{}, AbortReq{}, CreateGroupReq{}, DeleteGroupReq{},
		IsLinkedReq{}, ListIndoubtReq{}, WaitArchiveReq{}, RegisterBackupReq{},
		RestoreToReq{}, ReconcileReq{}, PingReq{}, StatsReq{}, ReplFetchReq{},
		MigrateManifestReq{}, FetchFileReq{}, MigratePutReq{}, MigrateDelReq{},
		OnePhaseCommitReq{}, QueryOutcomeReq{}, ForgetReq{}, PaxosPromiseReq{},
		PaxosAcceptReq{}, PaxosReadReq{}, PaxosForgetReq{},
	}
	for _, req := range known {
		name := reflect.TypeOf(req).Name()
		if !registered[name] {
			t.Errorf("%s is not in the message registry", name)
		}
		if Name(req) == "Unknown" {
			t.Errorf("%s has no wire name", name)
		}
		if !strings.HasSuffix(name, "Req") {
			t.Errorf("%s: request types are named *Req", name)
		}
	}
	if len(registered) != len(known) {
		t.Errorf("registry has %d types, test knows %d — update the test's known list",
			len(registered), len(known))
	}
}

// Every read-only request must be re-issuable on a fresh connection: a
// fetch or probe lost in transit has no server-side effect, so losing
// reconnect safety for one would only be an oversight.
func TestReadOnlyRequestsAreIdempotent(t *testing.T) {
	var readOnly int
	for _, req := range RequestTypes() {
		if !ReadOnly(req) {
			continue
		}
		readOnly++
		if !Idempotent(req) {
			t.Errorf("%s is read-only but not idempotent", Name(req))
		}
	}
	if readOnly == 0 {
		t.Fatal("no read-only request types registered")
	}
	// The replication fetch is the newest read-only message; pin it.
	for _, req := range []any{ReplFetchReq{}, IsLinkedReq{}, ListIndoubtReq{}, PingReq{}, StatsReq{}} {
		if !ReadOnly(req) || !Idempotent(req) {
			t.Errorf("%s must be read-only and idempotent", Name(req))
		}
	}
	// Mutating requests must not be blanket-idempotent: Link/Unlink and
	// Prepare re-issue would double-apply.
	for _, req := range []any{LinkFileReq{}, UnlinkFileReq{}, PrepareReq{}, CreateGroupReq{}} {
		if Idempotent(req) {
			t.Errorf("%s must not be idempotent", Name(req))
		}
	}
}

func TestTxnOfRegistry(t *testing.T) {
	if got := TxnOf(CommitReq{Txn: 42}); got != 42 {
		t.Errorf("TxnOf(CommitReq{42}) = %d", got)
	}
	if got := TxnOf(LinkFileReq{Txn: 7}); got != 7 {
		t.Errorf("TxnOf(LinkFileReq{7}) = %d", got)
	}
	if got := TxnOf(ReplFetchReq{FromLSN: 9}); got != 0 {
		t.Errorf("TxnOf(ReplFetchReq) = %d, want 0", got)
	}
	if got := TxnOf(struct{}{}); got != 0 {
		t.Errorf("TxnOf(unknown) = %d, want 0", got)
	}
}
