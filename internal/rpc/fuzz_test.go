package rpc

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// wireSamples holds one populated value of every registered request type,
// the starting corpus of FuzzMessages.
var wireSamples = []any{
	BeginTxnReq{Txn: 1, Batched: true, BatchN: 50},
	LinkFileReq{Txn: 2, Name: "/data/a.mpg", RecID: 3, Grp: 4, InBackout: true},
	UnlinkFileReq{Txn: 2, Name: "/data/b.mpg", RecID: 5, Grp: 4},
	PrepareReq{Txn: 6},
	CommitReq{Txn: 7},
	AbortReq{Txn: 8},
	CreateGroupReq{Txn: 9, Grp: 10, Recovery: true, FullControl: true},
	DeleteGroupReq{Txn: 11, Grp: 10},
	IsLinkedReq{Name: "/data/a.mpg"},
	ListIndoubtReq{Kept: true},
	ForgetReq{Txns: []int64{12, 13}},
	WaitArchiveReq{RecID: 14},
	RegisterBackupReq{BackupID: 15, RecID: 16},
	RestoreToReq{RecID: 17},
	ReconcileReq{Names: []string{"/x", "/y"}, RecIDs: []int64{18, 19}},
	MigrateManifestReq{},
	FetchFileReq{Name: "/x"},
	MigratePutReq{Txn: 20, Name: "/x", RecID: 21, Grp: 22, Owner: "app", Data: []byte("bytes"), Recovery: true},
	MigrateDelReq{Txn: 23, Names: []string{"/x"}},
	OnePhaseCommitReq{Txn: 24},
	QueryOutcomeReq{Txn: 25},
	PaxosPromiseReq{Txn: 26, Part: "fs1", Bal: 65},
	PaxosAcceptReq{Txn: 26, Part: "@parts", Bal: 0, Val: "fs1,fs2"},
	PaxosReadReq{Txn: 26},
	PaxosForgetReq{Txn: 26},
	PingReq{},
	StatsReq{},
	ReplFetchReq{FromLSN: 27, Max: 28},
}

// gobBytes encodes v as the first value of a fresh stream, type
// descriptors included — what a new connection carries.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	return buf.Bytes()
}

// FuzzMessages feeds arbitrary bytes to the two wire decoders — the
// server's request envelope and the client's reply. Neither may panic, and
// whatever decodes must re-encode to itself: encoding the decoded value and
// decoding and encoding that again gives the same bytes.
func FuzzMessages(f *testing.F) {
	seeded := make(map[reflect.Type]bool)
	for i, req := range wireSamples {
		seeded[reflect.TypeOf(req)] = true
		f.Add(gobBytes(f, envelope{Seq: uint64(i + 1), Trace: obs.SpanCtx{Trace: 99, Span: int64(i)}, Req: req}))
	}
	for _, req := range RequestTypes() {
		if !seeded[reflect.TypeOf(req)] {
			f.Fatalf("%s has no sample in wireSamples", Name(req))
		}
	}
	f.Add(gobBytes(f, reply{Seq: 1, Resp: Response{
		Code: "severe", Msg: "m", Linked: true, ReadOnly: true, Txns: []int64{1, 2}, N: 3,
		Names: []string{"/x"}, RecIDs: []int64{4}, Grps: []int64{5}, Owners: []string{"app"},
		Flags: []int64{3}, Data: []byte("d"), LSN: 6,
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env envelope
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&env) == nil {
			reencodes(t, env, func() any { return new(envelope) })
		}
		var rep reply
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&rep) == nil {
			reencodes(t, rep, func() any { return new(reply) })
		}
	})
}

// reencodes checks that v, a value just decoded, survives a round trip:
// encode, decode into a fresh value, encode again — same bytes.
func reencodes(t *testing.T, v any, fresh func() any) {
	t.Helper()
	var first bytes.Buffer
	if err := gob.NewEncoder(&first).Encode(v); err != nil {
		return // gob decodes some values it refuses to send back (a nil Req)
	}
	again := fresh()
	if err := gob.NewDecoder(bytes.NewReader(first.Bytes())).Decode(again); err != nil {
		t.Fatalf("decoding the re-encoded %#v: %v", v, err)
	}
	second := gobBytes(t, reflect.ValueOf(again).Elem().Interface())
	if !bytes.Equal(first.Bytes(), second) {
		t.Fatalf("%#v does not re-encode to itself:\n%x\n%x", v, first.Bytes(), second)
	}
}
