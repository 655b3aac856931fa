package rpc

import (
	"bufio"
	"bytes"
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
	PaxosAcceptReq{Txn: 26, Bal: 0, Parts: []string{"@parts", "fs1"}, Vals: []string{"fs1,fs2", "prepared"}},
	PaxosReadReq{Txn: 26},
	PaxosForgetReq{Txn: 26},
	PingReq{},
	StatsReq{},
	ReplFetchReq{FromLSN: 27, Max: -28},
}

// fullResponse sets every Response field.
var fullResponse = Response{
	Code: "severe", Msg: "m", Linked: true, FullControl: true, ReadOnly: true, Txns: []int64{1, -2}, N: 3,
	Names: []string{"/x", ""}, RecIDs: []int64{4}, Grps: []int64{5}, Owners: []string{"app"},
	Flags: []int64{3}, Data: []byte("d"), LSN: 1 << 62,
}

func requestFrame(t testing.TB, env envelope) []byte {
	t.Helper()
	b, err := appendRequest(nil, env)
	if err != nil {
		t.Fatalf("encode %#v: %v", env.req, err)
	}
	return b
}

func replyFrame(t testing.TB, seq uint64, resp Response) []byte {
	t.Helper()
	b, err := appendReply(nil, seq, &resp)
	if err != nil {
		t.Fatalf("encode %#v: %v", resp, err)
	}
	return b
}

// FuzzMessages feeds arbitrary bytes, read as one frame, to the two wire
// decoders — the server's request decoder and the client's reply decoder.
// Neither may panic, and whatever decodes must re-encode to exactly the
// frame it was read from.
func FuzzMessages(f *testing.F) {
	seeded := make(map[reflect.Type]bool)
	for i, req := range wireSamples {
		seeded[reflect.TypeOf(req)] = true
		f.Add(requestFrame(f, envelope{seq: uint64(i + 1), trace: obs.SpanCtx{Trace: 99, Span: int64(i)}, req: req}))
	}
	for _, req := range RequestTypes() {
		if !seeded[reflect.TypeOf(req)] {
			f.Fatalf("%s has no sample in wireSamples", Name(req))
		}
	}
	f.Add(replyFrame(f, 1, fullResponse))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			return
		}
		frame := data[:4+len(payload)]
		if env, err := decodeRequest(payload); err == nil {
			if again := requestFrame(t, env); !bytes.Equal(again, frame) {
				t.Fatalf("%#v does not re-encode to its frame:\n%x\n%x", env, frame, again)
			}
		}
		var resp Response
		if seq, err := decodeReply(payload, &resp); err == nil {
			if again := replyFrame(t, seq, resp); !bytes.Equal(again, frame) {
				t.Fatalf("%#v does not re-encode to its frame:\n%x\n%x", resp, frame, again)
			}
		}
	})
}
