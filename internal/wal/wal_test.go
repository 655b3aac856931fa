package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
)

func rec(txn int64, t RecType, table string, rid int64) Record {
	return Record{Txn: txn, Type: t, Table: table, RID: rid,
		After: value.Row{value.Int(rid), value.Str("payload")}}
}

func TestRecTypeString(t *testing.T) {
	types := []RecType{RecBegin, RecInsert, RecDelete, RecUpdate, RecCommit, RecAbort, RecPrepare, RecCheckpoint, RecType(99)}
	for _, rt := range types {
		if rt.String() == "" {
			t.Errorf("empty String for %d", rt)
		}
	}
}

func TestMemoryAppendAndScan(t *testing.T) {
	l, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn1, err := l.Append(rec(1, RecInsert, "f", 10))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(rec(1, RecCommit, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != lsn1+1 {
		t.Errorf("LSNs not sequential: %d then %d", lsn1, lsn2)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != RecInsert || recs[1].Type != RecCommit {
		t.Fatalf("scan returned %+v", recs)
	}
	if recs[0].After[1].Text() != "payload" {
		t.Error("after image lost")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Txn: 1, Type: RecBegin},
		{Txn: 1, Type: RecInsert, Table: "dlfm_file", RID: 7,
			After: value.Row{value.Str("a.txt"), value.Int(0), value.Null}},
		{Txn: 1, Type: RecUpdate, Table: "dlfm_file", RID: 7,
			Before: value.Row{value.Str("a.txt")}, After: value.Row{value.Str("b.txt")}},
		{Txn: 1, Type: RecCommit},
	}
	for _, r := range want {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Type != want[i].Type || r.Txn != want[i].Txn || r.Table != want[i].Table || r.RID != want[i].RID {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if recs[2].Before[0].Text() != "a.txt" || recs[2].After[0].Text() != "b.txt" {
		t.Error("update images corrupted")
	}
	// LSN numbering resumes after reopen.
	lsn, err := l2.Append(rec(2, RecInsert, "f", 1))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != int64(len(want))+1 {
		t.Errorf("resumed LSN = %d, want %d", lsn, len(want)+1)
	}
}

func TestTornFinalRecordIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := l.Append(rec(1, RecInsert, "f", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: truncate the file inside the last record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("after torn tail: %d records, want 2", len(recs))
	}
}

func TestLogFullSingleLongTransaction(t *testing.T) {
	l, err := Open("", 2048)
	if err != nil {
		t.Fatal(err)
	}
	var hitFull bool
	for i := int64(0); i < 1000; i++ {
		if _, err := l.Append(rec(1, RecInsert, "dlfm_file", i)); err != nil {
			if !errors.Is(err, ErrLogFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			hitFull = true
			break
		}
	}
	if !hitFull {
		t.Fatal("long transaction never hit log full")
	}
	if l.Stats().LogFulls != 1 {
		t.Errorf("LogFulls = %d, want 1", l.Stats().LogFulls)
	}
	// Abort must still be appendable so the engine can clean up.
	if _, err := l.Append(Record{Txn: 1, Type: RecAbort}); err != nil {
		t.Fatalf("abort rejected during log full: %v", err)
	}
}

func TestBatchedCommitsAvoidLogFull(t *testing.T) {
	// The paper's lesson: commit every N records and the circular log space
	// is reclaimed, so the same total work fits in the same capacity.
	l, err := Open("", 2048)
	if err != nil {
		t.Fatal(err)
	}
	txn := int64(1)
	for i := int64(0); i < 1000; i++ {
		if _, err := l.Append(rec(txn, RecInsert, "dlfm_file", i)); err != nil {
			t.Fatalf("row %d: %v (batched commits should never hit log full)", i, err)
		}
		if i%10 == 9 {
			if _, err := l.Append(Record{Txn: txn, Type: RecCommit}); err != nil {
				t.Fatal(err)
			}
			txn++
		}
	}
	if l.Stats().LogFulls != 0 {
		t.Errorf("LogFulls = %d, want 0", l.Stats().LogFulls)
	}
}

func TestActiveSpaceAccounting(t *testing.T) {
	l, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(1, RecInsert, "f", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(2, RecInsert, "f", 2)); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.ActiveTxn != 2 || s.Active == 0 {
		t.Fatalf("stats = %+v, want 2 active txns with space", s)
	}
	// Committing txn 2 does not reclaim space (txn 1 is older).
	if _, err := l.Append(Record{Txn: 2, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	s = l.Stats()
	if s.ActiveTxn != 1 || s.Active == 0 {
		t.Fatalf("after newer commit: %+v", s)
	}
	// Committing txn 1 reclaims everything.
	if _, err := l.Append(Record{Txn: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if s = l.Stats(); s.Active != 0 || s.ActiveTxn != 0 {
		t.Fatalf("after all commits: %+v", s)
	}
}

func TestForgetTxn(t *testing.T) {
	l, _ := Open("", 0)
	if _, err := l.Append(rec(5, RecInsert, "f", 1)); err != nil {
		t.Fatal(err)
	}
	l.ForgetTxn(5)
	if s := l.Stats(); s.ActiveTxn != 0 {
		t.Fatalf("ForgetTxn did not release: %+v", s)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeRecord(nil); err == nil {
		t.Error("nil body decoded")
	}
	if _, err := decodeRecord(make([]byte, 10)); err == nil {
		t.Error("short body decoded")
	}
	// Valid record plus trailing junk must be rejected.
	r := rec(1, RecInsert, "t", 1)
	r.LSN = 1
	enc := r.encode(nil)
	body := append(enc[4:], 0xFF)
	if _, err := decodeRecord(body); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestNextLSN(t *testing.T) {
	l, _ := Open("", 0)
	if l.NextLSN() != 1 {
		t.Errorf("fresh log NextLSN = %d", l.NextLSN())
	}
	l.Append(rec(1, RecInsert, "f", 1))
	if l.NextLSN() != 2 {
		t.Errorf("NextLSN after one append = %d", l.NextLSN())
	}
}

func TestEmptyRowsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wal")
	l, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Txn: 3, Type: RecBegin}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, _ := Open(path, 0)
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Before != nil || recs[0].After != nil {
		t.Fatalf("round trip of imageless record: %+v", recs)
	}
}

func TestReadFromIncremental(t *testing.T) {
	for _, path := range []string{"", filepath.Join(t.TempDir(), "inc.wal")} {
		l, err := Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 5; i++ {
			if _, err := l.Append(rec(i, RecInsert, "f", i)); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := l.ReadFrom(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || recs[0].LSN != 3 || recs[2].LSN != 5 {
			t.Fatalf("ReadFrom(3) = %+v", recs)
		}
		// Nothing new yet.
		if recs, _ = l.ReadFrom(6); len(recs) != 0 {
			t.Fatalf("ReadFrom(6) on drained log = %+v", recs)
		}
		// New appends are picked up from the cached offset.
		if _, err := l.Append(rec(9, RecInsert, "f", 9)); err != nil {
			t.Fatal(err)
		}
		recs, err = l.ReadFrom(6)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].LSN != 6 || recs[0].RID != 9 {
			t.Fatalf("incremental ReadFrom = %+v", recs)
		}
		// Rewinding below the cache still returns the full history.
		recs, err = l.ReadFrom(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 6 {
			t.Fatalf("ReadFrom(0) after cache advance = %d records", len(recs))
		}
		l.Close()
	}
}

func TestEncodeDecodeRecords(t *testing.T) {
	want := []Record{
		{LSN: 4, Txn: 7, Type: RecInsert, Table: "dlfm_file", RID: 2,
			After: value.Row{value.Str("a.txt"), value.Int(1)}},
		{LSN: 5, Txn: 7, Type: RecUpdate, Table: "dlfm_file", RID: 2,
			Before: value.Row{value.Str("a.txt")}, After: value.Row{value.Str("b.txt")}},
		{LSN: 6, Txn: 7, Type: RecCommit},
	}
	got, err := DecodeRecords(EncodeRecords(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost records: %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Txn != want[i].Txn ||
			got[i].Type != want[i].Type || got[i].Table != want[i].Table || got[i].RID != want[i].RID {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Before[0].Text() != "a.txt" || got[1].After[0].Text() != "b.txt" {
		t.Error("images corrupted in batch round trip")
	}
	// Truncated batches are an error, not a silent short read.
	buf := EncodeRecords(want)
	if _, err := DecodeRecords(buf[:len(buf)-3]); err == nil {
		t.Error("truncated batch decoded without error")
	}
	if recs, err := DecodeRecords(nil); err != nil || len(recs) != 0 {
		t.Errorf("empty batch: %v, %v", recs, err)
	}
}
