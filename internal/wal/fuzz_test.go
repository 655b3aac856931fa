package wal

import (
	"bytes"
	"testing"

	"repro/internal/value"
)

// FuzzDecodeRecords feeds arbitrary bytes to the record-batch decoder, the
// one a replica runs on what the replication wire delivers. It must never
// panic or allocate from an untrusted length, and whatever decodes must
// re-encode to a fixed point: encoding the decoded records, decoding that
// and encoding again gives the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(EncodeRecords([]Record{
		{LSN: 1, Txn: 7, Type: RecBegin},
		{LSN: 2, Txn: 7, Type: RecInsert, Table: "dlfm_file", RID: 3,
			After: value.Row{value.Int(3), value.Str("/data/f"), value.Null, value.Bool(true)}},
		{LSN: 3, Txn: 7, Type: RecUpdate, Table: "dlfm_file", RID: 3,
			Before: value.Row{value.Int(3)}, After: value.Row{value.Int(4)}},
		{LSN: 4, Txn: 7, Type: RecCommit},
	}))
	f.Add(EncodeRecords([]Record{rec(9, RecDelete, "t", 1)}))
	// A row image whose 32-bit column count (0x30303030) far exceeds the
	// bytes that follow it: the decoder must refuse it before allocating.
	f.Add([]byte("\x00\x00\x00000000000000000000\x00\x00\x00\x01000000000\x00\x00\x00\x000000000000000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return
		}
		first := EncodeRecords(recs)
		again, err := DecodeRecords(first)
		if err != nil {
			t.Fatalf("decoding the re-encoded batch: %v", err)
		}
		if second := EncodeRecords(again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", first, second)
		}
	})
}
