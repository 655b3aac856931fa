// Package wal implements the engine's write-ahead log: sequenced redo/undo
// records, durable append, optional group-commit syncing, and circular
// log-space accounting.
//
// Group commit amortizes the stable-write delay that dominates commit cost:
// with SetGroupCommit(true), SyncBatched enqueues the caller on a batcher
// daemon that drains every waiting committer and covers the whole batch
// with one fsync — each committer's records are already appended before it
// enqueues, so the single sync durably covers all of them. With the batcher
// off, SyncBatched degrades to a plain per-caller Sync.
//
// The space accounting models DB2's circular log: space between the first
// record of the oldest in-flight transaction and the end of the log is
// "active" and cannot be reclaimed, so one long transaction that writes more
// than the configured capacity hits ErrLogFull. That is the failure mode the
// paper's batched-commit lesson is about (Section 4; experiment E8).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/value"
)

// ErrLogFull is returned by Append when the active portion of the log would
// exceed its capacity — the local database's "log full" error condition.
var ErrLogFull = errors.New("wal: transaction log full")

// fpAppendFsync models a failing (or slow) log-device fsync: the durability
// point of commit and prepare processing.
var fpAppendFsync = fault.P("wal.append.fsync")

// RecType identifies a log record type.
type RecType byte

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecInsert
	RecDelete
	RecUpdate
	RecCommit
	RecAbort
	RecPrepare
	RecCheckpoint
	// DDL records carry the statement text in the Table field; DDL is
	// autocommitted, so recovery replays these unconditionally. A
	// RecPrepare carries the prepared branch's name there.
	RecCreateTable
	RecCreateIndex
	RecDropTable
)

// String names the record type for diagnostics.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecPrepare:
		return "PREPARE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecCreateTable:
		return "CREATE-TABLE"
	case RecCreateIndex:
		return "CREATE-INDEX"
	case RecDropTable:
		return "DROP-TABLE"
	default:
		return fmt.Sprintf("RecType(%d)", byte(t))
	}
}

// Record is one write-ahead log record. Data records carry the table, row
// id, and before/after images needed for redo and undo.
type Record struct {
	LSN    int64
	Txn    int64
	Type   RecType
	Table  string
	RID    int64
	Before value.Row
	After  value.Row
}

func (r *Record) encode(buf []byte) []byte {
	body := make([]byte, 0, 64)
	body = append(body, byte(r.Type))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(r.LSN))
	body = append(body, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(r.Txn))
	body = append(body, tmp[:]...)
	var t4 [4]byte
	binary.BigEndian.PutUint32(t4[:], uint32(len(r.Table)))
	body = append(body, t4[:]...)
	body = append(body, r.Table...)
	binary.BigEndian.PutUint64(tmp[:], uint64(r.RID))
	body = append(body, tmp[:]...)
	body = value.AppendRow(body, r.Before)
	body = value.AppendRow(body, r.After)

	binary.BigEndian.PutUint32(t4[:], uint32(len(body)))
	buf = append(buf, t4[:]...)
	return append(buf, body...)
}

func decodeRecord(body []byte) (Record, error) {
	var r Record
	if len(body) < 1+8+8+4 {
		return r, fmt.Errorf("wal: truncated record header")
	}
	r.Type = RecType(body[0])
	r.LSN = int64(binary.BigEndian.Uint64(body[1:9]))
	r.Txn = int64(binary.BigEndian.Uint64(body[9:17]))
	tlen := int(binary.BigEndian.Uint32(body[17:21]))
	off := 21
	if len(body) < off+tlen+8 {
		return r, fmt.Errorf("wal: truncated table name")
	}
	r.Table = string(body[off : off+tlen])
	off += tlen
	r.RID = int64(binary.BigEndian.Uint64(body[off : off+8]))
	off += 8
	before, n, err := value.DecodeRow(body[off:])
	if err != nil {
		return r, fmt.Errorf("wal: before image: %w", err)
	}
	off += n
	after, n, err := value.DecodeRow(body[off:])
	if err != nil {
		return r, fmt.Errorf("wal: after image: %w", err)
	}
	off += n
	if off != len(body) {
		return r, fmt.Errorf("wal: %d trailing bytes in record", len(body)-off)
	}
	if len(before) > 0 {
		r.Before = before
	}
	if len(after) > 0 {
		r.After = after
	}
	return r, nil
}

// Stats reports cumulative log activity.
type Stats struct {
	Appends   int64
	Bytes     int64 // total bytes ever appended
	Syncs     int64
	LogFulls  int64 // Append calls rejected with ErrLogFull
	Active    int64 // current active (unreclaimable) bytes
	ActiveTxn int   // transactions currently holding log space
}

// Log is the write-ahead log. A Log with an empty path keeps records in
// memory only — it still enforces capacity and supports recovery scans, so
// in-process crash simulation works without touching disk.
type Log struct {
	mu sync.Mutex

	f    *os.File
	mem  []Record
	path string

	nextLSN  int64
	end      int64 // logical end offset in bytes
	capacity int64 // 0 = unlimited

	// firstOffset maps each in-flight transaction to the byte offset of
	// its first record; the minimum is the tail of the active log.
	firstOffset map[int64]int64
	// firstLSN is the LSN-space twin of firstOffset: the checkpoint start
	// LSN must not advance past the oldest in-flight transaction's first
	// record, or recovery could not undo it.
	firstLSN map[int64]int64

	// syncedEnd is the logical end offset covered by the last successful
	// sync; SyncIfDirty skips the fsync when nothing was appended since.
	syncedEnd int64

	// Group-commit batcher state (SetGroupCommit / SyncBatched): waiters
	// register under mu and nudge the daemon through gcNotify; the daemon
	// swaps the slice out and answers the whole batch with one sync.
	gcOn      bool
	gcWaiters []chan error
	gcNotify  chan struct{}
	gcStop    chan struct{}

	// Scan-position cache for ReadFrom: every record at a byte offset
	// below scanOff has LSN < scanLSN, so an incremental read for any
	// lsn >= scanLSN can seek straight to scanOff instead of decoding
	// the whole file again. Both fields are only meaningful for
	// file-backed logs.
	scanLSN int64
	scanOff int64

	// syncDelay is an artificial per-sync latency in nanoseconds
	// (SetSyncDelay), modeling a degraded log device on this one log.
	syncDelay atomic.Int64

	appends   obs.Counter
	bytes     obs.Counter
	syncs     obs.Counter
	logFulls  obs.Counter
	gcBatches obs.Counter
	gcCommits obs.Counter
	// syncHist measures the stable-write delay that dominates commit cost
	// in the Gray-Lamport accounting of 2PC.
	syncHist *obs.Histogram
	tracer   *obs.Tracer
}

// Instrument exposes the log's counters on reg (wal_* metric names) and
// directs log-full marks at tr. Both arguments may be nil. Call before
// concurrent use.
func (l *Log) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	l.tracer = tr
	if reg == nil {
		return
	}
	reg.RegisterCounter("wal_appends_total", &l.appends)
	reg.RegisterCounter("wal_bytes_total", &l.bytes)
	reg.RegisterCounter("wal_syncs_total", &l.syncs)
	reg.RegisterCounter("wal_log_fulls_total", &l.logFulls)
	reg.RegisterCounter("wal_group_commit_batches_total", &l.gcBatches)
	reg.RegisterCounter("wal_group_commit_batch_commits_total", &l.gcCommits)
	reg.RegisterHistogram("wal_sync_seconds", l.syncHist)
	reg.GaugeFunc("wal_active_bytes", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.end - l.tailLocked())
	})
	reg.GaugeFunc("wal_active_txns", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(len(l.firstOffset))
	})
	reg.GaugeFunc("wal_group_commit_queue", func() float64 {
		return float64(l.GroupCommitQueueDepth())
	})
}

// Open opens (creating or appending to) the log at path, or an in-memory
// log when path is empty. capacity is the circular-log size in bytes; zero
// means unlimited.
func Open(path string, capacity int64) (*Log, error) {
	l := &Log{
		path:        path,
		capacity:    capacity,
		nextLSN:     1,
		firstOffset: make(map[int64]int64),
		firstLSN:    make(map[int64]int64),
		syncHist:    obs.NewHistogram(),
	}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l.f = f
	// Resume LSN numbering and logical end after existing records.
	recs, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, r := range recs {
		if r.LSN >= l.nextLSN {
			l.nextLSN = r.LSN + 1
		}
	}
	if info, err := f.Stat(); err == nil {
		l.end = info.Size()
	}
	return l, nil
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Append writes a record, assigning and returning its LSN. Commit and abort
// records always fit (the engine must always be able to finish a
// transaction); any other record fails with ErrLogFull if the active log
// would exceed capacity.
func (l *Log) Append(r Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	r.LSN = l.nextLSN
	encoded := r.encode(nil)
	size := int64(len(encoded))

	if l.capacity > 0 && r.Type != RecCommit && r.Type != RecAbort {
		tail := l.tailLocked()
		if l.end+size-tail > l.capacity {
			l.logFulls.Add(1)
			l.tracer.Emitf(r.Txn, "wal", "log_full", "%s needs %d bytes, active %d of %d",
				r.Type, size, l.end-tail, l.capacity)
			return 0, fmt.Errorf("%w (txn %d needs %d bytes, active %d of %d)",
				ErrLogFull, r.Txn, size, l.end-tail, l.capacity)
		}
	}

	if l.f != nil {
		if _, err := l.f.Write(encoded); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	} else {
		l.mem = append(l.mem, r)
	}

	if r.Txn != 0 {
		switch r.Type {
		case RecCommit, RecAbort:
			delete(l.firstOffset, r.Txn)
			delete(l.firstLSN, r.Txn)
		default:
			if _, ok := l.firstOffset[r.Txn]; !ok {
				l.firstOffset[r.Txn] = l.end
				l.firstLSN[r.Txn] = r.LSN
			}
		}
	}

	l.nextLSN++
	l.end += size
	l.appends.Add(1)
	l.bytes.Add(size)
	return r.LSN, nil
}

// tailLocked returns the offset of the oldest active transaction's first
// record, or the end of the log when no transaction is active.
func (l *Log) tailLocked() int64 {
	tail := l.end
	for _, off := range l.firstOffset {
		if off < tail {
			tail = off
		}
	}
	return tail
}

// ForgetTxn releases txn's active log space without a commit/abort record
// (used when a transaction never wrote a data record).
func (l *Log) ForgetTxn(txn int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.firstOffset, txn)
	delete(l.firstLSN, txn)
}

// CheckpointLSN returns the LSN a checkpoint taken now must record as its
// replay start: the first LSN of the oldest in-flight transaction, or the
// next LSN when nothing is in flight. Recovery replaying from it sees
// every record of every transaction that was undecided at the checkpoint.
func (l *Log) CheckpointLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.nextLSN
	for _, fl := range l.firstLSN {
		if fl < lsn {
			lsn = fl
		}
	}
	return lsn
}

// SetSyncDelay adds an artificial per-sync latency to THIS log, modeling a
// degraded log device. Unlike the process-global wal.append.fsync fault
// point, the delay is scoped to one Log, so a fleet experiment can slow a
// single member's disk while its peers stay healthy. The delay runs under
// the log mutex (like a real slow fsync would) and is measured by
// wal_sync_seconds, so latency-drift monitors see it. Zero clears it.
func (l *Log) SetSyncDelay(d time.Duration) {
	l.syncDelay.Store(int64(d))
}

// Sync forces appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncs.Add(1)
	if err := fpAppendFsync.Fire(); err != nil {
		return err
	}
	start := time.Now()
	if d := time.Duration(l.syncDelay.Load()); d > 0 {
		time.Sleep(d)
	}
	var err error
	if l.f != nil {
		err = l.f.Sync()
	}
	if l.f != nil || l.syncDelay.Load() > 0 {
		// In-memory logs without a modeled delay skip the observation:
		// their "sync" is free and would drown the histogram in zeros.
		l.syncHist.Observe(time.Since(start))
	}
	if err == nil {
		l.syncedEnd = l.end
	}
	return err
}

// SyncIfDirty syncs only if records were appended since the last durable
// sync — the WAL-before-page hook for buffer-pool write-back, where the
// log is usually already ahead of the pages being flushed.
func (l *Log) SyncIfDirty() error {
	l.mu.Lock()
	dirty := l.end > l.syncedEnd
	l.mu.Unlock()
	if !dirty {
		return nil
	}
	return l.Sync()
}

// SetGroupCommit starts (true) or stops (false) the group-commit batcher
// daemon. Stopping answers every registered waiter with one final sync
// before the daemon exits. Toggling is safe at any time.
func (l *Log) SetGroupCommit(on bool) {
	l.mu.Lock()
	if on == l.gcOn {
		l.mu.Unlock()
		return
	}
	if on {
		l.gcOn = true
		l.gcNotify = make(chan struct{}, 1)
		l.gcStop = make(chan struct{})
		notify, stop := l.gcNotify, l.gcStop
		l.mu.Unlock()
		go l.groupCommitDaemon(notify, stop)
		return
	}
	l.gcOn = false
	stop := l.gcStop
	l.gcStop, l.gcNotify = nil, nil
	l.mu.Unlock()
	close(stop)
}

// SyncBatched makes the caller's appended records durable, sharing one
// fsync with every other committer waiting when the batcher daemon wakes.
// The caller must have appended its records before calling (they are, by
// the engine's commit sequence), so the covering sync includes them. With
// group commit off this is exactly Sync.
func (l *Log) SyncBatched() error {
	l.mu.Lock()
	if !l.gcOn {
		l.mu.Unlock()
		return l.Sync()
	}
	w := make(chan error, 1)
	l.gcWaiters = append(l.gcWaiters, w)
	notify := l.gcNotify
	l.mu.Unlock()
	select {
	case notify <- struct{}{}:
	default: // a wake-up is already pending
	}
	return <-w
}

// GroupCommitQueueDepth reports how many committers are currently queued
// behind the group-commit batcher waiting for their covering fsync. A
// persistently deep queue means the disk cannot keep up with the commit
// arrival rate — the admission controller's backpressure signal.
func (l *Log) GroupCommitQueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.gcWaiters)
}

// groupCommitDaemon answers each accumulated waiter batch with one sync.
// On stop it runs a final drain: every waiter registered before the gcOn
// flip is already in the slice, so nobody is left waiting.
func (l *Log) groupCommitDaemon(notify, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			l.answerWaiters()
			return
		case <-notify:
			l.answerWaiters()
		}
	}
}

func (l *Log) answerWaiters() {
	l.mu.Lock()
	batch := l.gcWaiters
	l.gcWaiters = nil
	l.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	err := l.Sync()
	l.gcBatches.Add(1)
	l.gcCommits.Add(int64(len(batch)))
	for _, w := range batch {
		w <- err
	}
}

// Stats returns a snapshot of log statistics.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:   l.appends.Load(),
		Bytes:     l.bytes.Load(),
		Syncs:     l.syncs.Load(),
		LogFulls:  l.logFulls.Load(),
		Active:    l.end - l.tailLocked(),
		ActiveTxn: len(l.firstOffset),
	}
}

// Records returns every record in the log in append order, for recovery.
func (l *Log) Records() ([]Record, error) {
	return l.ReadFrom(0)
}

// ReadFrom returns every record with LSN >= lsn in append order. Repeated
// calls with non-decreasing lsn — the replication fetch pattern — resume
// decoding from a cached byte offset instead of rescanning the file from
// byte 0, so polling a log of n records costs O(new records) per call.
func (l *Log) ReadFrom(lsn int64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		// Memory log: records are already decoded and LSN-ordered, and a
		// record never changes once appended, so the caller gets a view
		// (capacity clipped: its appends cannot reach the log), not a copy
		// — restart reads the whole log, and a copy of it would be a
		// quarter of the garbage a recovery makes.
		i := sort.Search(len(l.mem), func(i int) bool { return l.mem[i].LSN >= lsn })
		return l.mem[i:len(l.mem):len(l.mem)], nil
	}
	if err := l.f.Sync(); err != nil {
		return nil, fmt.Errorf("wal: sync before scan: %w", err)
	}
	l.syncedEnd = l.end
	f, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen for scan: %w", err)
	}
	defer f.Close()
	start := int64(0)
	if lsn >= l.scanLSN {
		start = l.scanOff
	}
	recs, consumed, err := readFrom(f, start)
	if err != nil {
		return nil, err
	}
	// Everything on disk is now decoded through start+consumed, and every
	// future append gets an LSN >= nextLSN at an offset >= that point.
	l.scanLSN = l.nextLSN
	l.scanOff = start + consumed
	i := sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= lsn })
	return recs[i:], nil
}

func readAll(f *os.File) ([]Record, error) {
	recs, _, err := readFrom(f, 0)
	return recs, err
}

// readFrom decodes records starting at byte offset start, returning them
// with the number of bytes of complete records consumed (a torn final
// record from a crash mid-append is tolerated and not counted).
func readFrom(f *os.File, start int64) ([]Record, int64, error) {
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var recs []Record
	var consumed int64
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return recs, consumed, nil
			}
			if err == io.ErrUnexpectedEOF {
				// Torn final record from a crash mid-append: ignore it.
				return recs, consumed, nil
			}
			return nil, 0, fmt.Errorf("wal: read header: %w", err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, consumed, nil // torn record
			}
			return nil, 0, fmt.Errorf("wal: read body: %w", err)
		}
		r, err := decodeRecord(body)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, r)
		consumed += int64(4 + len(body))
	}
}

// EncodeRecords flattens recs into the log's framed binary format — the
// same bytes Append writes to disk — for shipping record batches over the
// replication wire.
func EncodeRecords(recs []Record) []byte {
	var buf []byte
	for i := range recs {
		buf = recs[i].encode(buf)
	}
	return buf
}

// DecodeRecords parses a buffer produced by EncodeRecords. Unlike a crash
// recovery scan, truncation is an error here: the transport delivers whole
// batches or nothing.
func DecodeRecords(buf []byte) ([]Record, error) {
	var recs []Record
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("wal: truncated batch header")
		}
		n := int(binary.BigEndian.Uint32(buf[:4]))
		if len(buf) < 4+n {
			return nil, fmt.Errorf("wal: truncated batch record (%d of %d bytes)", len(buf)-4, n)
		}
		r, err := decodeRecord(buf[4 : 4+n])
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
		buf = buf[4+n:]
	}
	return recs, nil
}

// Close releases the underlying file, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
