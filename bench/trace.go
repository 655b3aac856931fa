package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
)

// span is one timed interval the harness recorded around a call into a
// layer. Times are nanoseconds since the recorder started. Txn is the host
// transaction id, shared by every span of one transaction.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Txn    int64  `json:"txn"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerOf is the span's layer: the part of its name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. Each producer
// goroutine (a client, a served connection) appends to its own lane, so
// recording takes no lock.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	rec   *recorder
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// lane returns a new append-only span buffer owned by one goroutine.
func (r *recorder) lane(capacity int) *lane {
	l := &lane{rec: r, spans: make([]span, 0, capacity)}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// add records a finished span and returns its id.
func (l *lane) add(parent, txn int64, name string, start, end int64) int64 {
	id := l.rec.nextID.Add(1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Txn: txn, Name: name, Start: start, End: end})
	return id
}

// all returns every recorded span. Call only after the producers stopped.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its direct children (children that
// overlap each other — parallel prepares — are not subtracted twice, and a
// child's overhang outside the parent is ignored).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}

// selfByLayer sums self time per layer, in nanoseconds.
func selfByLayer(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// writeTrace writes spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tap watches one host→DLFM connection during a traced pass, from both
// ends. The host end (tapConn) counts bytes and times each round trip at the
// transport: first request byte written → last reply byte read. A session
// keeps one request outstanding per connection, so a write after a read
// starts the next round trip. The server end (tapAgent) times each Handle
// and learns the request's name and transaction. The k-th round trip and
// the k-th Handle on a connection are the same call; that pairs them into
// parent and child.
type tap struct {
	rec    *recorder
	server string

	// Host end. Write runs on the calling session's goroutine and Read on
	// the rpc client's reader goroutine, hence the mutex.
	mu       sync.Mutex
	inflight bool
	start    int64
	lastRead int64
	trips    [][2]int64
	bytes    int64
	// Server end; rpc.ServeConn dispatches serially. done is closed when
	// the served connection has ended and handles is safe to read.
	handles []span
	done    chan struct{}
}

// tapConn is the host end of a tapped connection.
type tapConn struct {
	net.Conn
	t *tap
}

func (c tapConn) Write(p []byte) (int, error) {
	if t := c.t; t.rec.on.Load() {
		now := t.rec.now()
		t.mu.Lock()
		t.closeTripLocked()
		if !t.inflight {
			t.inflight, t.start = true, now
		}
		t.bytes += int64(len(p))
		t.mu.Unlock()
	}
	return c.Conn.Write(p)
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if t := c.t; n > 0 && t.rec.on.Load() {
		now := t.rec.now()
		t.mu.Lock()
		t.lastRead = now
		t.bytes += int64(n)
		t.mu.Unlock()
	}
	return n, err
}

// closeTripLocked ends the round trip in flight once its reply was read.
func (t *tap) closeTripLocked() {
	if t.inflight && t.lastRead > t.start {
		t.trips = append(t.trips, [2]int64{t.start, t.lastRead})
		t.inflight = false
	}
}

// tapAgent is the server end: the DLFM's agent with a span around Handle.
type tapAgent struct {
	rpc.Agent
	t *tap
}

func (a tapAgent) Handle(req any) rpc.Response { return a.HandleCtx(obs.SpanCtx{}, req) }

func (a tapAgent) HandleCtx(ctx obs.SpanCtx, req any) rpc.Response {
	dispatch := func() rpc.Response {
		if ta, ok := a.Agent.(rpc.TracedAgent); ok {
			return ta.HandleCtx(ctx, req)
		}
		return a.Agent.Handle(req)
	}
	if !a.t.rec.on.Load() {
		return dispatch()
	}
	start := a.t.rec.now()
	resp := dispatch()
	a.t.handles = append(a.t.handles, span{
		Txn: rpc.TxnOf(req), Name: "core.handle." + rpc.Name(req), Start: start, End: a.t.rec.now(),
	})
	return resp
}

// stitch turns the connection's round trips and handles into spans: an
// rpc.call under the harness span of the same transaction that contains its
// start, and the handle as its child. parentOf finds that harness span (0
// when there is none: a daemon's or a resolver's call). Call only after the
// connection went quiet.
func (t *tap) stitch(l *lane, parentOf func(txn, at int64) int64) {
	t.mu.Lock()
	t.closeTripLocked()
	t.mu.Unlock()
	paired := len(t.trips) == len(t.handles)
	for i, h := range t.handles {
		parent := int64(0)
		if paired {
			trip := t.trips[i]
			name := "rpc.call." + strings.TrimPrefix(h.Name, "core.handle.")
			parent = l.add(parentOf(h.Txn, trip[0]), h.Txn, name, trip[0], trip[1])
		} else {
			parent = parentOf(h.Txn, h.Start)
		}
		l.add(parent, h.Txn, h.Name, h.Start, h.End)
	}
}
