package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ErrCallTimeout marks a Call that exceeded its per-call deadline: the DLFM
// stalled rather than died. The connection is severed (its agent serves
// requests in order, so every later call would queue behind the stalled
// one) and redialled on the next use.
var ErrCallTimeout = errors.New("rpc: call timed out")

// DefaultCallTimeout is the per-call I/O deadline, echoing the paper's 60 s
// lock timeout: any single DLFM request should resolve within one lock wait.
const DefaultCallTimeout = 60 * time.Second

// defaultRedialRetries bounds the reconnect/re-issue loop for idempotent
// calls (capped exponential backoff with jitter between attempts).
const defaultRedialRetries = 4

// serverPipelineDepth bounds how many decoded-but-unhandled requests the
// server buffers per connection. Beyond this the reader stops decoding and
// the client's sends block — natural backpressure.
const serverPipelineDepth = 16

// Fault points woven through both transports (net.Pipe and TCP). The client
// points fire with the request name as detail, so a chaos run can target
// e.g. only Commit traffic via fault.Match("Commit").
var (
	fpSendBefore   = fault.P("rpc.send.before")
	fpRecvBefore   = fault.P("rpc.recv.before")
	fpServerHandle = fault.P("rpc.server.handle")
)

// Transport-wide counters (all clients in the process); Instrument puts
// them on a registry.
var rpcStats struct {
	timeouts   obs.Counter
	reconnects obs.Counter
	reissues   obs.Counter
	inflight   obs.Gauge
}

// Instrument registers the transport counters on reg.
func Instrument(reg *obs.Registry) {
	reg.RegisterCounter("rpc_call_timeouts_total", &rpcStats.timeouts)
	reg.RegisterCounter("rpc_reconnects_total", &rpcStats.reconnects)
	reg.RegisterCounter("rpc_reissues_total", &rpcStats.reissues)
	reg.GaugeFunc("rpc_inflight", func() float64 { return float64(rpcStats.inflight.Load()) })
}

// writeDeadliner is the optional conn capability behind send deadlines;
// both net.Conn and net.Pipe implement it. Only the write half is armed:
// reads are owned by the per-connection reader goroutine, whose lifetime is
// bounded by severing the connection, not by deadlines.
type writeDeadliner interface{ SetWriteDeadline(t time.Time) error }

// Agent serves one connection's requests — the paper's DLFM child agent.
// Handle is called serially, one request at a time, in arrival order.
type Agent interface {
	Handle(req any) Response
	// Close releases the agent's resources (its local database connection)
	// when the peer disconnects.
	Close()
}

// TracedAgent is the optional extension an Agent implements to receive the
// caller's span context from the request frame. ServeConn prefers HandleCtx
// when available; plain Agents keep working unchanged.
type TracedAgent interface {
	HandleCtx(ctx obs.SpanCtx, req any) Response
}

// AgentFactory creates a child agent per accepted connection, exactly as
// the DLFM main daemon "spawns the child agent when a connect request from
// a DB2 agent is received" (Section 3.5).
type AgentFactory interface {
	NewAgent() Agent
}

// pendingCall tracks one in-flight request awaiting its demuxed reply.
// done is buffered (capacity 1) and receives exactly one CallResult: either
// the matched reply or a transport error when the connection dies. Once
// that result is received the call is recycled.
type pendingCall struct {
	done chan CallResult
}

var pendingCalls = sync.Pool{New: func() any { return &pendingCall{done: make(chan CallResult, 1)} }}

// deadlines recycles per-call deadline timers. Only a timer stopped before
// it fired goes back, so a reused timer never carries a stale tick.
var deadlines sync.Pool

func startDeadline(d time.Duration) *time.Timer {
	if t, _ := deadlines.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// Client is the host side of one connection. Requests are tagged with a
// sequence id and may be pipelined: concurrent Calls are all written to the
// connection immediately and a single reader goroutine demultiplexes the
// replies, so a host session's parallel prepare fan-out and the resolution
// daemon no longer convoy on one mutex. The DLFM child agent still handles
// requests serially in arrival order (see ServeConn), preserving the
// paper's one-request-at-a-time child-agent semantics per connection.
//
// The client survives transport failures: a broken connection is redialled
// (when a redial function is available — Dial, LocalPair, and
// NewClientDialer install one) with capped exponential backoff plus jitter,
// and idempotent requests — notably phase-2 Commit/Abort, whose DLFM-side
// processing tolerates re-delivery — are safely re-issued on the new
// connection. Non-idempotent requests fail fast once sent, but the next
// Call still gets a fresh connection.
type Client struct {
	// sendMu serializes encodes and guards wbuf, the reused frame buffer;
	// it may be held across a blocking write. mu guards connection state
	// and the pending map and is never held across I/O — the reader
	// goroutine takes it between replies, so holding it through a stalled
	// write would stop reply draining and deadlock the pipeline. Lock
	// order: sendMu before mu.
	sendMu sync.Mutex
	wbuf   []byte
	mu     sync.Mutex
	conn   io.ReadWriteCloser
	tracer *obs.Tracer
	redial func() (io.ReadWriteCloser, error)
	broken bool
	// idleSever records that the connection died with no calls in flight.
	// The next send must surface one transport error (as a write to the
	// dead conn would have) instead of transparently redialling: the
	// server-side agent carried this client's transaction state, and a
	// non-idempotent request (Prepare!) silently re-sent to a fresh agent
	// would be adopted as an empty transaction and voted yes — breaking
	// 2PC atomicity. Failing once routes the session through its normal
	// participant-failure handling; idempotent requests retry through the
	// redial exactly as they would have after a failed write.
	idleSever bool
	// severedByCall marks that the current connection was severed by a
	// call path that already surfaced an error (send failure, injected
	// fault, per-call timeout) — the reader must not also flag an idle
	// death for it.
	severedByCall bool
	started       bool // reader goroutine running for current conn
	gen           int  // connection generation; bumps on redial
	seq           uint64
	pending       map[uint64]*pendingCall // in-flight on the current connection
	timeout       time.Duration           // per-call deadline; <0 disables
	retries       int                     // reconnect/re-issue attempts
}

// SetTracer directs rpc_reissue/rpc_reconnect marks at tr (nil disables).
func (c *Client) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// SetCallTimeout overrides the per-call I/O deadline (0 restores the
// default, negative disables deadlines entirely).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// NewClient wraps an established connection. Without a redial function the
// client cannot reconnect; broken stays broken.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{
		conn:    conn,
		pending: make(map[uint64]*pendingCall),
		timeout: DefaultCallTimeout,
		retries: defaultRedialRetries,
	}
}

// NewClientDialer dials through dial and keeps it for reconnects.
func NewClientDialer(dial func() (io.ReadWriteCloser, error)) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.redial = dial
	return c, nil
}

// Dial connects to a DLFM server over TCP, reconnecting on failures.
func Dial(addr string) (*Client, error) {
	return NewClientDialer(func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
		}
		return conn, nil
	})
}

// Call sends req and waits for the response. A transport failure (the DLFM
// died, stalled past the call deadline, or the connection broke) is
// returned as an error, distinct from an application-level error code
// inside the Response. Failures before the request reaches the wire are
// always retried against a fresh connection; failures after are retried
// only for idempotent requests.
func (c *Client) Call(req any) (Response, error) {
	return c.CallCtx(obs.SpanCtx{}, req)
}

// CallCtx is Call with a span context carried to the server in the
// request frame, so the agent's handling spans attach under the caller's RPC
// span. The zero context is valid (unsampled).
func (c *Client) CallCtx(ctx obs.SpanCtx, req any) (Response, error) {
	bo := fault.Backoff{Base: 2 * time.Millisecond, Cap: 100 * time.Millisecond}
	var lastErr error
	for attempt := 0; ; attempt++ {
		sent := false
		resp, err := c.call1(ctx, req, &sent)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if c.redial == nil || (sent && !Idempotent(req)) || attempt >= c.retries {
			return Response{}, lastErr
		}
		if sent {
			rpcStats.reissues.Add(1)
			c.tracer.Emit(TxnOf(req), "rpc", "rpc_reissue", Name(req))
		}
		if d := bo.Delay(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// call1 performs one send and waits for the demuxed reply, applying the
// per-call deadline. sent is set once the request may have reached the
// server.
func (c *Client) call1(ctx obs.SpanCtx, req any, sent *bool) (Response, error) {
	pc, gen, err := c.send(ctx, req, sent)
	if err != nil {
		return Response{}, err
	}
	// Fire the pre-receive fault point: an injected error here models the
	// connection dropping after the request reached the server but before
	// the reply came back (the classic idempotence window).
	if ferr := fpRecvBefore.FireDetail(Name(req)); ferr != nil {
		c.severGen(gen)
		<-pc.done // consume the drain so the call completes exactly once
		pendingCalls.Put(pc)
		rpcStats.inflight.Add(-1)
		return Response{}, fmt.Errorf("rpc: receive: %w", ferr)
	}
	res := c.await(pc, gen)
	return res.Resp, res.Err
}

// await waits for a sent call's result under the per-call deadline; Call
// and Go both end here. A call that times out severs its connection
// generation (see ErrCallTimeout) and fails with ErrCallTimeout.
func (c *Client) await(pc *pendingCall, gen int) CallResult {
	defer rpcStats.inflight.Add(-1)
	defer pendingCalls.Put(pc)
	timeout := c.callTimeout()
	if timeout < 0 {
		return <-pc.done
	}
	timer := startDeadline(timeout)
	select {
	case res := <-pc.done:
		if timer.Stop() {
			deadlines.Put(timer)
		}
		return res
	case <-timer.C:
	}
	// Prefer a reply that raced the timer.
	select {
	case res := <-pc.done:
		return res
	default:
	}
	c.severGen(gen)
	<-pc.done // reader drains every pending call once severed
	rpcStats.timeouts.Add(1)
	return CallResult{Err: fmt.Errorf("rpc: receive: %w: no reply within %v", ErrCallTimeout, timeout)}
}

// send encodes one request on the current connection, registering it in the
// pending map first so the reader can match the reply no matter how quickly
// it arrives. Returns the pending call and the connection generation it was
// sent on.
func (c *Client) send(ctx obs.SpanCtx, req any, sent *bool) (*pendingCall, int, error) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	if c.idleSever {
		c.idleSever = false
		*sent = true // as if the write to the dead conn had failed
		c.mu.Unlock()
		return nil, 0, errors.New("rpc: send: connection severed while idle")
	}
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return nil, 0, err
	}
	if err := fpSendBefore.FireDetail(Name(req)); err != nil {
		c.severLocked()
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("rpc: send: %w", err)
	}
	c.seq++
	seq := c.seq
	pc := pendingCalls.Get().(*pendingCall)
	c.pending[seq] = pc
	if c.timeout == 0 {
		c.timeout = DefaultCallTimeout
	}
	conn, gen, timeout := c.conn, c.gen, c.timeout
	c.mu.Unlock()
	// Write outside mu: a stalled peer blocks the write (bounded by the
	// deadline below) and must not stop the reader from draining replies.
	// sendMu is still held, so no other sender or redial can interleave.
	*sent = true
	frame, err := appendRequest(c.wbuf, envelope{seq: seq, trace: ctx, req: req})
	c.wbuf = reuse(frame)
	if err != nil {
		// Nothing reached the wire; the connection is still good.
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, 0, err
	}
	setWriteDeadline(conn, timeout)
	_, err = conn.Write(frame)
	clearWriteDeadline(conn)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		if c.gen == gen {
			c.severLocked()
		}
		c.mu.Unlock()
		return nil, 0, c.transportErr("send", err)
	}
	rpcStats.inflight.Add(1)
	return pc, gen, nil
}

// readLoop is the per-connection reader: it decodes reply frames and routes
// each to its pending call by sequence id. On any read or decode failure it
// fails every in-flight call on this connection — a stream that lost its
// framing cannot be trusted past that point, so a bad reply kills the
// whole connection, exactly as a child-agent death would.
func (c *Client) readLoop(conn io.Reader, gen int) {
	r := bufio.NewReader(conn)
	var buf []byte
	resp := new(Response)
	for {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			c.connFailed(gen, err)
			return
		}
		seq, err := decodeReply(buf, resp)
		buf = reuse(buf)
		if err != nil {
			c.connFailed(gen, err)
			return
		}
		c.mu.Lock()
		if c.gen != gen {
			c.mu.Unlock()
			return
		}
		pc := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if pc != nil {
			pc.done <- CallResult{Resp: *resp}
		}
	}
}

// connFailed marks generation gen broken and fails all its pending calls.
// Map removal happens under the mutex, so each pending call is completed
// exactly once even when a redial races the drain.
func (c *Client) connFailed(gen int, err error) {
	c.mu.Lock()
	if c.gen != gen {
		c.mu.Unlock()
		return
	}
	c.broken = true
	c.conn.Close()
	drained := c.pending
	c.pending = make(map[uint64]*pendingCall)
	if len(drained) == 0 && !c.severedByCall {
		// Nobody was in flight to observe the death; the next sender
		// must (see idleSever).
		c.idleSever = true
	}
	c.mu.Unlock()
	terr := c.transportErr("receive", err)
	for _, pc := range drained {
		pc.done <- CallResult{Err: terr}
	}
}

// ensureConnLocked redials a broken connection, if a redial function
// exists. Any calls still pending from the dead connection are failed here
// (the old reader normally does it, but it may not have observed the close
// yet and its drain is gen-gated).
func (c *Client) ensureConnLocked() error {
	if !c.started {
		// First use of a conn handed to NewClient: start its reader.
		c.started = true
		go c.readLoop(c.conn, c.gen)
	}
	if !c.broken {
		return nil
	}
	if c.redial == nil {
		return errors.New("rpc: connection is broken and not redialable")
	}
	for seq, pc := range c.pending {
		delete(c.pending, seq)
		pc.done <- CallResult{Err: errors.New("rpc: receive: connection severed")}
	}
	conn, err := c.redial()
	if err != nil {
		return fmt.Errorf("rpc: reconnect: %w", err)
	}
	c.conn = conn
	c.broken = false
	c.severedByCall = false
	c.gen++
	go c.readLoop(conn, c.gen)
	rpcStats.reconnects.Add(1)
	c.tracer.Emit(0, "rpc", "rpc_reconnect", "")
	return nil
}

// severLocked closes and marks the connection broken (c.mu held). The
// reader goroutine observes the close and drains any pending calls.
func (c *Client) severLocked() {
	c.conn.Close()
	c.broken = true
	c.severedByCall = true
}

// severGen severs the connection only if it is still generation gen; a call
// that timed out must not kill the healthy successor connection.
func (c *Client) severGen(gen int) {
	c.mu.Lock()
	if c.gen == gen {
		c.severLocked()
	}
	c.mu.Unlock()
}

func (c *Client) callTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout == 0 {
		c.timeout = DefaultCallTimeout
	}
	return c.timeout
}

// setWriteDeadline bounds how long a frame write may block (a stalled
// server that stops reading would otherwise park the sender forever). It is
// cleared after the write: an armed net.Pipe deadline holds a timer that
// would keep a closed pipe reachable until it fires.
func setWriteDeadline(conn io.ReadWriteCloser, timeout time.Duration) {
	if timeout < 0 {
		return
	}
	if d, ok := conn.(writeDeadliner); ok {
		d.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck
	}
}

func clearWriteDeadline(conn io.ReadWriteCloser) {
	if d, ok := conn.(writeDeadliner); ok {
		d.SetWriteDeadline(time.Time{}) //nolint:errcheck
	}
}

// transportErr classifies an I/O failure, mapping deadline expiry to the
// typed ErrCallTimeout.
func (c *Client) transportErr(what string, err error) error {
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		rpcStats.timeouts.Add(1)
		return fmt.Errorf("rpc: %s: %w: %v", what, ErrCallTimeout, err)
	}
	return fmt.Errorf("rpc: %s: %w", what, err)
}

// CallResult carries an asynchronous call's outcome.
type CallResult struct {
	Resp Response
	Err  error
}

// Go sends req immediately and returns a channel delivering the response.
// The host's async commit mode uses it: the session moves on while the DLFM
// child is still doing the commit processing (Section 4's asynchronous-
// commit analysis). Unlike Call, Go never re-issues; but it applies the
// same per-call deadline, so a hung DLFM fails the call with ErrCallTimeout
// and severs the connection instead of wedging the client forever.
func (c *Client) Go(req any) <-chan CallResult {
	return c.GoCtx(obs.SpanCtx{}, req)
}

// GoCtx is Go with a span context carried in the request frame (see CallCtx).
func (c *Client) GoCtx(ctx obs.SpanCtx, req any) <-chan CallResult {
	out := make(chan CallResult, 1)
	var sent bool
	pc, gen, err := c.send(ctx, req, &sent)
	if err != nil {
		out <- CallResult{Err: err}
		return out
	}
	go func() { out <- c.await(pc, gen) }()
	return out
}

// Close tears down the connection. In-flight calls fail with a transport
// error as the reader observes the close.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = true
	return c.conn.Close()
}

// Server accepts connections and runs one agent per connection.
type Server struct {
	ln      net.Listener
	factory AgentFactory

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts accepting on ln. It returns immediately; the accept loop
// runs until Close.
func Serve(ln net.Listener, factory AgentFactory) *Server {
	s := &Server{ln: ln, factory: factory, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address (for clients to dial).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ServeConn(conn, s.factory.NewAgent())
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs every live connection (as a DLFM crash
// would), and waits for agent goroutines to finish.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// ServeConn runs the request loop for one connection until the peer
// disconnects, then closes the agent. A reader goroutine decodes pipelined
// requests into a bounded queue while the handler loop dispatches them —
// serially and in arrival order, preserving the child-agent semantics the
// paper's deadlock analysis depends on (a session's next operation queues
// behind in-progress commit work; the queue just moves the blocking from
// the client's send to the server's dispatch). An injected fault.CrashPanic
// from inside the handler severs the connection without a response — the
// child agent "process" died mid-request — while agent.Close still runs,
// rolling back its in-flight local transaction as a real process exit
// would.
func ServeConn(conn io.ReadWriteCloser, agent Agent) {
	defer agent.Close()
	defer conn.Close()
	queue := make(chan envelope, serverPipelineDepth)
	done := make(chan struct{})
	go func() {
		// Handler loop: owns the reply buffer; serial dispatch in arrival
		// order.
		defer close(done)
		var wbuf []byte
		for env := range queue {
			resp, severed := safeHandle(agent, env.trace, env.req)
			if severed {
				conn.Close()
				return
			}
			frame, err := appendReply(wbuf, env.seq, &resp)
			if err != nil {
				// Too large for one frame: say so instead of severing (a
				// short reply always fits).
				frame, _ = appendReply(frame, env.seq, &Response{Code: "severe", Msg: err.Error()})
			}
			wbuf = reuse(frame)
			if _, err := conn.Write(frame); err != nil {
				conn.Close()
				return
			}
		}
	}()
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			break
		}
		env, err := decodeRequest(buf)
		buf = reuse(buf)
		if err != nil {
			break
		}
		select {
		case queue <- env:
		case <-done:
			close(queue)
			return
		}
	}
	close(queue)
	<-done
}

// safeHandle dispatches one request through the server-side fault point and
// the agent, converting injected crashes into a severed connection. Agents
// implementing TracedAgent receive the request frame's span context.
func safeHandle(agent Agent, ctx obs.SpanCtx, req any) (resp Response, severed bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := fault.AsCrash(v); ok {
				severed = true
				return
			}
			panic(v)
		}
	}()
	if err := fpServerHandle.FireDetail(Name(req)); err != nil {
		if errors.Is(err, fault.ErrDrop) {
			return Response{}, true
		}
		return Response{Code: "severe", Msg: err.Error()}, false
	}
	if ta, ok := agent.(TracedAgent); ok {
		return ta.HandleCtx(ctx, req), false
	}
	return agent.Handle(req), false
}

// LocalPair creates an in-process client/agent pair over a synchronous
// pipe: the same frames and child-agent serialization without
// sockets. Tests and single-process benchmarks use it. Reconnects spawn a
// fresh agent, exactly as redialling a TCP server would.
func LocalPair(factory AgentFactory) *Client {
	c, _ := NewClientDialer(func() (io.ReadWriteCloser, error) { //nolint:errcheck
		hostSide, dlfmSide := net.Pipe()
		go ServeConn(dlfmSide, factory.NewAgent())
		return hostSide, nil
	})
	return c
}
