package rpc

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// faultReset gives each test a clean default fault registry; these tests
// share it with the transport's points, so they must not run in parallel.
func faultReset(t *testing.T) {
	t.Helper()
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })
}

// settleCount waits for the server-side counter to catch up with the
// client-visible outcome (the serving goroutine increments it concurrently
// with the client's return), then reports its settled value.
func settleCount(c *atomic.Int64, want int64) int64 {
	deadline := time.Now().Add(time.Second)
	for c.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // catch overshoot, not just undershoot
	return c.Load()
}

func TestCallTimeout(t *testing.T) {
	faultReset(t)
	c := LocalPair(&echoFactory{delay: 200 * time.Millisecond})
	defer c.Close()
	c.SetCallTimeout(20 * time.Millisecond)
	_, err := c.Call(LinkFileReq{Name: "/data/a"})
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("Call with stalled server = %v, want ErrCallTimeout", err)
	}
	if rpcStats.timeouts.Load() == 0 {
		t.Error("timeout counter not incremented")
	}
}

func TestCallTimeoutRecovers(t *testing.T) {
	faultReset(t)
	f := &echoFactory{delay: 100 * time.Millisecond}
	c := LocalPair(f)
	defer c.Close()
	c.SetCallTimeout(20 * time.Millisecond)
	// The stalled agent times the call out and severs the connection;
	// LinkFile is not idempotent, so the error surfaces.
	if _, err := c.Call(LinkFileReq{Name: "/a"}); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("first call = %v, want ErrCallTimeout", err)
	}
	f.delay = 0 // the replacement agent answers promptly
	resp, err := c.Call(PingReq{})
	if err != nil || resp.Msg != "pong" {
		t.Fatalf("call after timeout = %+v, %v (want reconnect + pong)", resp, err)
	}
}

func TestIdempotentReissueOnDrop(t *testing.T) {
	faultReset(t)
	f := &echoFactory{}
	c := LocalPair(f)
	defer c.Close()
	if _, err := c.Call(PingReq{}); err != nil {
		t.Fatal(err)
	}
	// Drop the connection right before receiving the next Ping answer: the
	// request was sent (and handled), so only its idempotence permits the
	// silent re-issue on a fresh connection.
	fault.Default().Arm("rpc.recv.before", fault.Action{Drop: true}, fault.Match("Ping"), fault.Times(1))
	handledBefore := f.handled.Load()
	resp, err := c.Call(PingReq{})
	if err != nil || resp.Msg != "pong" {
		t.Fatalf("dropped ping = %+v, %v, want transparent re-issue", resp, err)
	}
	if got := settleCount(&f.handled, handledBefore+2) - handledBefore; got != 2 {
		t.Errorf("server handled %d requests, want 2 (original + re-issue)", got)
	}
	if rpcStats.reissues.Load() == 0 {
		t.Error("reissue counter not incremented")
	}
}

func TestNonIdempotentNotReissued(t *testing.T) {
	faultReset(t)
	f := &echoFactory{}
	c := LocalPair(f)
	defer c.Close()
	if _, err := c.Call(PingReq{}); err != nil {
		t.Fatal(err)
	}
	fault.Default().Arm("rpc.recv.before", fault.Action{Drop: true}, fault.Match("LinkFile"), fault.Times(1))
	handledBefore := f.handled.Load()
	if _, err := c.Call(LinkFileReq{Name: "/data/x"}); err == nil {
		t.Fatal("dropped LinkFile call succeeded, want transport error (not idempotent)")
	}
	if got := settleCount(&f.handled, handledBefore+1) - handledBefore; got != 1 {
		t.Errorf("server handled %d LinkFile requests, want exactly 1 (no blind re-issue)", got)
	}
	// The session recovers: the next call rides a fresh connection.
	resp, err := c.Call(PingReq{})
	if err != nil || resp.Msg != "pong" {
		t.Fatalf("call after drop = %+v, %v", resp, err)
	}
}

func TestPreSendDropRetriedForAnyRequest(t *testing.T) {
	faultReset(t)
	f := &echoFactory{}
	c := LocalPair(f)
	defer c.Close()
	// A failure before the request hits the wire is retriable even for
	// non-idempotent requests: the server never saw the original.
	fault.Default().Arm("rpc.send.before", fault.Action{Drop: true}, fault.Times(1))
	resp, err := c.Call(LinkFileReq{Name: "/data/y", RecID: 9})
	if err != nil || resp.N != 9 {
		t.Fatalf("link with pre-send drop = %+v, %v, want retried success", resp, err)
	}
	if f.handled.Load() != 1 {
		t.Errorf("server handled %d requests, want 1", f.handled.Load())
	}
}

func TestServerCrashSeversAndRecovers(t *testing.T) {
	faultReset(t)
	f := &echoFactory{}
	c := LocalPair(f)
	defer c.Close()
	// An injected server-side crash kills the serving goroutine (closing
	// its agent) without killing the process; the client re-issues the
	// idempotent Ping against a fresh agent.
	fault.Default().Arm("rpc.server.handle", fault.Action{Crash: true}, fault.Times(1))
	resp, err := c.Call(PingReq{})
	if err != nil || resp.Msg != "pong" {
		t.Fatalf("ping through crash = %+v, %v", resp, err)
	}
	if f.agents.Load() != 2 {
		t.Errorf("agents spawned = %d, want 2 (crashed + replacement)", f.agents.Load())
	}
	if f.closed.Load() != 1 {
		t.Errorf("agents closed = %d, want 1 (the crashed one)", f.closed.Load())
	}
}

func TestDialFailureExhaustsRetries(t *testing.T) {
	faultReset(t)
	dialErr := errors.New("endpoint down")
	calls := 0
	c, err := NewClientDialer(func() (io.ReadWriteCloser, error) {
		calls++
		if calls == 1 {
			hostSide, dlfmSide := net.Pipe()
			go ServeConn(dlfmSide, (&echoFactory{}).NewAgent())
			return hostSide, nil
		}
		return nil, dialErr
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(PingReq{}); err != nil {
		t.Fatal(err)
	}
	// Sever, then every redial fails: the error must surface, not loop.
	fault.Default().Arm("rpc.recv.before", fault.Action{Drop: true}, fault.Times(1))
	if _, err := c.Call(PingReq{}); !errors.Is(err, dialErr) {
		t.Fatalf("call with dead endpoint = %v, want the dial error", err)
	}
}
