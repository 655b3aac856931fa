package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

func readPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	p, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return p
}

// Every registered request type and a fully populated Response survive a
// trip through their frames unchanged.
func TestFramesRoundTrip(t *testing.T) {
	for i, req := range wireSamples {
		in := envelope{seq: uint64(1000 + i), trace: obs.SpanCtx{Trace: -7, Span: int64(i)}, req: req}
		out, err := decodeRequest(readPayload(t, requestFrame(t, in)))
		if err != nil {
			t.Fatalf("%s: %v", Name(req), err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s: sent %#v, got %#v", Name(req), in, out)
		}
	}
	var resp Response
	seq, err := decodeReply(readPayload(t, replyFrame(t, 42, fullResponse)), &resp)
	if err != nil || seq != 42 || !reflect.DeepEqual(resp, fullResponse) {
		t.Errorf("reply: sent %#v, got seq %d %#v, %v", fullResponse, seq, resp, err)
	}
	// Every Response field is set, so a field the codec skipped shows up.
	v := reflect.ValueOf(fullResponse)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullResponse leaves %s unset", v.Type().Field(i).Name)
		}
	}
}

func TestUnregisteredRequestIsRefused(t *testing.T) {
	if _, err := appendRequest(nil, envelope{req: struct{ X int }{1}}); err == nil {
		t.Fatal("an unregistered type was encoded")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A length or count that claims more than is there is refused before
// anything of that size is allocated.
func TestLyingLengthsAllocateNothing(t *testing.T) {
	const limit = 1 << 20
	hdr := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	cases := []struct {
		name  string
		frame []byte
	}{
		{"frame above the cap", append(hdr(maxFrame+1), "abc"...)},
		{"frame longer than the stream", append(hdr(maxFrame), "abc"...)},
	}
	for _, c := range cases {
		var err error
		if n := allocated(func() { _, err = readFrame(bufio.NewReader(bytes.NewReader(c.frame)), nil) }); n > limit {
			t.Errorf("%s: allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}

	huge := binary.AppendUvarint(nil, 1<<40)
	request := func(tag int, fields ...byte) []byte {
		return append([]byte{1, 0, 0, byte(tag)}, fields...)
	}
	payloads := []struct {
		name string
		p    []byte
		dec  func([]byte) error
	}{
		{"string", request(registry[reflect.TypeOf(IsLinkedReq{})].tag, huge...), decodeReq},
		{"[]int64", request(registry[reflect.TypeOf(ForgetReq{})].tag, huge...), decodeReq},
		{"[]string count", request(registry[reflect.TypeOf(MigrateDelReq{})].tag, append([]byte{2}, huge...)...), decodeReq},
		{"[]string element", request(registry[reflect.TypeOf(MigrateDelReq{})].tag, append([]byte{2, 1}, huge...)...), decodeReq},
		{"reply string", append([]byte{1}, huge...), decodeRep},
		{"reply []byte", replyWithData(huge), decodeRep},
	}
	for _, c := range payloads {
		var err error
		if n := allocated(func() { err = c.dec(c.p) }); n > limit {
			t.Errorf("%s: allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func decodeReq(p []byte) error { _, err := decodeRequest(p); return err }
func decodeRep(p []byte) error { _, err := decodeReply(p, new(Response)); return err }

// replyWithData is a reply payload whose every field before Data is zero
// and whose Data length is n.
func replyWithData(n []byte) []byte {
	p := []byte{1} // seq
	v := reflect.ValueOf(Response{})
	for i := 0; v.Type().Field(i).Name != "Data"; i++ {
		p = append(p, 0) // zero varint, false, or empty string/slice
	}
	return append(p, n...)
}

// Only the encoder's own bytes decode: an overlong varint, a bool other
// than 0 or 1, trailing bytes and an unknown tag are refused.
func TestNonCanonicalRefused(t *testing.T) {
	good := readPayload(t, requestFrame(t, envelope{seq: 1, req: ListIndoubtReq{Kept: true}}))
	if _, err := decodeRequest(good); err != nil {
		t.Fatalf("good payload: %v", err)
	}
	bad := map[string][]byte{
		"overlong seq":  append([]byte{0x81, 0x00}, good[1:]...),
		"bool 2":        append(append([]byte(nil), good[:len(good)-1]...), 2),
		"trailing byte": append(append([]byte(nil), good...), 0),
		"unknown tag":   {1, 0, 0, byte(len(byTag))},
		"empty":         {},
	}
	for name, p := range bad {
		if _, err := decodeRequest(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// A reply too large for one frame reaches the caller as a "severe"
// response, and the connection stays usable.
func TestOversizedReplyAnswersSevere(t *testing.T) {
	c := LocalPair(bigFactory{})
	defer c.Close()
	resp, err := c.Call(PingReq{})
	if err != nil || resp.Code != "severe" || !strings.Contains(resp.Msg, "frame cap") {
		t.Fatalf("oversized reply = %+v, %v; want severe", resp, err)
	}
	if resp, err := c.Call(IsLinkedReq{}); err != nil || !resp.OK() {
		t.Fatalf("call after oversized reply = %+v, %v", resp, err)
	}
}

type bigFactory struct{}

func (bigFactory) NewAgent() Agent { return bigFactory{} }
func (bigFactory) Close()          {}
func (bigFactory) Handle(req any) Response {
	if _, ok := req.(PingReq); ok {
		return Response{Data: make([]byte, maxFrame)}
	}
	return Response{}
}

// A frame cut short is an error, not a hang or a partial message.
func TestTruncatedFrame(t *testing.T) {
	frame := requestFrame(t, envelope{seq: 1, req: LinkFileReq{Name: "/a"}})
	for n := 0; n < len(frame); n++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:n])), nil)
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d of %d bytes: %v", n, len(frame), err)
		}
	}
}
