package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"

	"repro/internal/obs"
)

// Wire format. Every message is one frame: a 4-byte big-endian payload
// length, then the payload. A request payload is
//
//	seq uvarint | trace varint | span varint | tag uvarint | fields
//
// and a reply payload is seq uvarint followed by the Response fields. The
// tag is the request type's position in the registry. Fields are a
// struct's exported fields in declaration order: int and int64 as zig-zag
// varints, bool as one byte 0 or 1, string and []byte as a uvarint length
// and the bytes, other slices as a uvarint count and the elements.
// Decoding accepts only the encoder's own output (shortest varints, no
// trailing bytes), so a decoded message re-encodes to the bytes it came
// from, and an empty slice arrives as nil.

// maxFrame caps one frame's payload. A reader refuses a longer frame before
// reading it; a DLFM whose reply would exceed it answers "severe" instead.
// Frame buffers are reused per connection unless a large message grew
// them past keepFrame.
const (
	maxFrame  = 16 << 20
	keepFrame = 64 << 10
)

// reuse returns b for the next message, or nil if it grew too large to keep.
func reuse(b []byte) []byte {
	if cap(b) > keepFrame {
		return nil
	}
	return b
}

// errMalformed reports a payload the encoder could not have produced.
var errMalformed = errors.New("rpc: malformed message")

// envelope is one decoded request: its sequence id (replies carry it back,
// so the client can demultiplex pipelined calls), the caller's span context
// (zero when the txn is unsampled), and the request itself.
type envelope struct {
	seq   uint64
	trace obs.SpanCtx
	req   any
}

// wireKind reports whether the codec carries values of type t.
func wireKind(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int64, reflect.Bool, reflect.String:
		return true
	case reflect.Slice:
		return t.Elem().Kind() == reflect.Uint8 || wireKind(t.Elem())
	}
	return false
}

// checkWire panics unless every field of struct type t is exported and of
// a kind the codec carries; register calls it, so a message type the codec
// cannot send fails at start-up.
func checkWire(t reflect.Type) {
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); !f.IsExported() || !wireKind(f.Type) {
			panic(fmt.Sprintf("rpc: %s.%s (%s) cannot go on the wire", t.Name(), f.Name, f.Type))
		}
	}
}

// beginFrame starts a frame in b (reusing its storage) and endFrame fills
// in its length once the payload is appended.
func beginFrame(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

func endFrame(b []byte) ([]byte, error) {
	if len(b)-4 > maxFrame {
		return b, fmt.Errorf("rpc: %d-byte message exceeds the %d-byte frame cap", len(b)-4, maxFrame)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// appendRequest encodes env as one request frame into b's storage.
func appendRequest(b []byte, env envelope) ([]byte, error) {
	info, ok := lookup(env.req)
	if !ok {
		return b, fmt.Errorf("rpc: unregistered request type %T", env.req)
	}
	b = beginFrame(b)
	b = binary.AppendUvarint(b, env.seq)
	b = binary.AppendVarint(b, env.trace.Trace)
	b = binary.AppendVarint(b, env.trace.Span)
	b = binary.AppendUvarint(b, uint64(info.tag))
	return endFrame(appendValue(b, reflect.ValueOf(env.req)))
}

// appendReply encodes one reply frame into b's storage.
func appendReply(b []byte, seq uint64, resp *Response) ([]byte, error) {
	b = binary.AppendUvarint(beginFrame(b), seq)
	return endFrame(appendValue(b, reflect.ValueOf(resp).Elem()))
}

// appendValue appends v: a message struct field by field, or one field.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		for j := 0; j < v.Len(); j++ {
			b = appendValue(b, v.Index(j))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
	}
	return b
}

// decodeRequest decodes one request payload.
func decodeRequest(p []byte) (envelope, error) {
	d := decoder{b: p}
	env := envelope{seq: d.uvarint()}
	env.trace.Trace = d.varint()
	env.trace.Span = d.varint()
	tag := d.uvarint()
	if d.err == nil && tag >= uint64(len(byTag)) {
		d.err = fmt.Errorf("rpc: unknown request tag %d", tag)
	}
	if d.err != nil {
		return envelope{}, d.err
	}
	v := reflect.New(byTag[tag]).Elem()
	if err := d.message(v); err != nil {
		return envelope{}, err
	}
	env.req = v.Interface()
	return env, nil
}

// decodeReply decodes one reply payload into *resp, which it overwrites.
func decodeReply(p []byte, resp *Response) (seq uint64, err error) {
	*resp = Response{}
	d := decoder{b: p}
	seq = d.uvarint()
	return seq, d.message(reflect.ValueOf(resp).Elem())
}

// decoder reads a payload front to back; the first failure sticks.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errMalformed
	}
	d.b = nil
}

// take returns the next n bytes.
func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail()
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) { // overlong varints are not ours
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a length or element count. Every byte or element takes at
// least one byte, so a count above the bytes left is refused before
// anything is allocated for it.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

// message decodes v, the whole rest of the payload.
func (d *decoder) message(v reflect.Value) error {
	d.value(v)
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("rpc: %d trailing bytes after the message", len(d.b))
	}
	return d.err
}

// value decodes v (see appendValue). An empty slice stays nil.
func (d *decoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		if x := d.varint(); v.OverflowInt(x) {
			d.fail()
		} else {
			v.SetInt(x)
		}
	case reflect.Bool:
		if b := d.take(1); len(b) == 1 && b[0] <= 1 {
			v.SetBool(b[0] == 1)
		} else {
			d.fail()
		}
	case reflect.String:
		v.SetString(string(d.take(d.count())))
	case reflect.Slice:
		n := d.count()
		if n == 0 {
			return
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(slices.Clone(d.take(n)))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for j := 0; j < n && d.err == nil; j++ {
			d.value(v.Index(j))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField() && d.err == nil; i++ {
			d.value(v.Field(i))
		}
	}
}

// readFrame reads one frame and returns its payload in buf's storage. A
// header above maxFrame is refused unread; a long frame grows the buffer
// only as its bytes arrive, so a length that lies costs no more memory
// than the bytes actually sent.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if len(hdr) < 4 {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4) //nolint:errcheck // the 4 bytes are buffered
	if n > maxFrame {
		return buf, fmt.Errorf("rpc: %d-byte frame exceeds the %d-byte cap", n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4096)))
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
