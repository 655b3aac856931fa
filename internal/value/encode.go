package value

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding of values and rows, used by the write-ahead log and the
// checkpoint snapshots. The format is self-describing and versionless:
// each value is a 1-byte kind tag followed by a kind-specific payload.

// AppendValue appends the binary encoding of v to buf and returns the
// extended slice.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(v.i))
		buf = append(buf, tmp[:]...)
	case KindString:
		var tmp [4]byte
		binary.BigEndian.PutUint32(tmp[:], uint32(len(v.s)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, v.s...)
	}
	return buf
}

// DecodeValue decodes one value from buf, returning the value and the
// number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) < 1 {
		return Null, 0, fmt.Errorf("value: truncated value encoding")
	}
	kind := Kind(buf[0])
	switch kind {
	case KindNull:
		return Null, 1, nil
	case KindBool, KindInt:
		if len(buf) < 9 {
			return Null, 0, fmt.Errorf("value: truncated %s encoding", kind)
		}
		i := int64(binary.BigEndian.Uint64(buf[1:9]))
		return Value{kind: kind, i: i}, 9, nil
	case KindString:
		if len(buf) < 5 {
			return Null, 0, fmt.Errorf("value: truncated VARCHAR header")
		}
		n := int(binary.BigEndian.Uint32(buf[1:5]))
		if len(buf) < 5+n {
			return Null, 0, fmt.Errorf("value: truncated VARCHAR payload (want %d bytes)", n)
		}
		return Value{kind: KindString, s: string(buf[5 : 5+n])}, 5 + n, nil
	default:
		return Null, 0, fmt.Errorf("value: unknown kind tag %d", buf[0])
	}
}

// AppendRow appends the binary encoding of r (a 4-byte length prefix
// followed by each value) to buf.
func AppendRow(buf []byte, r Row) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(r)))
	buf = append(buf, tmp[:]...)
	for _, v := range r {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeRow decodes one row from buf, returning the row and the number of
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("value: truncated row header")
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	// Every value takes at least its 1-byte kind tag, so a count past the
	// remaining bytes is corrupt; rejecting it here keeps a hostile count
	// from sizing the allocation below.
	if n > len(buf)-4 {
		return nil, 0, fmt.Errorf("value: row claims %d columns in %d bytes", n, len(buf)-4)
	}
	off := 4
	row := make(Row, 0, n)
	for i := 0; i < n; i++ {
		v, used, err := DecodeValue(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("value: row column %d: %w", i, err)
		}
		row = append(row, v)
		off += used
	}
	return row, off, nil
}
