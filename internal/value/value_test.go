package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindString: "VARCHAR",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	if Int(7).Int64() != 7 {
		t.Error("Int(7).Int64() != 7")
	}
	if Str("x").Text() != "x" {
		t.Error(`Str("x").Text() != "x"`)
	}
	if !Bool(true).IsTrue() || Bool(false).IsTrue() {
		t.Error("Bool truth values wrong")
	}
	if Int(1).IsTrue() {
		t.Error("Int(1).IsTrue() should be false: not a boolean")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Str.Int64", func() { Str("a").Int64() })
	mustPanic("Int.Text", func() { Int(1).Text() })
	mustPanic("Null.Text", func() { Null.Text() })
}

func TestCompareWithinKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(5), Int(5), 0},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("abc"), Str("abc"), 0},
		{Str("ab"), Str("abc"), -1},
		{Bool(false), Bool(true), -1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAcrossKinds(t *testing.T) {
	// NULL < BOOLEAN < INTEGER < VARCHAR.
	ordered := []Value{Null, Bool(true), Int(math.MinInt64), Str("")}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Int(-42), "-42"},
		{Str("hello"), "hello"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSQLLiteralEscaping(t *testing.T) {
	if got := Str("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral = %q, want 'o''brien'", got)
	}
	if got := Int(3).SQLLiteral(); got != "3" {
		t.Errorf("SQLLiteral(Int) = %q", got)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].Int64() != 1 {
		t.Error("Clone shares backing array with original")
	}
	if Row(nil).Clone() != nil {
		t.Error("nil row Clone should be nil")
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{Int(1)}, Key{Int(2)}, -1},
		{Key{Int(1), Str("b")}, Key{Int(1), Str("a")}, 1},
		{Key{Int(1)}, Key{Int(1), Str("a")}, -1}, // prefix sorts first
		{Key{Int(1), Str("a")}, Key{Int(1), Str("a")}, 0},
		{Key{}, Key{Int(0)}, -1},
		{Key{}, Key{}, 0},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeyHasPrefix(t *testing.T) {
	k := Key{Str("f"), Int(0)}
	if !k.HasPrefix(Key{Str("f")}) {
		t.Error("HasPrefix single-column prefix failed")
	}
	if !k.HasPrefix(k) {
		t.Error("HasPrefix full key failed")
	}
	if k.HasPrefix(Key{Str("g")}) {
		t.Error("HasPrefix wrong prefix succeeded")
	}
	if k.HasPrefix(Key{Str("f"), Int(0), Int(1)}) {
		t.Error("HasPrefix longer-than-key prefix succeeded")
	}
}

func TestEncodeDecodeValueRoundTrip(t *testing.T) {
	vals := []Value{Null, Bool(true), Bool(false), Int(0), Int(-1), Int(math.MaxInt64), Str(""), Str("hello world"), Str("emb\x00edded")}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeValue(%v) consumed %d of %d bytes", v, n, len(buf))
		}
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("round trip of %v gave %v", v, got)
		}
	}
}

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	rows := []Row{
		nil,
		{},
		{Int(1)},
		{Int(1), Str("file.txt"), Null, Bool(true)},
	}
	for _, r := range rows {
		buf := AppendRow(nil, r)
		got, n, err := DecodeRow(buf)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", r, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeRow consumed %d of %d bytes", n, len(buf))
		}
		if len(got) != len(r) {
			t.Fatalf("row length %d, want %d", len(got), len(r))
		}
		for i := range r {
			if !got[i].Equal(r[i]) {
				t.Errorf("column %d: got %v, want %v", i, got[i], r[i])
			}
		}
	}
}

func TestDecodeValueErrors(t *testing.T) {
	bad := [][]byte{
		{},                                  // empty
		{byte(KindInt)},                     // truncated int
		{byte(KindString)},                  // truncated header
		{byte(KindString), 0, 0, 0, 5, 'a'}, // truncated payload
		{200},                               // unknown kind
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(%v) succeeded, want error", b)
		}
	}
	if _, _, err := DecodeRow([]byte{0, 0}); err == nil {
		t.Error("DecodeRow truncated header succeeded")
	}
	if _, _, err := DecodeRow([]byte{0, 0, 0, 1}); err == nil {
		t.Error("DecodeRow missing column succeeded")
	}
}

// A column count larger than the bytes left is rejected before anything is
// allocated for it, so a corrupt or hostile count cannot size a huge slice.
func TestDecodeRowOversizedCount(t *testing.T) {
	for _, b := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},
		{0, 0, 0, 3, byte(KindNull), byte(KindNull)},
	} {
		if _, _, err := DecodeRow(b); err == nil {
			t.Errorf("DecodeRow(%v) succeeded, want error", b)
		}
	}
	// The bound is inclusive: n one-byte NULLs in exactly n bytes decode.
	row, used, err := DecodeRow([]byte{0, 0, 0, 2, byte(KindNull), byte(KindNull)})
	if err != nil || len(row) != 2 || used != 6 {
		t.Fatalf("DecodeRow of two NULLs = %v, %d, %v", row, used, err)
	}
}

// Property: Compare is antisymmetric and round-trip encoding preserves order.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		buf := AppendValue(nil, Str(s))
		v, n, err := DecodeValue(buf)
		return err == nil && n == len(buf) && v.Kind() == KindString && v.Text() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyCompareTransitive(t *testing.T) {
	f := func(a, b, c int64, s1, s2, s3 string) bool {
		ka := Key{Int(a), Str(s1)}
		kb := Key{Int(b), Str(s2)}
		kc := Key{Int(c), Str(s3)}
		// If ka <= kb and kb <= kc then ka <= kc.
		if CompareKeys(ka, kb) <= 0 && CompareKeys(kb, kc) <= 0 {
			return CompareKeys(ka, kc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
