package value

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize guards the folded payload layout. Values are passed and
// returned by value on every evaluation path; at 64 bytes or less the Go
// compiler copies one with inline moves, while a larger struct (the old
// 80-byte layout with separate bool and float fields) is copied through a
// runtime duffcopy call, which profiles showed dominating synthesis.
func TestValueSize(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 64 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 64", sz)
	}
}

// TestFloatPayloadRoundTrip checks that floats stored as IEEE-754 bits in
// the shared payload word survive every reader: AsFloat returns the same
// bits, and Equivalent, Compare, Key and Format behave as for a float
// field, including on the special values.
func TestFloatPayloadRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		f      float64
		key    string
		format string
	}{
		{"-0.0", negZero, "n0", "-0.0"},
		{"NaN", math.NaN(), "nNaN", "NaN"},
		{"+Inf", math.Inf(1), "n+Inf", "Infinity"},
		{"-Inf", math.Inf(-1), "n-Inf", "-Infinity"},
		{"subnormal", math.SmallestNonzeroFloat64, "n5e-324", "5e-324"},
		{"1.5", 1.5, "n1.5", "1.5"},
	}
	for _, c := range cases {
		v := Float(c.f)
		if v.Kind() != KindFloat {
			t.Fatalf("%s: kind %s", c.name, v.Kind())
		}
		if got := v.AsFloat(); math.Float64bits(got) != math.Float64bits(c.f) {
			t.Errorf("%s: AsFloat bits %x, want %x", c.name, math.Float64bits(got), math.Float64bits(c.f))
		}
		if !Equivalent(v, Float(c.f)) {
			t.Errorf("%s: not equivalent to itself", c.name)
		}
		cmp, ok := Compare(v, Float(c.f))
		if math.IsNaN(c.f) {
			if ok != TriUnknown {
				t.Errorf("%s: Compare with itself = (%d, %v), want unknown", c.name, cmp, ok)
			}
		} else if cmp != 0 || ok != TriTrue {
			t.Errorf("%s: Compare with itself = (%d, %v), want (0, true)", c.name, cmp, ok)
		}
		if got := v.Key(); got != c.key {
			t.Errorf("%s: Key = %q, want %q", c.name, got, c.key)
		}
		var sb strings.Builder
		v.Format(&sb)
		if got := sb.String(); got != c.format {
			t.Errorf("%s: Format = %q, want %q", c.name, got, c.format)
		}
	}

	// Cross-value relations that a bit-level comparison would get wrong.
	if !Equivalent(Float(negZero), Float(0)) || !Equivalent(Float(negZero), Int(0)) {
		t.Error("-0.0 must be equivalent to 0.0 and to 0")
	}
	if Equal(Float(negZero), Float(0)) != TriTrue {
		t.Error("-0.0 = 0.0 must be true")
	}
	if c, ok := Compare(Float(negZero), Float(0)); c != 0 || ok != TriTrue {
		t.Errorf("Compare(-0.0, 0.0) = (%d, %v), want (0, true)", c, ok)
	}
	if c, _ := Compare(Float(math.SmallestNonzeroFloat64), Float(0)); c != 1 {
		t.Errorf("Compare(subnormal, 0.0) = %d, want 1", c)
	}
	if c, _ := Compare(Float(math.Inf(-1)), Float(math.Inf(1))); c != -1 {
		t.Errorf("Compare(-Inf, +Inf) = %d, want -1", c)
	}
	if Equal(Float(math.NaN()), Float(math.NaN())) != TriFalse {
		t.Error("NaN = NaN must be false")
	}
	if !Equivalent(Float(math.NaN()), Float(math.NaN())) {
		t.Error("NaN must be equivalent to NaN")
	}
	if Equivalent(Float(math.SmallestNonzeroFloat64), Int(0)) {
		t.Error("the smallest subnormal must not be equivalent to 0")
	}
	if got, _ := Neg(Float(0)); math.Float64bits(got.AsFloat()) != math.Float64bits(negZero) {
		t.Errorf("-(0.0) = %v, want -0.0", got)
	}
}

// TestBoolPayload checks that booleans stored as 0/1 in the payload word
// are indistinguishable from the True and False constants.
func TestBoolPayload(t *testing.T) {
	for _, x := range []bool{false, true} {
		want := False
		if x {
			want = True
		}
		v := Bool(x)
		if v.Kind() != KindBool || v.AsBool() != x {
			t.Fatalf("Bool(%v): kind %s, AsBool %v", x, v.Kind(), v.AsBool())
		}
		if !Equivalent(v, want) || Equal(v, want) != TriTrue || OrderCompare(v, want) != 0 {
			t.Errorf("Bool(%v) differs from its constant", x)
		}
		if v.Key() != want.Key() || v.String() != want.String() {
			t.Errorf("Bool(%v): key %q / %q, string %q / %q", x, v.Key(), want.Key(), v.String(), want.String())
		}
		if tr, ok := v.Truth(); !ok || tr != TriOf(x) {
			t.Errorf("Bool(%v).Truth() = %v, %v", x, tr, ok)
		}
	}
	if c, ok := Compare(False, True); c != -1 || ok != TriTrue {
		t.Errorf("Compare(false, true) = (%d, %v), want (-1, true)", c, ok)
	}
}

// TestAccessorsOnOtherKinds pins what the typed accessors return when the
// kind does not match. The integer, boolean and float payloads share one
// word, so without the kind checks in the accessors a boolean would read
// as 1 through AsInt and a float as its bit pattern. Every caller in the
// module checks the kind first; the accessors keep the results the
// separate-field layout gave (0, false, 0) so one that does not stays
// correct.
func TestAccessorsOnOtherKinds(t *testing.T) {
	ints := []struct {
		v    Value
		want int64
	}{
		{Int(7), 7}, {Node(3), 3}, {Rel(4), 4},
		{True, 0}, {False, 0}, {Float(1.5), 0}, {Float(math.Copysign(0, -1)), 0}, {Float(math.NaN()), 0},
		{Str("x"), 0}, {Null, 0},
	}
	for _, c := range ints {
		if got := c.v.AsInt(); got != c.want {
			t.Errorf("%v.AsInt() = %d, want %d", c.v, got, c.want)
		}
	}
	for _, v := range []Value{Int(1), Float(1), Node(1), Str("true"), Null} {
		if v.AsBool() {
			t.Errorf("%v.AsBool() = true, want false", v)
		}
	}
	for _, v := range []Value{True, Node(5), Rel(5), Str("1.5"), Null} {
		if got := v.AsFloat(); got != 0 {
			t.Errorf("%v.AsFloat() = %v, want 0", v, got)
		}
	}
	if got := Int(-3).AsFloat(); got != -3 {
		t.Errorf("Int(-3).AsFloat() = %v, want -3", got)
	}
}
