package value

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Equal implements Cypher's = operator (comparability): three-valued
// equality. Null operands yield unknown; values of different type families
// are not equal (false, not unknown); numbers compare across int and float;
// lists and maps compare structurally with unknown propagation; nodes and
// relationships compare by identity.
func Equal(a, b Value) Tri {
	if a.IsNull() || b.IsNull() {
		return TriUnknown
	}
	switch {
	case a.IsNumber() && b.IsNumber():
		return TriOf(numericEqual(a, b))
	case a.kind != b.kind:
		return TriFalse
	}
	switch a.kind {
	case KindBool:
		return TriOf(a.i == b.i)
	case KindString:
		return TriOf(a.s == b.s)
	case KindNode, KindRel:
		return TriOf(a.i == b.i)
	case KindList:
		if len(a.list) != len(b.list) {
			return TriFalse
		}
		result := TriTrue
		for i := range a.list {
			switch Equal(a.list[i], b.list[i]) {
			case TriFalse:
				return TriFalse
			case TriUnknown:
				result = TriUnknown
			}
		}
		return result
	case KindMap:
		if len(a.m) != len(b.m) {
			return TriFalse
		}
		result := TriTrue
		for k, av := range a.m {
			bv, ok := b.m[k]
			if !ok {
				return TriFalse
			}
			switch Equal(av, bv) {
			case TriFalse:
				return TriFalse
			case TriUnknown:
				result = TriUnknown
			}
		}
		return result
	}
	return TriFalse
}

func numericEqual(a, b Value) bool {
	if a.kind == KindInt && b.kind == KindInt {
		return a.i == b.i
	}
	return a.AsFloat() == b.AsFloat()
}

// NotEqual implements <>.
func NotEqual(a, b Value) Tri { return Equal(a, b).Not() }

// Compare implements the ordering comparisons (<, <=, >, >=). It returns
// (-1|0|1, TriTrue) when the operands are comparable, and (0, TriUnknown)
// when the comparison is undefined (null operands or incomparable types).
func Compare(a, b Value) (int, Tri) {
	if a.IsNull() || b.IsNull() {
		return 0, TriUnknown
	}
	switch {
	case a.IsNumber() && b.IsNumber():
		af, bf := a.AsFloat(), b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return 0, TriUnknown
		}
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i), TriTrue
		}
		return cmpFloat(af, bf), TriTrue
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s), TriTrue
	case a.kind == KindBool && b.kind == KindBool:
		return cmpInt(a.i, b.i), TriTrue // false (0) before true (1)
	case a.kind == KindList && b.kind == KindList:
		// Lists compare lexicographically when every paired element is
		// comparable; otherwise the comparison is undefined.
		n := len(a.list)
		if len(b.list) < n {
			n = len(b.list)
		}
		for i := 0; i < n; i++ {
			c, ok := Compare(a.list[i], b.list[i])
			if ok != TriTrue {
				return 0, TriUnknown
			}
			if c != 0 {
				return c, TriTrue
			}
		}
		return cmpInt(int64(len(a.list)), int64(len(b.list))), TriTrue
	}
	return 0, TriUnknown
}

// Less implements the < operator in three-valued logic.
func Less(a, b Value) Tri {
	c, ok := Compare(a, b)
	if ok != TriTrue {
		return TriUnknown
	}
	return TriOf(c < 0)
}

// LessEq implements <=.
func LessEq(a, b Value) Tri {
	c, ok := Compare(a, b)
	if ok != TriTrue {
		return TriUnknown
	}
	return TriOf(c <= 0)
}

// Greater implements >.
func Greater(a, b Value) Tri { return Less(b, a) }

// GreaterEq implements >=.
func GreaterEq(a, b Value) Tri { return LessEq(b, a) }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equivalent implements Cypher's equivalence relation, used by DISTINCT,
// grouping keys, and aggregation: like Equal but null is equivalent to
// null and NaN is equivalent to NaN.
func Equivalent(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	switch {
	case a.IsNumber() && b.IsNumber():
		return numericEquivalent(a, b)
	case a.kind != b.kind:
		return false
	}
	switch a.kind {
	case KindBool:
		return a.i == b.i
	case KindString:
		return a.s == b.s
	case KindNode, KindRel:
		return a.i == b.i
	case KindList:
		if len(a.list) != len(b.list) {
			return false
		}
		for i := range a.list {
			if !Equivalent(a.list[i], b.list[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(a.m) != len(b.m) {
			return false
		}
		for k, av := range a.m {
			bv, ok := b.m[k]
			if !ok || !Equivalent(av, bv) {
				return false
			}
		}
		return true
	}
	return false
}

// numericEquivalent compares numbers under the equivalence relation:
// NaN is equivalent to NaN, same-kind numbers compare exactly, and a
// mixed int/float pair is equivalent only when the float is integral and
// exactly representable as that int64. This definition is consistent with
// the canonical encoding produced by Key.
func numericEquivalent(a, b Value) bool {
	if a.kind == b.kind {
		if a.kind == KindInt {
			return a.i == b.i
		}
		af, bf := a.float(), b.float()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		return af == bf
	}
	// Mixed int/float: normalize so a is the int.
	if a.kind == KindFloat {
		a, b = b, a
	}
	i, ok := exactInt(b.float())
	return ok && i == a.i
}

// exactInt reports whether f is an integral float exactly representable as
// an int64, returning that integer.
func exactInt(f float64) (int64, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) || f != math.Trunc(f) {
		return 0, false
	}
	if f < -9.007199254740992e15 || f > 9.007199254740992e15 {
		return 0, false
	}
	return int64(f), true
}

// orderRank defines the global type order used by orderability. Following
// openCypher, ascending order sorts maps, then nodes, then relationships,
// then lists, then strings, then booleans, then numbers, with null last.
func orderRank(k Kind) int {
	switch k {
	case KindMap:
		return 0
	case KindNode:
		return 1
	case KindRel:
		return 2
	case KindList:
		return 3
	case KindString:
		return 4
	case KindBool:
		return 5
	case KindInt, KindFloat:
		return 6
	case KindNull:
		return 7
	default:
		return 8
	}
}

// OrderCompare implements Cypher's orderability: a total order over all
// values, used by ORDER BY. It never fails; incomparable types order by
// their type rank, null sorts last, and NaN sorts after all other numbers.
func OrderCompare(a, b Value) int {
	ra, rb := orderRank(a.kind), orderRank(b.kind)
	if ra != rb {
		return cmpInt(int64(ra), int64(rb))
	}
	switch {
	case a.kind == KindNull:
		return 0
	case a.IsNumber():
		af, bf := a.AsFloat(), b.AsFloat()
		an, bn := math.IsNaN(af), math.IsNaN(bf)
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		}
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i)
		}
		if c := cmpFloat(af, bf); c != 0 {
			return c
		}
		// Equal numeric value: order int before float for determinism.
		return cmpInt(int64(a.kind), int64(b.kind))
	case a.kind == KindString:
		return strings.Compare(a.s, b.s)
	case a.kind == KindBool, a.kind == KindNode || a.kind == KindRel:
		return cmpInt(a.i, b.i) // booleans: false (0) before true (1)
	case a.kind == KindList:
		n := len(a.list)
		if len(b.list) < n {
			n = len(b.list)
		}
		for i := 0; i < n; i++ {
			if c := OrderCompare(a.list[i], b.list[i]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(a.list)), int64(len(b.list)))
	case a.kind == KindMap:
		ak, bk := sortedKeys(a.m), sortedKeys(b.m)
		n := len(ak)
		if len(bk) < n {
			n = len(bk)
		}
		for i := 0; i < n; i++ {
			if c := strings.Compare(ak[i], bk[i]); c != 0 {
				return c
			}
			if c := OrderCompare(a.m[ak[i]], b.m[bk[i]]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(ak)), int64(len(bk)))
	}
	return 0
}

// Key returns a canonical string encoding of the value under the
// equivalence relation: two values are Equivalent iff their keys are
// equal. It is used for hash-based DISTINCT and grouping.
func (v Value) Key() string {
	var sb strings.Builder
	v.writeKey(&sb)
	return sb.String()
}

// AppendKey writes the Key encoding into the caller's builder, for row-key
// assembly without an intermediate string per value.
func (v Value) AppendKey(sb *strings.Builder) {
	v.writeKey(sb)
}

func (v Value) writeKey(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteByte('_')
	case KindBool:
		if v.i != 0 {
			sb.WriteString("bT")
		} else {
			sb.WriteString("bF")
		}
	case KindInt:
		// Integers and exactly-integral floats are equivalent; both encode
		// as the decimal integer.
		sb.WriteByte('n')
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindFloat:
		sb.WriteByte('n')
		f := v.float()
		switch {
		case math.IsNaN(f):
			sb.WriteString("NaN")
		default:
			if i, ok := exactInt(f); ok {
				sb.WriteString(strconv.FormatInt(i, 10))
			} else {
				sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
	case KindString:
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(len(v.s)))
		sb.WriteByte(':')
		sb.WriteString(v.s)
	case KindNode:
		sb.WriteByte('N')
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindRel:
		sb.WriteByte('R')
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindList:
		sb.WriteByte('[')
		for _, e := range v.list {
			e.writeKey(sb)
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
	case KindMap:
		sb.WriteByte('{')
		ks := make([]string, 0, len(v.m))
		for k := range v.m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			sb.WriteString(k)
			sb.WriteByte('=')
			v.m[k].writeKey(sb)
			sb.WriteByte(',')
		}
		sb.WriteByte('}')
	}
}
