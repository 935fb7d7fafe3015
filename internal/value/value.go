// Package value implements the Cypher value model: the dynamically typed
// values that flow through query evaluation, together with Cypher's
// three-valued logic, its comparability rules (used by predicates), its
// equivalence rules (used by DISTINCT and grouping), and its orderability
// rules (used by ORDER BY).
//
// The model follows the openCypher 9 reference. Values are immutable once
// constructed; lists and maps must not be mutated after being wrapped.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The Cypher value kinds. Node and Rel values hold only the element
// identifier; resolving properties or labels requires the graph, which the
// evaluator carries.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
	KindMap
	KindNode
	KindRel
)

// String returns the Cypher-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindList:
		return "LIST"
	case KindMap:
		return "MAP"
	case KindNode:
		return "NODE"
	case KindRel:
		return "RELATIONSHIP"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Value is a Cypher runtime value. The zero Value is null.
//
// The scalar payloads share one word: i holds an integer, a node or
// relationship identifier, a boolean as 0 or 1, or a float's IEEE-754 bits
// (math.Float64bits). That keeps a Value at 64 bytes, which the Go
// compiler copies with inline moves rather than a duffcopy call; values
// are passed and returned by value on every evaluation path
// (TestValueSize guards the size).
type Value struct {
	kind Kind
	i    int64
	s    string
	list []Value
	m    map[string]Value
}

// Null is the null value.
var Null = Value{kind: KindNull}

// True and False are the boolean constants.
var (
	True  = Value{kind: KindBool, i: 1}
	False = Value{kind: KindBool, i: 0}
)

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is a shorter alias for String_.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// List returns a list value wrapping vs. The slice is not copied.
func List(vs ...Value) Value { return Value{kind: KindList, list: vs} }

// ListOf returns a list value wrapping the given slice without copying.
func ListOf(vs []Value) Value { return Value{kind: KindList, list: vs} }

// Map returns a map value wrapping m. The map is not copied.
func Map(m map[string]Value) Value { return Value{kind: KindMap, m: m} }

// Node returns a node reference with the given element identifier.
func Node(id int64) Value { return Value{kind: KindNode, i: id} }

// Rel returns a relationship reference with the given element identifier.
func Rel(id int64) Value { return Value{kind: KindRel, i: id} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumber reports whether the value is an integer or a float.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsEntity reports whether the value is a node or relationship reference.
func (v Value) IsEntity() bool { return v.kind == KindNode || v.kind == KindRel }

// AsBool returns the boolean payload; it must only be called when Kind is
// KindBool. Any other kind reads false.
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// AsInt returns the integer payload; it must only be called when Kind is
// KindInt (node and relationship values read their identifier). Booleans
// and floats, whose payloads share the same word, read 0.
func (v Value) AsInt() int64 {
	if v.kind == KindBool || v.kind == KindFloat {
		return 0
	}
	return v.i
}

// AsFloat returns the float payload; for integers it returns the converted
// value. Any other kind reads 0.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.float()
	}
	return 0
}

// float decodes the float payload; only meaningful when Kind is KindFloat.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// AsString returns the string payload; it must only be called when Kind is KindString.
func (v Value) AsString() string { return v.s }

// AsList returns the list payload; it must only be called when Kind is KindList.
func (v Value) AsList() []Value { return v.list }

// AsMap returns the map payload; it must only be called when Kind is KindMap.
func (v Value) AsMap() map[string]Value { return v.m }

// EntityID returns the node or relationship identifier; it must only be
// called when Kind is KindNode or KindRel.
func (v Value) EntityID() int64 { return v.i }

// Tri is Cypher's three-valued logic: true, false, or unknown (null).
type Tri int

// The three truth values.
const (
	TriFalse Tri = iota
	TriTrue
	TriUnknown
)

// TriOf converts a Go bool to a Tri.
func TriOf(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}

// String returns "true", "false", or "null".
func (t Tri) String() string {
	switch t {
	case TriTrue:
		return "true"
	case TriFalse:
		return "false"
	default:
		return "null"
	}
}

// Value converts the Tri back to a Cypher value (null for unknown).
func (t Tri) Value() Value {
	switch t {
	case TriTrue:
		return True
	case TriFalse:
		return False
	default:
		return Null
	}
}

// And is three-valued conjunction.
func (t Tri) And(o Tri) Tri {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriTrue
}

// Or is three-valued disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriFalse
}

// Xor is three-valued exclusive or.
func (t Tri) Xor(o Tri) Tri {
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriOf((t == TriTrue) != (o == TriTrue))
}

// Not is three-valued negation.
func (t Tri) Not() Tri {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriUnknown
	}
}

// Truth interprets a value as a predicate result: booleans map to
// themselves, null maps to unknown. Any other kind is a type error in
// Cypher; callers surface that via the returned ok flag.
func (v Value) Truth() (t Tri, ok bool) {
	switch v.kind {
	case KindNull:
		return TriUnknown, true
	case KindBool:
		return TriOf(v.i != 0), true
	default:
		return TriUnknown, false
	}
}

// String renders the value in Cypher literal notation, e.g. 'abc', [1, 2],
// {k: 1}. Nodes and relationships render as (#id) and [#id].
func (v Value) String() string {
	var sb strings.Builder
	v.format(&sb)
	return sb.String()
}

// Format renders the value in the same Cypher literal notation as String,
// appending to the caller's builder. Printers that assemble whole queries
// or rows use it to avoid materializing an intermediate string per value.
func (v Value) Format(sb *strings.Builder) {
	v.format(sb)
}

func (v Value) format(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.i != 0))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindFloat:
		formatFloat(sb, v.float())
	case KindString:
		sb.WriteByte('\'')
		sb.WriteString(escapeString(v.s))
		sb.WriteByte('\'')
	case KindList:
		sb.WriteByte('[')
		for i, e := range v.list {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.format(sb)
		}
		sb.WriteByte(']')
	case KindMap:
		sb.WriteByte('{')
		for i, k := range sortedKeys(v.m) {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k)
			sb.WriteString(": ")
			v.m[k].format(sb)
		}
		sb.WriteByte('}')
	case KindNode:
		fmt.Fprintf(sb, "(#%d)", v.i)
	case KindRel:
		fmt.Fprintf(sb, "[#%d]", v.i)
	}
}

func formatFloat(sb *strings.Builder, f float64) {
	switch {
	case math.IsNaN(f):
		sb.WriteString("NaN")
	case math.IsInf(f, 1):
		sb.WriteString("Infinity")
	case math.IsInf(f, -1):
		sb.WriteString("-Infinity")
	default:
		s := strconv.FormatFloat(f, 'g', -1, 64)
		sb.WriteString(s)
		// Keep floats visually distinct from integers.
		if !strings.ContainsAny(s, ".eE") {
			sb.WriteString(".0")
		}
	}
}

func escapeString(s string) string {
	if !strings.ContainsAny(s, `'\`) {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		if r == '\'' || r == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

func sortedKeys(m map[string]Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
