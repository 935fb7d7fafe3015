package core

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"gqs/internal/functions"
	"gqs/internal/value"
)

// This file holds Algorithm 2's round functions (DESIGN.md §16). A round
// applies one nesting template's new node to the running values of the
// intended element and of every competitor. Each template builds its
// round from the entry points eval uses for the node (value.Add and its
// siblings, functions.Invoke, the list literal), and the hot templates
// add a column kernel: one pass over the competitors with a fast path
// for the common kind and the distinctness test fused into the loop.

// nestRound applies one template node to running values: the value the
// wrapped expression takes for an element goes in, the node's value for
// that element comes out.
type nestRound struct {
	// apply evaluates the node for one running value exactly as eval
	// evaluates the built node with the wrapped expression bound to x:
	// the same value, and an error exactly when eval errs. Its results
	// own their memory.
	apply func(x value.Value) (value.Value, error)
	// column, when set, is run's implementation for this template. Its
	// results may be backed by the round scratch's arenas.
	column func(rs *roundScratch, nv1 value.Value, cur, next []value.Value) bool
}

// run evaluates the round for every competitor: it writes each one's new
// running value to next and reports whether every competitor evaluates
// without error to a value not equivalent to nv1, the intended element's
// new value. It stops at the first competitor that fails, leaving next
// partly written.
func (rd nestRound) run(rs *roundScratch, nv1 value.Value, cur, next []value.Value) bool {
	if rd.column != nil {
		return rd.column(rs, nv1, cur, next)
	}
	return applyColumn(rd.apply, nv1, cur, next)
}

// applyColumn is the generic round: apply per competitor.
func applyColumn(apply func(value.Value) (value.Value, error), nv1 value.Value, cur, next []value.Value) bool {
	for i, c := range cur {
		nc, err := apply(c)
		if err != nil || value.Equivalent(nc, nv1) {
			return false
		}
		next[i] = nc
	}
	return true
}

// roundScratch is Algorithm 2's reusable working memory. Synthesis is
// single-threaded and a UNION sub-synthesizer runs between its parent's
// pins, so the two share one.
type roundScratch struct {
	// cur and next hold each competitor's running value under the
	// accepted nest and under the round being tried.
	cur, next []value.Value
	// tmpl is the candidate buffer of complexifyAccess's template
	// filter; the selection only reads the current round's contents.
	tmpl  []exprTemplate
	strs  strArena
	cells cellArena
}

// callApply applies the one-argument function name the way eval calls
// it: through functions.Invoke, which propagates a null argument.
func callApply(name string) func(value.Value) (value.Value, error) {
	f := functions.Lookup(name)
	args := make([]value.Value, 1)
	return func(x value.Value) (value.Value, error) {
		args[0] = x
		return functions.Invoke(f, nil, args)
	}
}

// notApply is NOT applied to a predicate value, as eval's EvalPredicate
// coerces its operand.
func notApply(x value.Value) (value.Value, error) {
	t, ok := x.Truth()
	if !ok {
		return value.Null, fmt.Errorf("type error: expected a boolean predicate, got %s", x.Kind())
	}
	return t.Not().Value(), nil
}

// identityComprehension is [w IN x | w]: a copy of the list x, null for
// null, and an error for any other kind.
func identityComprehension(x value.Value) (value.Value, error) {
	if x.IsNull() {
		return value.Null, nil
	}
	if x.Kind() != value.KindList {
		return value.Null, fmt.Errorf("type error: list comprehension over %s", x.Kind())
	}
	return value.ListOf(append([]value.Value(nil), x.AsList()...)), nil
}

// intRound is the round of `x op k` for the integer k; fast is op on
// two integers, wrapping around exactly as value.Add, value.Sub and
// value.Mul do.
func intRound(op func(a, b value.Value) (value.Value, error), k int64, fast func(int64) int64) nestRound {
	kv := value.Int(k)
	return intColumn(func(x value.Value) (value.Value, error) { return op(x, kv) }, fast)
}

// absRound is the round of abs(x); on integers it wraps around like the
// builtin, so abs(MinInt64) is MinInt64.
func absRound() nestRound {
	return intColumn(callApply("abs"), func(i int64) int64 {
		if i < 0 {
			return -i
		}
		return i
	})
}

// intColumn builds a round that maps an integer running value i to the
// integer fast(i) and any other kind through apply.
func intColumn(apply func(value.Value) (value.Value, error), fast func(int64) int64) nestRound {
	return nestRound{apply: apply, column: func(_ *roundScratch, nv1 value.Value, cur, next []value.Value) bool {
		if nv1.Kind() != value.KindInt {
			return applyColumn(apply, nv1, cur, next)
		}
		t := nv1.AsInt()
		for i, c := range cur {
			if c.Kind() != value.KindInt {
				nc, err := apply(c)
				if err != nil || value.Equivalent(nc, nv1) {
					return false
				}
				next[i] = nc
				continue
			}
			n := fast(c.AsInt())
			if n == t {
				return false
			}
			next[i] = value.Int(n)
		}
		return true
	}}
}

// toStringRound is the round of toString(x); integers are formatted into
// the string arena.
func toStringRound() nestRound {
	return strColumn(callApply("toString"), func(buf []byte, x value.Value) ([]byte, bool) {
		if x.Kind() != value.KindInt {
			return buf, false
		}
		return strconv.AppendInt(buf, x.AsInt(), 10), true
	})
}

// concatRound is the round of pre + x + suf, one of pre and suf empty;
// string operands are concatenated in the string arena.
func concatRound(pre, suf string) nestRound {
	apply := func(x value.Value) (value.Value, error) { return value.Add(x, value.Str(suf)) }
	if pre != "" {
		apply = func(x value.Value) (value.Value, error) { return value.Add(value.Str(pre), x) }
	}
	return strColumn(apply, func(buf []byte, x value.Value) ([]byte, bool) {
		if x.Kind() != value.KindString {
			return buf, false
		}
		buf = append(buf, pre...)
		buf = append(buf, x.AsString()...)
		return append(buf, suf...), true
	})
}

// reverseRound is the round of reverse(x). A string is reversed rune by
// rune into the string arena: the runes are those of the []rune
// conversion the builtin uses, an invalid byte reading as U+FFFD, so
// the bytes are those of its string(runes). A list is reversed into the
// cell arena.
func reverseRound() nestRound {
	apply := callApply("reverse")
	strs := strColumn(apply, func(buf []byte, x value.Value) ([]byte, bool) {
		if x.Kind() != value.KindString {
			return buf, false
		}
		s := x.AsString()
		n := 0
		for _, r := range s {
			n += utf8.RuneLen(r)
		}
		buf = append(buf, make([]byte, n)...)
		end := len(buf)
		for _, r := range s {
			end -= utf8.EncodeRune(buf[end-utf8.RuneLen(r):], r)
		}
		return buf, true
	}).column
	lists := listColumn(apply, func(dst, src []value.Value) {
		for i, v := range src {
			dst[len(src)-1-i] = v
		}
	}).column
	return nestRound{apply: apply, column: func(rs *roundScratch, nv1 value.Value, cur, next []value.Value) bool {
		if nv1.Kind() == value.KindList {
			return lists(rs, nv1, cur, next)
		}
		return strs(rs, nv1, cur, next)
	}}
}

// comprehensionRound is the round of [w IN x | w]: lists are copied into
// the cell arena.
func comprehensionRound() nestRound {
	return listColumn(identityComprehension, func(dst, src []value.Value) { copy(dst, src) })
}

// toUpperRound is the round of toUpper(x). ASCII strings are upper-cased
// in the string arena, as strings.ToUpper does; other strings go through
// the builtin.
func toUpperRound() nestRound {
	return strColumn(callApply("toUpper"), func(buf []byte, x value.Value) ([]byte, bool) {
		if x.Kind() != value.KindString {
			return buf, false
		}
		s := x.AsString()
		for i := 0; i < len(s); i++ {
			if s[i] >= utf8.RuneSelf {
				return buf, false
			}
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf = append(buf, c)
		}
		return buf, true
	})
}

// strArena stages one string round's fast-path results: their bytes
// back to back in buf and, for each, the competitor it belongs to and
// where its bytes end. An accepted round converts buf into one string
// and hands every such competitor a substring of it, so the round
// allocates once, and its results are ordinary immutable strings that
// no later use of the arena can change.
type strArena struct {
	buf  []byte
	ends []strEnd
}

type strEnd struct{ i, end int }

// strColumn builds a string-producing round: emit appends the result for
// a running value to buf and reports true, or reports false and leaves
// buf as it was to hand that value to apply.
func strColumn(apply func(value.Value) (value.Value, error), emit func(buf []byte, x value.Value) ([]byte, bool)) nestRound {
	return nestRound{apply: apply, column: func(rs *roundScratch, nv1 value.Value, cur, next []value.Value) bool {
		if nv1.Kind() != value.KindString {
			return applyColumn(apply, nv1, cur, next)
		}
		t := nv1.AsString()
		a := &rs.strs
		a.buf, a.ends = a.buf[:0], a.ends[:0]
		for i, c := range cur {
			off := len(a.buf)
			var ok bool
			if a.buf, ok = emit(a.buf, c); ok {
				if string(a.buf[off:]) == t {
					return false
				}
				a.ends = append(a.ends, strEnd{i, len(a.buf)})
				continue
			}
			nc, err := apply(c)
			if err != nil || value.Equivalent(nc, nv1) {
				return false
			}
			next[i] = nc
		}
		if len(a.ends) > 0 {
			all, start := string(a.buf), 0
			for _, e := range a.ends {
				next[e.i] = value.Str(all[start:e.end])
				start = e.end
			}
		}
		return true
	}}
}

// pairRound is the round of the list literal [x, k] for the integer k:
// the competitors' two-element lists are carved from the cell arena.
func pairRound(k value.Value) nestRound {
	return nestRound{
		apply: func(x value.Value) (value.Value, error) { return value.List(x, k), nil },
		column: func(rs *roundScratch, nv1 value.Value, cur, next []value.Value) bool {
			// nv1 is [v1, k], and [c, k] is equivalent to it exactly
			// when c is equivalent to v1.
			v1 := nv1.AsList()[0]
			cells := rs.cells.take(2 * len(cur))
			for i, c := range cur {
				if value.Equivalent(c, v1) {
					rs.cells.untake(len(cells))
					return false
				}
				pair := cells[2*i : 2*i+2 : 2*i+2]
				pair[0], pair[1] = c, k
				next[i] = value.ListOf(pair)
			}
			return true
		},
	}
}

// listColumn builds a round that maps a list running value to a list of
// the same length in the cell arena, fill writing its elements from the
// source list's; any other kind goes through apply.
func listColumn(apply func(value.Value) (value.Value, error), fill func(dst, src []value.Value)) nestRound {
	return nestRound{apply: apply, column: func(rs *roundScratch, nv1 value.Value, cur, next []value.Value) bool {
		n := 0
		for _, c := range cur {
			n += len(c.AsList())
		}
		cells := rs.cells.take(n)
		for i, c := range cur {
			if c.Kind() != value.KindList {
				nc, err := apply(c)
				if err != nil || value.Equivalent(nc, nv1) {
					rs.cells.untake(n)
					return false
				}
				next[i] = nc
				continue
			}
			src := c.AsList()
			dst := cells[:len(src):len(src)]
			cells = cells[len(src):]
			fill(dst, src)
			l := value.ListOf(dst)
			if value.Equivalent(l, nv1) {
				rs.cells.untake(n)
				return false
			}
			next[i] = l
		}
		return true
	}}
}

// cellArena holds the element storage of the lists that list-building
// rounds make for competitors. A running value can keep an earlier
// round's list alive (x[0], reverse, the comprehension and list
// concatenation pass elements through), so cells are reclaimed only
// where no running value can reference them: a rejected round hands its
// region back at once, and the whole arena is reused when the next
// Algorithm 2 run starts. Nothing outside a run holds a competitor's
// running value.
type cellArena struct {
	buf []value.Value
	off int
}

// reset makes every cell reusable.
func (a *cellArena) reset() { a.off = 0 }

// take returns n unused cells. When the current chunk is too small it
// starts a new one of exactly n cells and leaves the old one to the
// values still holding it; the arena keeps only the newest chunk, so it
// holds no more than one round's cells between runs.
func (a *cellArena) take(n int) []value.Value {
	if a.off+n > len(a.buf) {
		a.buf = make([]value.Value, n)
		a.off = 0
	}
	a.off += n
	return a.buf[a.off-n : a.off : a.off]
}

// untake hands back the n cells the last take returned.
func (a *cellArena) untake(n int) { a.off -= n }
