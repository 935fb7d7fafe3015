package core

import (
	"fmt"
	"math/rand"
	"strings"

	"gqs/internal/cypher/ast"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// This file implements §3.5: generating branching and nested expressions.
// Two generators are value-preserving — genValueExpr builds an expression
// that evaluates to a required constant, and complexifyAccess (Algorithm
// 2) wraps a property access in nested templates while preserving the
// ability to distinguish the intended element from its competitors — and
// two are value-tracking: randomScalarExpr builds arbitrary evaluable
// expressions and truePredicate builds predicates that hold in the
// current symbolic state.

const stringAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = stringAlphabet[r.Intn(len(stringAlphabet))]
	}
	return string(b)
}

// genValueExpr returns an expression with no free variables that
// evaluates exactly to target. Only operations that are precision-exact
// are used, so the oracle's expected values are never perturbed.
func genValueExpr(r *rand.Rand, target value.Value, depth int) ast.Expr {
	if depth <= 0 {
		return ast.Lit(target)
	}
	rec := func(v value.Value) ast.Expr { return genValueExpr(r, v, depth-1) }
	switch target.Kind() {
	case value.KindInt:
		v := target.AsInt()
		switch r.Intn(4) {
		case 0: // (v-c) + c
			c := int64(r.Intn(2001) - 1000)
			return ast.Bin(ast.OpAdd, rec(value.Int(v-c)), ast.Lit(value.Int(c)))
		case 1: // (v+c) - c
			c := int64(r.Intn(2001) - 1000)
			return ast.Bin(ast.OpSub, rec(value.Int(v+c)), ast.Lit(value.Int(c)))
		case 2: // toInteger('v')
			return &ast.FuncCall{Name: "toInteger", Args: []ast.Expr{rec(value.Str(fmt.Sprintf("%d", v)))}}
		default: // char_length of a string of that length, when small
			if v >= 0 && v <= 24 {
				return &ast.FuncCall{Name: "char_length", Args: []ast.Expr{rec(value.Str(randString(r, int(v))))}}
			}
			return ast.Bin(ast.OpAdd, rec(value.Int(v-1)), ast.Lit(value.Int(1)))
		}
	case value.KindFloat:
		switch r.Intn(3) {
		case 0: // f + 0.0 is exact
			return ast.Bin(ast.OpAdd, ast.Lit(target), ast.Lit(value.Float(0)))
		case 1: // -(-f)
			return &ast.Unary{Op: ast.OpNeg, X: rec(value.Float(-target.AsFloat()))}
		default: // f * 1.0 is exact
			return ast.Bin(ast.OpMul, ast.Lit(target), ast.Lit(value.Float(1)))
		}
	case value.KindString:
		s := target.AsString()
		switch r.Intn(4) {
		case 0: // split concatenation
			cut := 0
			if len(s) > 0 {
				cut = r.Intn(len(s) + 1)
			}
			return ast.Bin(ast.OpAdd, rec(value.Str(s[:cut])), ast.Lit(value.Str(s[cut:])))
		case 1: // reverse(reverse(s))
			rev := []rune(s)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return &ast.FuncCall{Name: "reverse", Args: []ast.Expr{rec(value.Str(string(rev)))}}
		case 2: // left(s + junk, len(s))
			junk := randString(r, 1+r.Intn(4))
			return &ast.FuncCall{Name: "left", Args: []ast.Expr{
				ast.Bin(ast.OpAdd, ast.Lit(value.Str(s)), ast.Lit(value.Str(junk))),
				rec(value.Int(int64(len([]rune(s))))),
			}}
		default:
			// replace with a search string that cannot occur: a marker
			// strictly longer than s, or — exercising the underspecified
			// corner behind the Figure 9 Memgraph hang — the empty
			// string, which the reference semantics defines as identity.
			search := randString(r, len(s)+1)
			if r.Intn(3) == 0 {
				search = ""
			}
			return &ast.FuncCall{Name: "replace", Args: []ast.Expr{
				rec(value.Str(s)),
				ast.Lit(value.Str(search)),
				ast.Lit(value.Str(randString(r, 1+r.Intn(5)))),
			}}
		}
	case value.KindBool:
		b := target.AsBool()
		switch r.Intn(4) {
		case 0: // NOT NOT b
			return &ast.Unary{Op: ast.OpNot, X: &ast.Unary{Op: ast.OpNot, X: rec(target)}}
		case 1: // comparison
			a, c := int64(r.Intn(100)), int64(100+r.Intn(100))
			if b {
				return ast.Bin(ast.OpLt, rec(value.Int(a)), ast.Lit(value.Int(c)))
			}
			return ast.Bin(ast.OpGt, rec(value.Int(a)), ast.Lit(value.Int(c)))
		case 2:
			if b {
				return ast.Bin(ast.OpAnd, rec(target), ast.Lit(value.True))
			}
			return ast.Bin(ast.OpOr, rec(target), ast.Lit(value.False))
		default:
			return &ast.FuncCall{Name: "toBoolean", Args: []ast.Expr{ast.Lit(value.Str(fmt.Sprintf("%v", b)))}}
		}
	case value.KindList:
		elems := target.AsList()
		out := &ast.ListLit{}
		for _, el := range elems {
			out.Elems = append(out.Elems, genValueExpr(r, el, depth-1))
		}
		if r.Intn(3) == 0 {
			// Identity comprehension: [w IN list | w]. The "w" prefix is
			// reserved for comprehension variables, so no shadowing of
			// pattern variables or aliases can occur.
			v := fmt.Sprintf("w%d", r.Intn(100))
			return &ast.ListComprehension{Var: v, List: out, Map: ast.Var(v)}
		}
		return out
	default:
		return ast.Lit(target)
	}
}

// exprTemplate is one nesting template for Algorithm 2: it wraps an
// expression of the accepted class into a new expression, and returns
// with it the round that applies the new node to running values.
type exprTemplate struct {
	accepts functions.TypeClass
	build   func(r *rand.Rand, inner ast.Expr) (ast.Expr, nestRound)
}

var nestTemplates = []exprTemplate{
	// Integer templates.
	{functions.TInt, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := int64(r.Intn(999) + 1)
		return ast.Bin(ast.OpAdd, in, ast.Lit(value.Int(k))), intRound(value.Add, k, func(i int64) int64 { return i + k })
	}},
	{functions.TInt, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := int64(r.Intn(999) + 1)
		return ast.Bin(ast.OpSub, in, ast.Lit(value.Int(k))), intRound(value.Sub, k, func(i int64) int64 { return i - k })
	}},
	{functions.TInt, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := int64(r.Intn(9) + 2)
		return ast.Bin(ast.OpMul, in, ast.Lit(value.Int(k))), intRound(value.Mul, k, func(i int64) int64 { return i * k })
	}},
	{functions.TInt, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("toString", in), toStringRound()
	}},
	{functions.TInt, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("abs", in), absRound()
	}},
	{functions.TInt, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("sign", in), nestRound{apply: callApply("sign")}
	}},
	{functions.TInt, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := value.Int(int64(r.Intn(100)))
		return &ast.ListLit{Elems: []ast.Expr{in, ast.Lit(k)}}, pairRound(k)
	}},
	// String templates.
	{functions.TStr, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := randString(r, 1+r.Intn(4))
		return ast.Bin(ast.OpAdd, in, ast.Lit(value.Str(k))), concatRound("", k)
	}},
	{functions.TStr, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := randString(r, 1+r.Intn(4))
		return ast.Bin(ast.OpAdd, ast.Lit(value.Str(k)), in), concatRound(k, "")
	}},
	{functions.TStr, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("reverse", in), reverseRound()
	}},
	{functions.TStr, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("char_length", in), nestRound{apply: callApply("char_length")}
	}},
	{functions.TStr, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("toUpper", in), toUpperRound()
	}},
	// Float templates (exact operations only).
	{functions.TFloat, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return &ast.Unary{Op: ast.OpNeg, X: in}, nestRound{apply: value.Neg}
	}},
	{functions.TFloat, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("toString", in), toStringRound()
	}},
	{functions.TFloat, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		k := value.Float(float64(r.Intn(3) + 2))
		return ast.Bin(ast.OpMul, in, ast.Lit(k)), nestRound{apply: func(x value.Value) (value.Value, error) { return value.Mul(x, k) }}
	}},
	// Boolean templates.
	{functions.TBool, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return &ast.Unary{Op: ast.OpNot, X: in}, nestRound{apply: notApply}
	}},
	{functions.TBool, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("toString", in), toStringRound()
	}},
	// List templates.
	{functions.TList, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("reverse", in), reverseRound()
	}},
	{functions.TList, func(r *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		v := fmt.Sprintf("w%d", r.Intn(100))
		return &ast.ListComprehension{Var: v, List: in, Map: ast.Var(v)}, comprehensionRound()
	}},
	{functions.TList, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		return call1("size", in), nestRound{apply: callApply("size")}
	}},
	{functions.TList, func(_ *rand.Rand, in ast.Expr) (ast.Expr, nestRound) {
		zero := value.Int(0)
		return &ast.IndexExpr{Subject: in, Index: ast.Lit(zero)}, nestRound{apply: func(x value.Value) (value.Value, error) { return value.Index(x, zero) }}
	}},
}

// call1 builds the one-argument call name(arg).
func call1(name string, arg ast.Expr) ast.Expr {
	return &ast.FuncCall{Name: name, Args: []ast.Expr{arg}}
}

// complexifyAccess implements Algorithm 2: starting from the property
// access varName.prop, it nests expression templates for depth rounds,
// keeping a nesting only when the intended element's value remains
// distinguishable from every competitor's. cur holds the competitors'
// values of the property; it becomes one of the synthesizer's round
// buffers, so the caller must not use it afterwards. complexifyAccess
// returns the final expression and its value for the intended element.
//
// Every template is strict and pure in the expression it wraps: it
// evaluates that expression exactly once and depends only on its value,
// so eval(t(e), c) == t(eval(e, c)), error or not. A round therefore
// applies only the new template node, through its round function, to
// each element's running value, instead of re-evaluating the whole nest
// from the original property values. Accepted rounds leave every running
// value error-free (a competitor that errors rejects the round), and
// rejected rounds change no state, so the accept/reject decisions, the
// RNG draws and the returned expression are exactly those of the full
// re-evaluation (DESIGN.md §14, §16).
func (s *Synthesizer) complexifyAccess(varName, prop string, intended value.Value, cur []value.Value, depth int) (ast.Expr, value.Value) {
	var exp ast.Expr = ast.Prop(varName, prop)
	v1 := intended
	rs := s.rounds
	// next receives a round's candidate values and becomes cur only if
	// the round is accepted.
	next := rs.next[:0]
	if cap(next) < len(cur) {
		next = make([]value.Value, len(cur))
	}
	next = next[:len(cur)]
	// No running value of an earlier run is live any more.
	rs.cells.reset()
	for d := 0; d < depth; d++ {
		cls := functions.ClassOf(v1)
		candidates := rs.tmpl[:0]
		for _, t := range nestTemplates {
			if t.accepts.Accepts(cls) {
				candidates = append(candidates, t)
			}
		}
		rs.tmpl = candidates
		if len(candidates) == 0 {
			break
		}
		t := candidates[s.r.Intn(len(candidates))]
		newExp, round := t.build(s.r, exp)
		// The intended element's value goes through apply, so it owns its
		// memory and the query literals built from it alias no scratch.
		nv1, err := round.apply(v1)
		if err != nil || !round.run(rs, nv1, cur, next) {
			continue // try another template next round (line 8 of Alg. 2)
		}
		exp, v1 = newExp, nv1
		cur, next = next, cur
	}
	rs.cur, rs.next = cur, next
	return exp, v1
}

// pinPredicate renders a pin as a WHERE conjunct: Algorithm 2 nests the
// property access, genValueExpr hides the comparison constant, and the
// result still matches only the pinned element. The round count is
// drawn first: a pin that runs no round needs no competitor values, and
// gathering them draws no random numbers, so skipping the gather leaves
// the query text and the RNG stream unchanged.
func (s *Synthesizer) pinPredicate(p pin, depth int) ast.Expr {
	intended, _ := s.lookupProp(p.elem, "id")
	rounds := s.r.Intn(depth + 1)
	var nested ast.Expr = ast.Prop(p.varName, "id")
	v1 := intended
	if rounds > 0 {
		nested, v1 = s.complexifyAccess(p.varName, "id", intended, s.competitorValues(p), rounds)
	}
	return ast.Bin(ast.OpEq, nested, genValueExpr(s.r, v1, s.r.Intn(depth+1)))
}

// competitorValues gathers the `id` values of p's competitors that have
// one into the round buffer. A node pin's competitors are every other
// node of its label class, read in NodeIDs order in one pass by
// Graph.AppendNodeProps (from the id column on a bulk graph); a
// relationship pin's are its explicit list.
func (s *Synthesizer) competitorValues(p pin) []value.Value {
	out := s.rounds.cur[:0]
	if p.elem.isRel {
		for _, c := range p.competitors {
			if v, ok := s.lookupProp(c, "id"); ok {
				out = append(out, v)
			}
		}
		return out
	}
	return s.g.AppendNodeProps(out, s.labelClass(p.labels), p.elem.id, "id")
}

// labelClass returns the nodes carrying all of labels, in ascending
// order; a labeled class is listed on first use.
func (s *Synthesizer) labelClass(labels []string) []graph.ID {
	if len(labels) == 0 {
		return s.g.NodeIDs()
	}
	key := strings.Join(labels, "\x00")
	class, ok := s.nodes.classes[key]
	if !ok {
		for _, id := range s.g.NodeIDs() {
			if hasLabels(s.g.Node(id), labels) {
				class = append(class, id)
			}
		}
		if s.nodes.classes == nil {
			s.nodes.classes = map[string][]graph.ID{}
		}
		s.nodes.classes[key] = class
	}
	return class
}

func (s *Synthesizer) lookupProp(e elemRef, name string) (value.Value, bool) {
	return s.g.Lookup(graphPropertyKey(e, name))
}

// refOf classifies a graph element identifier as a node or relationship.
func (s *Synthesizer) refOf(id int64) elemRef {
	return elemRef{id: id, isRel: s.g.Rel(id) != nil}
}

// randomScalarExpr builds an arbitrary expression over the in-scope
// variables that is guaranteed to evaluate without error in every
// current symbolic row (it is verified against the tracker and replaced
// by a literal if evaluation fails).
func (s *Synthesizer) randomScalarExpr(depth int) ast.Expr {
	e := s.tryRandomExpr(depth)
	if err := s.tracker.Check(e); err != nil {
		return ast.Lit(value.Int(int64(s.r.Intn(2000000000)) - 1000000000))
	}
	return e
}

func (s *Synthesizer) tryRandomExpr(depth int) ast.Expr {
	// The in-scope variables are invariant across the whole recursive
	// build, so compute them once here rather than per level.
	return s.tryRandomExprVars(s.tracker.Vars(), depth)
}

func (s *Synthesizer) tryRandomExprVars(vars []string, depth int) ast.Expr {
	if depth <= 0 || len(vars) == 0 || s.r.Intn(3) == 0 {
		// Leaf: literal or a property access on an element variable.
		if len(vars) > 0 && s.r.Intn(2) == 0 {
			v := vars[s.r.Intn(len(vars))]
			if id, ok := s.elemScope[v]; ok {
				if name, ok2 := s.randomPropName(s.refOf(id)); ok2 {
					return ast.Prop(v, name)
				}
			}
			return ast.Var(v)
		}
		return randomLiteral(s.r)
	}
	switch s.r.Intn(5) {
	case 0:
		return ast.Bin(ast.OpAdd, s.tryRandomExprVars(vars, depth-1), ast.Lit(value.Int(int64(s.r.Intn(100)))))
	case 1:
		return ast.Bin(ast.OpNeq, s.tryRandomExprVars(vars, depth-1), s.tryRandomExprVars(vars, depth-1))
	case 2:
		return &ast.FuncCall{Name: "toString", Args: []ast.Expr{s.tryRandomExprVars(vars, depth-1)}}
	case 3:
		return &ast.FuncCall{Name: "coalesce", Args: []ast.Expr{s.tryRandomExprVars(vars, depth-1), randomLiteral(s.r)}}
	default:
		return &ast.ListLit{Elems: []ast.Expr{s.tryRandomExprVars(vars, depth-1)}}
	}
}

func randomLiteral(r *rand.Rand) ast.Expr {
	switch r.Intn(4) {
	case 0:
		return ast.Lit(value.Int(int64(int32(r.Uint32()))))
	case 1:
		return ast.Lit(value.Str(randString(r, 4+r.Intn(6))))
	case 2:
		return ast.Lit(value.Bool(r.Intn(2) == 0))
	default:
		return ast.Lit(value.Float(float64(r.Intn(1000)) / 4))
	}
}

// randomPropName picks a property present on the element.
func (s *Synthesizer) randomPropName(ref elemRef) (string, bool) {
	props, _ := s.g.Props(ref.id, ref.isRel)
	names := make([]string, 0, len(props))
	for k := range props {
		names = append(names, k)
	}
	if len(names) == 0 {
		return "", false
	}
	sortStrings(names)
	return names[s.r.Intn(len(names))], true
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// truePredicate builds a predicate that holds (TriTrue) in every current
// symbolic row, creating the rich cross-clause data dependencies of §3.3
// (e.g. Figure 1's `n5.k2 <= -881779936`). The candidate is verified
// against the tracker; on failure a literal `true` is used.
func (s *Synthesizer) truePredicate(depth int) ast.Expr {
	// The constant-variable set does not change between retries; compute
	// it once for all four candidates.
	vars := s.tracker.ConstantVarNames()
	for try := 0; try < 4; try++ {
		e := s.candidateTruePredicate(vars, depth)
		if e == nil {
			continue
		}
		if ok, err := s.tracker.HoldsEverywhere(e); err == nil && ok {
			return e
		}
	}
	return ast.Lit(value.True)
}

func (s *Synthesizer) candidateTruePredicate(vars []string, depth int) ast.Expr {
	if len(vars) == 0 {
		return ast.Lit(value.True)
	}
	v := vars[s.r.Intn(len(vars))]
	var access ast.Expr
	var actual value.Value
	if id, ok := s.elemScope[v]; ok {
		ref := s.refOf(id)
		name, ok2 := s.randomPropName(ref)
		if !ok2 {
			return nil
		}
		access = ast.Prop(v, name)
		actual, _ = s.lookupProp(ref, name)
	} else {
		access = ast.Var(v)
		var err error
		actual, err = s.tracker.EvalConstant(access)
		if err != nil {
			return nil
		}
	}
	if actual.IsNull() {
		return &ast.Unary{Op: ast.OpIsNull, X: access}
	}
	if actual.IsEntity() {
		// Entity values (an endNode alias, say) have no literal form;
		// only null checks are safely expressible.
		return &ast.Unary{Op: ast.OpIsNotNull, X: access}
	}
	switch s.r.Intn(5) {
	case 0: // equality with hidden constant
		return ast.Bin(ast.OpEq, access, genValueExpr(s.r, actual, s.r.Intn(depth+1)))
	case 1: // ordering
		switch actual.Kind() {
		case value.KindInt:
			return ast.Bin(ast.OpLe, access, ast.Lit(value.Int(actual.AsInt())))
		case value.KindString:
			return ast.Bin(ast.OpGe, access, ast.Lit(value.Str(""))) // every string ≥ ""
		default:
			return &ast.Unary{Op: ast.OpIsNotNull, X: access}
		}
	case 2: // string suffix (Figure 1 style)
		if actual.Kind() == value.KindString && actual.AsString() != "" {
			str := actual.AsString()
			suffix := str[len(str)/2:]
			return ast.Bin(ast.OpEndsWith, access, ast.Lit(value.Str(suffix)))
		}
		return &ast.Unary{Op: ast.OpIsNotNull, X: access}
	case 3: // membership
		junk := randomLiteral(s.r)
		return ast.Bin(ast.OpIn, access, &ast.ListLit{Elems: []ast.Expr{genValueExpr(s.r, actual, s.r.Intn(depth+1)), junk}})
	default: // double negation
		return &ast.Unary{Op: ast.OpNot, X: &ast.Unary{Op: ast.OpNot, X: ast.Bin(ast.OpEq, access, ast.Lit(actual))}}
	}
}
