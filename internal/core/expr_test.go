package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

func newTestSynth(seed int64) (*Synthesizer, *rand.Rand) {
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	syn.plan = &Plan{ElemVar: map[elemRef]string{}}
	syn.tracker = NewTracker(g)
	syn.elemScope = map[string]int64{}
	return syn, r
}

// TestComplexifyAccessInvariant checks Algorithm 2's contract: the nested
// expression evaluates to the recorded value for the intended element and
// to a different value for every competitor, at every nesting depth.
func TestComplexifyAccessInvariant(t *testing.T) {
	syn, r := newTestSynth(1)
	mapFor := func(v value.Value) value.Value {
		return value.Map(map[string]value.Value{"id": v})
	}
	for trial := 0; trial < 2000; trial++ {
		intended := value.Int(int64(r.Intn(60)))
		var comps []value.Value
		for i := 0; i < r.Intn(5); i++ {
			c := value.Int(int64(r.Intn(60)))
			if !value.Equivalent(c, intended) {
				comps = append(comps, c)
			}
		}
		nested, v1 := syn.complexifyAccess("x", "id", intended, slices.Clone(comps), 1+r.Intn(6))
		got, err := eval.Eval(&eval.Ctx{Graph: syn.g, Env: map[string]value.Value{"x": mapFor(intended)}}, nested)
		if err != nil {
			t.Fatalf("trial %d: eval error %v on %s", trial, err, ast.ExprString(nested))
		}
		if !value.Equivalent(got, v1) {
			t.Fatalf("trial %d: value drift: intended=%v expr=%s got=%v v1=%v",
				trial, intended, ast.ExprString(nested), got, v1)
		}
		for _, c := range comps {
			gc, err := eval.Eval(&eval.Ctx{Graph: syn.g, Env: map[string]value.Value{"x": mapFor(c)}}, nested)
			if err == nil && value.Equivalent(gc, v1) {
				t.Fatalf("trial %d: competitor %v not distinguished by %s", trial, c, ast.ExprString(nested))
			}
		}
	}
}

// TestComplexifyStringProperty exercises Algorithm 2 over string-typed
// properties.
func TestComplexifyStringProperty(t *testing.T) {
	syn, r := newTestSynth(2)
	for trial := 0; trial < 500; trial++ {
		intended := value.Str(randString(r, 3+r.Intn(6)))
		comps := []value.Value{value.Str(randString(r, 3+r.Intn(6)))}
		if value.Equivalent(comps[0], intended) {
			continue
		}
		nested, v1 := syn.complexifyAccess("x", "id", intended, slices.Clone(comps), 4)
		got, err := syn.evalConst(nested, "x", wrapAccessValue("id", intended))
		if err != nil || !value.Equivalent(got, v1) {
			t.Fatalf("trial %d: %v / %v vs %v (%s)", trial, err, got, v1, ast.ExprString(nested))
		}
	}
}

// TestTruePredicateHolds verifies that dependency predicates are true in
// every symbolic row.
func TestTruePredicateHolds(t *testing.T) {
	syn, r := newTestSynth(3)
	// Bind a couple of variables to real elements.
	ids := syn.g.NodeIDs()
	syn.elemScope["n0"] = ids[0]
	syn.elemScope["n1"] = ids[1]
	syn.tracker.Bind(map[string]value.Value{
		"n0": value.Node(ids[0]),
		"n1": value.Node(ids[1]),
		"a0": value.Int(42),
	})
	for trial := 0; trial < 300; trial++ {
		p := syn.truePredicate(1 + r.Intn(5))
		ok, err := syn.tracker.HoldsEverywhere(p)
		if err != nil || !ok {
			t.Fatalf("trial %d: predicate %s does not hold (%v)", trial, ast.ExprString(p), err)
		}
	}
}

// TestRandomScalarExprEvaluates verifies generated expressions never fail
// to evaluate in the current state.
func TestRandomScalarExprEvaluates(t *testing.T) {
	syn, r := newTestSynth(4)
	ids := syn.g.NodeIDs()
	syn.elemScope["n0"] = ids[0]
	syn.tracker.Bind(map[string]value.Value{"n0": value.Node(ids[0])})
	for trial := 0; trial < 500; trial++ {
		e := syn.randomScalarExpr(1 + r.Intn(6))
		if err := syn.tracker.Check(e); err != nil {
			t.Fatalf("trial %d: %s: %v", trial, ast.ExprString(e), err)
		}
	}
}

// TestPinPredicateSelectsIntended verifies that a rendered pin predicate
// is true for the intended element and false for all competitors.
func TestPinPredicateSelectsIntended(t *testing.T) {
	syn, r := newTestSynth(5)
	rels := syn.g.RelIDs()
	for trial := 0; trial < 200; trial++ {
		intended := rels[r.Intn(len(rels))]
		var comps []elemRef
		for _, id := range rels {
			if id != intended && r.Intn(2) == 0 {
				comps = append(comps, elemRef{id: id, isRel: true})
			}
		}
		p := pin{varName: "r9", elem: elemRef{id: intended, isRel: true}, competitors: comps}
		pred := syn.pinPredicate(p, 5)
		check := func(id int64) value.Tri {
			tr, err := eval.EvalPredicate(&eval.Ctx{
				Graph: syn.g,
				Env:   map[string]value.Value{"r9": value.Rel(id)},
			}, pred)
			if err != nil {
				t.Fatalf("trial %d: %v on %s", trial, err, ast.ExprString(pred))
			}
			return tr
		}
		if check(intended) != value.TriTrue {
			t.Fatalf("trial %d: pin predicate false for intended: %s", trial, ast.ExprString(pred))
		}
		for _, c := range comps {
			if check(c.id) == value.TriTrue {
				t.Fatalf("trial %d: pin predicate true for competitor %d: %s", trial, c.id, ast.ExprString(pred))
			}
		}
	}
}

// evalConst evaluates an expression with its single free variable bound
// to v, through the tree-walking interpreter and a fresh environment.
func (s *Synthesizer) evalConst(e ast.Expr, varName string, v value.Value) (value.Value, error) {
	return eval.Eval(&eval.Ctx{Graph: s.g, Env: map[string]value.Value{varName: v}}, e)
}

// wrapAccessValue builds a map standing in for the pattern variable, so
// that var.prop evaluates to v.
func wrapAccessValue(prop string, v value.Value) value.Value {
	return value.Map(map[string]value.Value{prop: v})
}

// referenceComplexifyAccess is the direct reading of Algorithm 2: every
// round re-evaluates the whole nested expression from the original
// property values of the intended element and of each competitor. It is
// the oracle of TestComplexifyIncrementalMatchesReference.
func (s *Synthesizer) referenceComplexifyAccess(varName, prop string, intended value.Value, competitors []value.Value, depth int) (ast.Expr, value.Value) {
	var exp ast.Expr = ast.Prop(varName, prop)
	v1 := intended
	for d := 0; d < depth; d++ {
		cls := functions.ClassOf(v1)
		var candidates []exprTemplate
		for _, t := range nestTemplates {
			if t.accepts.Accepts(cls) {
				candidates = append(candidates, t)
			}
		}
		if len(candidates) == 0 {
			break
		}
		t := candidates[s.r.Intn(len(candidates))]
		newExp, _ := t.build(s.r, exp)
		nv1, err := s.evalConst(newExp, varName, wrapAccessValue(prop, intended))
		if err != nil {
			continue
		}
		distinct := true
		for _, c := range competitors {
			nc, err := s.evalConst(newExp, varName, wrapAccessValue(prop, c))
			if err != nil || value.Equivalent(nc, nv1) {
				distinct = false
				break
			}
		}
		if !distinct {
			continue
		}
		exp, v1 = newExp, nv1
	}
	return exp, v1
}

// randAlg2Value draws a value of the given kind from small domains, so
// that competitors often collide with the intended value or with each
// other after a template. Floats are often integral, so int/float pairs
// such as 1 and 1.0 (Equivalent, but distinguished by toString) occur.
func randAlg2Value(r *rand.Rand, kind int) value.Value {
	switch kind {
	case 0:
		if r.Intn(4) == 0 {
			return value.Int(int64Edge(r))
		}
		return value.Int(int64(r.Intn(41) - 20))
	case 1:
		switch r.Intn(8) {
		case 0:
			return value.Float(math.Copysign(0, -1))
		case 1:
			return value.Float(math.NaN())
		}
		return value.Float(float64(r.Intn(41)-20) / 2)
	case 2:
		if r.Intn(3) == 0 {
			return value.Str(runeStrings[r.Intn(len(runeStrings))])
		}
		return value.Str(randString(rand.New(rand.NewSource(int64(r.Intn(6)))), r.Intn(4)))
	case 3:
		return value.Bool(r.Intn(2) == 0)
	case 4:
		n := r.Intn(4)
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = randAlg2Value(r, r.Intn(3))
		}
		return value.ListOf(elems)
	default:
		return value.Null
	}
}

// int64Edge draws an integer at or next to the ends of the int64 range:
// the extremes, values within one +k or -k step (k ≤ 999) of wrapping,
// values just below or above where multiplying by a factor k ≤ 10
// wraps, and values a little above MinInt64, whose products with an
// even k wrap onto small integers.
func int64Edge(r *rand.Rand) int64 {
	switch r.Intn(5) {
	case 0:
		return []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}[r.Intn(4)]
	case 1:
		return math.MaxInt64 - int64(r.Intn(1000))
	case 2:
		return math.MinInt64 + int64(r.Intn(1000))
	case 3:
		k := int64(2 + r.Intn(9))
		return math.MaxInt64/k + int64(r.Intn(3)) - 1
	default:
		return math.MinInt64 + int64(r.Intn(21))
	}
}

// runeStrings are strings whose rune structure matters to the string
// templates: multi-byte runes, mixed case (aB and Ab share toUpper),
// pairs that are each other's rune reversal (日本, 本日), an invalid byte
// (reverse and char_length read it as U+FFFD, so reverse maps \xffz and
// \uFFFDz to the same string), and a combining accent.
var runeStrings = []string{
	"é", "É", "straße", "aB", "Ab", "AB", "ab", "日本", "本日", "Σσς",
	"\xffz", "\uFFFDz", "z\xff", "a\u0301",
}

// alg2Competitors draws n competitors for intended: mostly of its kind,
// some of another kind (which makes kind-specific templates such as
// abs, reverse or size error on them), and for numbers some of the other
// numeric kind with an equal value.
func alg2Competitors(r *rand.Rand, kind int, intended value.Value, n int) []value.Value {
	comps := make([]value.Value, 0, n)
	for len(comps) < n {
		switch p := r.Intn(10); {
		case p < 6:
			comps = append(comps, randAlg2Value(r, kind))
		case p < 8:
			comps = append(comps, randAlg2Value(r, r.Intn(6)))
		default:
			switch intended.Kind() {
			case value.KindInt:
				// The same number as a float, its negation (abs maps both
				// to one value), and its offset by MinInt64 (an even
				// factor wraps both to one product).
				i := intended.AsInt()
				comps = append(comps, []value.Value{value.Float(float64(i)), value.Int(-i), value.Int(i + math.MinInt64)}[r.Intn(3)])
			case value.KindFloat:
				if f := intended.AsFloat(); f == math.Trunc(f) && !math.IsInf(f, 0) {
					comps = append(comps, value.Int(int64(f)))
					continue
				}
				comps = append(comps, randAlg2Value(r, kind))
			default:
				comps = append(comps, randAlg2Value(r, kind))
			}
		}
	}
	return comps
}

// TestComplexifyIncrementalMatchesReference runs complexifyAccess and the
// full re-evaluating reference from identically seeded synthesizers over
// random (intended, competitors, depth) cases of every value kind,
// including empty and 10k-element competitor sets, and requires the same
// expression text, the same value and the same RNG state afterwards.
func TestComplexifyIncrementalMatchesReference(t *testing.T) {
	ref, _ := newTestSynth(11)
	inc, _ := newTestSynth(11)
	in := rand.New(rand.NewSource(12))
	sizes := func(trial int) int {
		switch {
		case trial%500 == 0:
			return 10000
		case trial%7 == 0:
			return 0
		}
		return 1 + in.Intn(12)
	}
	accepted := 0
	for trial := 0; trial < 4000; trial++ {
		kind := in.Intn(5)
		intended := randAlg2Value(in, kind)
		comps := alg2Competitors(in, kind, intended, sizes(trial))
		depth := in.Intn(8)
		desc := fmt.Sprintf("trial %d: intended=%v, %d competitors, depth %d", trial, intended, len(comps), depth)

		wantExp, wantV := ref.referenceComplexifyAccess("x", "id", intended, comps, depth)
		gotExp, gotV := inc.complexifyAccess("x", "id", intended, slices.Clone(comps), depth)
		if got, want := ast.ExprString(gotExp), ast.ExprString(wantExp); got != want {
			t.Fatalf("%s: expression %s, reference %s", desc, got, want)
		}
		if gotV.Kind() != wantV.Kind() || gotV.String() != wantV.String() || !value.Equivalent(gotV, wantV) {
			t.Fatalf("%s: value %v (%s), reference %v (%s)", desc, gotV, gotV.Kind(), wantV, wantV.Kind())
		}
		if got, want := inc.r.Int63(), ref.r.Int63(); got != want {
			t.Fatalf("%s: next RNG draw %d, reference %d", desc, got, want)
		}
		if _, plain := gotExp.(*ast.PropAccess); !plain {
			accepted++
		}
	}
	// The case mix must actually exercise nesting, not only rejections.
	if accepted < 1000 {
		t.Fatalf("only %d of 4000 cases accepted any nesting", accepted)
	}
}
