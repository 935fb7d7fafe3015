package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// roundTestValues covers every value kind, with the int64 edges where
// the integer fast paths wrap, floats that equal integers, and strings
// whose runes are not their bytes.
func roundTestValues() []value.Value {
	vals := []value.Value{
		value.Null, value.True, value.False,
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(-1.5),
		value.Float(7), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Float(1e300),
		value.List(), value.List(value.Int(1)), value.List(value.Int(1), value.Int(2)),
		value.List(value.Int(2), value.Int(1)), value.List(value.Str("a")), value.List(value.Null),
		value.List(value.Float(1)), value.List(value.List(value.Int(1))), value.List(value.Int(1), value.Str("a")),
		value.Map(map[string]value.Value{"k": value.Int(1)}), value.Node(1), value.Rel(2),
	}
	for _, i := range []int64{
		0, 1, -1, 3, 6, -6, 7, -7, 20,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 - 500, math.MinInt64 + 500, math.MaxInt64/2 + 1, math.MaxInt64 / 3, math.MinInt64 + 3,
	} {
		vals = append(vals, value.Int(i))
	}
	for _, s := range append([]string{"", "a", "7", "-7", "true", "1.0"}, runeStrings...) {
		vals = append(vals, value.Str(s))
	}
	return vals
}

// sameValue reports whether two values are indistinguishable to
// Algorithm 2 and to the query printer.
func sameValue(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String() && value.Equivalent(a, b)
}

// TestRoundFunctionsMatchEval checks every template's round against the
// interpreter. apply must give eval.Eval's value for the built node,
// error or not, on running values of every kind. run must give, for
// whole competitor columns, the accept/reject decision and the values of
// apply element by element, with the intended element's value taken
// from every value in turn.
func TestRoundFunctionsMatchEval(t *testing.T) {
	vals := roundTestValues()
	r := rand.New(rand.NewSource(21))
	rs := &roundScratch{}
	accepted := make([]int, len(nestTemplates))
	for ti, tmpl := range nestTemplates {
		for rep := 0; rep < 4; rep++ {
			exp, round := tmpl.build(r, ast.Prop("x", "id"))
			for _, v := range vals {
				want, wantErr := eval.Eval(&eval.Ctx{Env: map[string]value.Value{"x": wrapAccessValue("id", v)}}, exp)
				got, err := round.apply(v)
				if (err != nil) != (wantErr != nil) || (err == nil && !sameValue(got, want)) {
					t.Fatalf("%s on %v: apply gives %v (err %v), eval %v (err %v)", ast.ExprString(exp), v, got, err, want, wantErr)
				}
			}
			for j, v := range vals {
				nv1, err := round.apply(v)
				if err != nil {
					continue
				}
				var sameKind, others []value.Value
				for i, c := range vals {
					if i == j {
						continue
					}
					others = append(others, c)
					if c.Kind() == v.Kind() || (c.IsNumber() && v.IsNumber()) {
						sameKind = append(sameKind, c)
					}
				}
				for _, cur := range [][]value.Value{sameKind, others, append(slices.Clone(sameKind), v)} {
					want := make([]value.Value, len(cur))
					wantOK := true
					for i, c := range cur {
						nc, err := round.apply(c)
						if err != nil || value.Equivalent(nc, nv1) {
							wantOK = false
							break
						}
						want[i] = nc
					}
					next := make([]value.Value, len(cur))
					rs.cells.reset()
					if ok := round.run(rs, nv1, slices.Clone(cur), next); ok != wantOK {
						t.Fatalf("%s, intended %v, competitors %v: run accepts %v, apply %v", ast.ExprString(exp), v, cur, ok, wantOK)
					}
					if !wantOK {
						continue
					}
					accepted[ti]++
					for i := range want {
						if !sameValue(next[i], want[i]) {
							t.Fatalf("%s, intended %v: competitor %v runs to %v, apply gives %v", ast.ExprString(exp), v, cur[i], next[i], want[i])
						}
					}
				}
			}
		}
	}
	for ti, n := range accepted {
		if n == 0 {
			e, _ := nestTemplates[ti].build(r, ast.Prop("x", "id"))
			t.Errorf("template %s accepted no column", ast.ExprString(e))
		}
	}
}

// TestPinPredicateAliasesNoScratch renders node pins on a bulk graph,
// then overwrites every piece of round scratch, arenas included, and
// requires each rendered predicate to be unchanged: no query literal,
// the intended element's final value included, aliases reused memory.
func TestPinPredicateAliasesNoScratch(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, schema := graph.Generate(r, graph.GenConfig{Scale: 2000})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	ids := g.NodeIDs()
	garbage := value.Str("overwritten")
	arenaPins := 0
	for trial := 0; trial < 300; trial++ {
		rs := syn.rounds
		rs.strs.ends = rs.strs.ends[:0]
		p := pin{varName: "n0", elem: elemRef{id: ids[r.Intn(len(ids))]}}
		if trial%2 == 1 {
			p.labels = g.Node(p.elem.id).Labels
		}
		pred := syn.pinPredicate(p, 6)
		text := ast.ExprString(pred)
		if rs.cells.off > 0 || len(rs.strs.ends) > 0 {
			arenaPins++
		}
		for _, buf := range [][]value.Value{rs.cells.buf, rs.cur[:cap(rs.cur)], rs.next[:cap(rs.next)]} {
			for i := range buf {
				buf[i] = garbage
			}
		}
		for i := range rs.strs.buf[:cap(rs.strs.buf)] {
			rs.strs.buf[:cap(rs.strs.buf)][i] = '#'
		}
		if got := ast.ExprString(pred); got != text {
			t.Fatalf("trial %d: overwriting the round scratch changed\n%s\ninto\n%s", trial, text, got)
		}
	}
	if arenaPins < 30 {
		t.Fatalf("only %d of 300 pins used an arena", arenaPins)
	}
}

// refNodeCompetitorValues is the competitor gather of explicit node
// competitor lists: every other node carrying labels, in NodeIDs order,
// then the `id` of each that has one.
func refNodeCompetitorValues(s *Synthesizer, labels []string, intended graph.ID) []value.Value {
	var comps []elemRef
	for _, id := range s.g.NodeIDs() {
		if id != intended && (len(labels) == 0 || hasLabels(s.g.Node(id), labels)) {
			comps = append(comps, elemRef{id: id})
		}
	}
	var out []value.Value
	for _, c := range comps {
		if v, ok := s.lookupProp(c, "id"); ok {
			out = append(out, v)
		}
	}
	return out
}

// TestNodeCompetitorGatherMatchesList checks that a node pin's label
// class gathers exactly the competitor values, in the same order, as an
// explicit list of the matching nodes: unlabeled, one-label, two-label
// and unmatched-label patterns, on small generated graphs whose node and
// relationship IDs interleave (one node stripped of its `id`) and on a
// bulk graph.
func TestNodeCompetitorGatherMatchesList(t *testing.T) {
	type graphCase struct {
		name string
		g    *graph.Graph
		s    *graph.Schema
	}
	var graphs []graphCase
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 13, MaxRels: 60})
		delete(g.Node(g.NodeIDs()[1]).Props, "id")
		graphs = append(graphs, graphCase{fmt.Sprintf("interleaved%d", seed), g, schema})
	}
	g, schema := graph.Generate(rand.New(rand.NewSource(5)), graph.GenConfig{Scale: 2000})
	graphs = append(graphs, graphCase{"bulk", g, schema})

	for _, gc := range graphs {
		syn := NewSynthesizer(rand.New(rand.NewSource(1)), gc.g, gc.s, DefaultConfig())
		ids := gc.g.NodeIDs()
		for k, intended := range []graph.ID{ids[0], ids[1], ids[len(ids)/2], ids[len(ids)-1]} {
			own := gc.g.Node(intended).Labels
			labelSets := [][]string{nil, {"NoSuchLabel"}, gc.s.Labels[k%len(gc.s.Labels) : k%len(gc.s.Labels)+1]}
			if len(own) > 0 {
				labelSets = append(labelSets, own, []string{own[0], gc.s.Labels[0]})
			}
			for _, labels := range labelSets {
				want := refNodeCompetitorValues(syn, labels, intended)
				got := syn.competitorValues(pin{varName: "n0", elem: elemRef{id: intended}, labels: labels})
				if len(got) != len(want) {
					t.Fatalf("%s: node %d labels %v: %d competitors, want %d", gc.name, intended, labels, len(got), len(want))
				}
				for i := range want {
					if !sameValue(got[i], want[i]) {
						t.Fatalf("%s: node %d labels %v: competitor %d is %v, want %v", gc.name, intended, labels, i, got[i], want[i])
					}
				}
			}
		}
	}
}
