package core

import (
	"math/rand"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/graph"
)

// BenchmarkPinPredicateScale measures one uniquifying pin on a 10k-node
// bulk graph, rendered at the default expression depth: an unlabeled
// node variable, so every other node competes, and a variable with the
// intended node's label, so its label class does. Its cost per operation
// is Algorithm 2's per-competitor cost times the competitor count.
func BenchmarkPinPredicateScale(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, schema := graph.Generate(r, graph.GenConfig{Scale: 10000})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	intended := g.NodeIDs()[0]
	for _, bc := range []struct {
		name   string
		labels []string
	}{
		{"unlabeled", nil},
		{"labeled", g.Node(intended).Labels},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := pin{varName: "n0", elem: elemRef{id: intended}, labels: bc.labels}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPinSink = syn.pinPredicate(p, syn.cfg.ExprDepth)
			}
		})
	}
}

var benchPinSink ast.Expr

// BenchmarkSynthesizeScale measures whole Synthesize calls on a sealed
// 10k-node bulk graph with the campaign's result-set bound, cycling
// through a fixed set of ground truths: pattern collection, pinning,
// the global uniqueness count and projection together, as one campaign
// query pays for them.
func BenchmarkSynthesizeScale(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, schema := graph.Generate(r, graph.GenConfig{Scale: 10000})
	g.Seal()
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	gts := make([]*GroundTruth, 16)
	for i := range gts {
		gts[i] = SelectGroundTruth(r, g, 6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sq, err := syn.Synthesize(gts[i%len(gts)])
		if err != nil {
			b.Fatal(err)
		}
		benchSynthSink = sq
	}
}

var benchSynthSink *Synthesized
