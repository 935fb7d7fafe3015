package graph

import (
	"math/rand"
	"testing"
)

// BenchmarkBulkSetup measures what one 10k-node bulk graph costs before
// its first query, layer by layer: generate (Generate plus the free
// Seal), index (the label/property index's eager part; property buckets
// fill on first probe), adj (the adjacency index) and all three in
// sequence on a fresh graph, as a campaign iteration pays them. Nothing
// gates it; compare ns/op, B/op and allocs/op across commits.
// setupSink keeps the benchmarked builds observable.
var setupSink any

func BenchmarkBulkSetup(b *testing.B) {
	cfg := GenConfig{MaxNodes: 13, MaxRels: 60, Scale: 10000}
	gen := func() (*Snapshot, *Schema) {
		g, s := Generate(rand.New(rand.NewSource(1)), cfg)
		return g.Seal(), s
	}
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			setupSink, _ = gen()
		}
	})
	snap, schema := gen()
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			setupSink = newIndex(FromSnapshot(snap), schema)
		}
	})
	b.Run("adj", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			setupSink = buildAdjIndex(snap)
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, sc := gen()
			s.Index(sc)
			setupSink = s.AdjIndex()
		}
	})
}
