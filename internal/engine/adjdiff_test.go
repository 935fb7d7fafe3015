package engine

// The scan-vs-index differential: every query of the corpus runs twice
// per dialect on snapshot-loaded engines — once with index-backed
// expansion, once forced onto the adjacency-list scan — and the results
// must be byte-equal: same rows in the same order, same error string,
// same match-step accounting (pinned by the step-limit sweep). This is
// the adjacency-index analogue of the plandiff gate: the index may
// choose any access path, but it must not be observable.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gqs/internal/graph"
)

func adjDiffOptions() []Options {
	return []Options{
		{Dialect: Reference},
		{Dialect: Dialect{Name: "neo4j", RelUniqueness: true, ProvidesDBLabels: true}},
		{Dialect: Dialect{Name: "memgraph", RelUniqueness: true}, ReverseScan: true},
		{Dialect: Dialect{Name: "kuzu", EnforceSchema: true}},
		{Dialect: Dialect{Name: "falkordb", ProvidesDBLabels: true}},
	}
}

// adjDiffReads exercises every indexed-expansion shape: each direction,
// multi-type (including a repeated alternative), inline relationship
// properties, mid-chain label checks, bound-relationship reuse,
// self-loop binding, and the untyped scan fallback.
var adjDiffReads = []string{
	"MATCH (a)-[r:T0]->(b) RETURN a.id, r.id, b.id",
	"MATCH (a)<-[r:T1]-(b) RETURN a.id, r.id, b.id",
	"MATCH (a)-[r:T0]-(b) RETURN a.id, r.id, b.id",
	"MATCH (a)-[r:T2]-(a) RETURN r.id",
	"MATCH (a)-[r:T0|T1]->(b) RETURN r.id",
	"MATCH (a)-[r:T1|T1]-(b) RETURN r.id",
	"MATCH (a)-[r:T0|T2|T4]-(b) RETURN a.id, r.id",
	"MATCH (a:L0)-[:T0]->(b:L1) RETURN a.id, b.id",
	"MATCH (a:L0)-[:T0]->(b:L1)-[:T1]->(c) RETURN a.id, b.id, c.id",
	"MATCH (a)-[r1:T0]->(b)-[r2:T0]->(c) RETURN a.id, c.id",
	"MATCH (a)-[r1:T1]-(b)-[r2:T1]-(c) RETURN r1.id, r2.id",
	"MATCH (a)-[r:T1]->(b) WHERE a.id < b.id RETURN r.id",
	"MATCH (a)-[r:T0 {k0: a.k0}]->(b) RETURN r.id",
	"MATCH (a {k0: 1})-[r:T0]->(b) RETURN r.id",
	"MATCH (a)-[r]->(b) RETURN count(*)",
	"MATCH (a:L2)-[r:T3]-(b:L2) RETURN a.id, b.id ORDER BY a.id, b.id",
	"MATCH (a)-[:T0]->(b), (b)-[:T1]->(c) RETURN a.id, c.id",
	"OPTIONAL MATCH (a:L0)-[r:T9]->(b) RETURN a.id, r",
}

// adjDiffWrites turns both stores into diverged COW overlays —
// tombstoned rels, detach-deleted nodes, appended rels, mutated rel
// properties, label churn — before the read corpus runs again, so the
// differential covers the overlay-merge fallback paths.
var adjDiffWrites = []string{
	"MATCH ()-[r:T2]->() DELETE r",
	"MATCH (n:L3) DETACH DELETE n",
	"MATCH (a:L0) MATCH (b:L1) WHERE a.id < b.id CREATE (a)-[:T0]->(b)",
	"MATCH ()-[r:T1]->() SET r.k1 = 5",
	"MATCH (n:L1) SET n:L5",
	"MATCH (n:L2) REMOVE n:L2",
}

func adjDiffGraph(t *testing.T, seed int64) (*graph.Snapshot, *graph.Schema) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 24, MaxRels: 140})
	return g.Seal(), schema
}

// runAdjDiff executes one query on both engines and compares outcomes.
func runAdjDiff(t *testing.T, label, text string, indexed, scan *Engine) {
	t.Helper()
	run := func(e *Engine) (*Result, string) {
		pq, err := Prepare(text)
		if err != nil {
			return nil, err.Error()
		}
		res, err := e.ExecutePrepared(context.Background(), pq)
		if err != nil {
			return nil, err.Error()
		}
		return res, ""
	}
	ri, ei := run(indexed)
	rs, es := run(scan)
	if ei != es {
		t.Fatalf("%s: %q: error mismatch: indexed=%q scan=%q", label, text, ei, es)
	}
	if ei != "" {
		return
	}
	if !reflect.DeepEqual(ri.Columns, rs.Columns) || !reflect.DeepEqual(ri.Rows, rs.Rows) {
		t.Fatalf("%s: %q: results diverge:\nindexed: %v %v\nscan:    %v %v",
			label, text, ri.Columns, ri.Rows, rs.Columns, rs.Rows)
	}
}

// TestAdjIndexScanDifferential is the main equivalence gate: randomized
// sealed graphs, five dialects, reads on the clean snapshot, then reads
// again after identical overlay mutations on both engines.
func TestAdjIndexScanDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		snap, schema := adjDiffGraph(t, seed)
		for _, opts := range adjDiffOptions() {
			scanOpts := opts
			scanOpts.DisableAdjIndex = true
			indexed, scan := New(opts), New(scanOpts)
			indexed.LoadSnapshot(snap, schema)
			scan.LoadSnapshot(snap, schema)
			label := fmt.Sprintf("seed %d/%s", seed, opts.Dialect.Name)
			for _, q := range adjDiffReads {
				runAdjDiff(t, label, q, indexed, scan)
			}
			for _, w := range adjDiffWrites {
				runAdjDiff(t, label+"/write", w, indexed, scan)
			}
			for _, q := range adjDiffReads {
				runAdjDiff(t, label+"/overlay", q, indexed, scan)
			}
			if indexed.adjExpansions == 0 {
				t.Fatalf("%s: indexed engine never used the adjacency index", label)
			}
			if scan.adjExpansions != 0 {
				t.Fatalf("%s: scan engine used the adjacency index %d times", label, scan.adjExpansions)
			}
		}
	}

	// Bulk leg: the hub-expansion union on a 10k-node power-law graph,
	// the workload the index exists for.
	snap, schema := hubGraph()
	text := hubUnionQuery(snap, schema)
	indexed, scan := hubEngines(snap, schema)
	if _, err := indexed.Execute(text); err != nil {
		t.Fatalf("bulk hubs: %v", err)
	}
	runAdjDiff(t, "bulk hubs", text, indexed, scan)
	if indexed.adjExpansions == 0 {
		t.Fatal("bulk hubs: indexed engine never used the adjacency index")
	}
	if scan.adjExpansions != 0 {
		t.Fatalf("bulk hubs: scan engine used the adjacency index %d times", scan.adjExpansions)
	}
}

// hubArms is how many top-degree hubs the hub-expansion union covers.
const hubArms = 16

// hubGraph is a 10k-node bulk graph, the shape the scale-10k workload
// campaigns on.
func hubGraph() (*graph.Snapshot, *graph.Schema) {
	g, schema := graph.Generate(rand.New(rand.NewSource(1)), graph.GenConfig{Scale: 10000})
	return g.Seal(), schema
}

// hubUnionQuery builds one UNION ALL query whose arms each anchor one of
// the graph's hubArms highest-degree nodes through its k0 property and
// expand the rarest relationship type undirected. From a hub that typed
// expansion touches one index bucket instead of thousands of adjacency
// entries; the union amortizes per-execution cost over the arms.
func hubUnionQuery(snap *graph.Snapshot, schema *graph.Schema) string {
	hubs := slices.Clone(snap.NodeIDs())
	deg := func(id graph.ID) int { return len(snap.Out(id)) + len(snap.In(id)) }
	slices.SortStableFunc(hubs, func(a, b graph.ID) int { return deg(b) - deg(a) })
	rare := schema.RelTypes[len(schema.RelTypes)-1]
	arms := make([]string, hubArms)
	for i, id := range hubs[:hubArms] {
		arms[i] = fmt.Sprintf("MATCH (a:%s {k0: %d})-[r:%s]-(b) RETURN count(r) AS c",
			snap.Node(id).Labels[0], id, rare)
	}
	return strings.Join(arms, " UNION ALL ")
}

// hubEngines returns reference-dialect engines over snap, one with
// index-backed expansion and one forced onto the adjacency-list scan.
func hubEngines(snap *graph.Snapshot, schema *graph.Schema) (indexed, scan *Engine) {
	indexed = New(Options{Dialect: Reference})
	scan = New(Options{Dialect: Reference, DisableAdjIndex: true})
	indexed.LoadSnapshot(snap, schema)
	scan.LoadSnapshot(snap, schema)
	return indexed, scan
}

// BenchmarkHubExpansion times one execution of the hub-expansion union
// on the index and scan paths. It is a measurement only; no gate reads it.
func BenchmarkHubExpansion(b *testing.B) {
	snap, schema := hubGraph()
	pq, err := Prepare(hubUnionQuery(snap, schema))
	if err != nil {
		b.Fatal(err)
	}
	indexed, scan := hubEngines(snap, schema)
	for _, leg := range []struct {
		name string
		e    *Engine
	}{{"index", indexed}, {"scan", scan}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := leg.e.ExecutePrepared(context.Background(), pq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAdjIndexStepLimitEquivalence pins the skip-run step accounting:
// at every MaxMatchSteps value the indexed and scan paths must agree
// exactly on whether the budget trips, and on the partial error/result.
func TestAdjIndexStepLimitEquivalence(t *testing.T) {
	snap, schema := adjDiffGraph(t, 7)
	queries := []string{
		"MATCH (a)-[r:T0]-(b)-[s:T1]-(c) RETURN a.id, c.id",
		"MATCH (a)-[r:T0|T3]->(b) RETURN r.id",
		"MATCH (a)<-[r:T1]-(b) RETURN r.id",
	}
	for _, text := range queries {
		for ms := 1; ms <= 400; ms++ {
			opts := Options{Limits: Limits{MaxMatchSteps: ms}}
			scanOpts := opts
			scanOpts.DisableAdjIndex = true
			indexed, scan := New(opts), New(scanOpts)
			indexed.LoadSnapshot(snap, schema)
			scan.LoadSnapshot(snap, schema)
			runAdjDiff(t, fmt.Sprintf("maxSteps=%d", ms), text, indexed, scan)
		}
	}
}

// TestStoreNodeHasLabel pins the delta resolution the mid-chain label
// fast path relies on: base labels, overlay additions and removals, and
// deletion leaving the node unindexed.
func TestStoreNodeHasLabel(t *testing.T) {
	g := graph.New()
	a := g.NewNode("A").ID
	b := g.NewNode("B").ID
	snap := g.Seal()
	schema := &graph.Schema{Labels: []string{"A", "B", "C"}}
	e := New(Options{})
	e.LoadSnapshot(snap, schema)
	st := e.Store()

	if !st.NodeHasLabel("A", a) || st.NodeHasLabel("B", a) || !st.NodeHasLabel("B", b) {
		t.Fatal("base labels misresolved")
	}
	if err := st.AddLabels(a, []string{"C"}); err != nil {
		t.Fatal(err)
	}
	if !st.NodeHasLabel("C", a) || st.NodeHasLabel("C", b) {
		t.Fatal("overlay label addition misresolved")
	}
	if err := st.RemoveLabels(a, []string{"A"}); err != nil {
		t.Fatal(err)
	}
	if st.NodeHasLabel("A", a) {
		t.Fatal("overlay label removal misresolved")
	}
	if err := st.DeleteNode(b, true); err != nil {
		t.Fatal(err)
	}
	if st.NodeHasLabel("B", b) {
		t.Fatal("deleted node still label-indexed")
	}
}
