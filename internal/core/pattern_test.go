package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gqs/internal/graph"
)

// lineGraph builds a simple path graph n0 -> n1 -> ... -> n(k-1).
func lineGraph(k int) *graph.Graph {
	g := graph.New()
	var prev *graph.Node
	for i := 0; i < k; i++ {
		n := g.NewNode("L")
		if prev != nil {
			g.NewRel(prev.ID, n.ID, "T")
		}
		prev = n
	}
	return g
}

func TestBFSPathFindsShortestWalk(t *testing.T) {
	g := lineGraph(5)
	ids := g.NodeIDs()
	var bfs bfsScratch
	p := bfs.bfsPath(g, []graph.ID{ids[0]}, ids[4], nil)
	if p == nil {
		t.Fatal("no path found on a line graph")
	}
	if len(p.Nodes) != 5 || len(p.Steps) != 4 {
		t.Fatalf("path shape: %d nodes, %d steps", len(p.Nodes), len(p.Steps))
	}
	for _, s := range p.Steps {
		if !s.Forward {
			t.Error("line graph walk must be all-forward")
		}
	}
	// Reverse direction works via incoming relationships.
	p = bfs.bfsPath(g, []graph.ID{ids[4]}, ids[0], nil)
	if p == nil || len(p.Steps) != 4 || p.Steps[0].Forward {
		t.Fatalf("reverse path broken: %+v", p)
	}
	// Avoided relationships make the target unreachable.
	avoid := map[graph.ID]bool{}
	for _, rid := range g.RelIDs() {
		avoid[rid] = true
	}
	if bfs.bfsPath(g, []graph.ID{ids[0]}, ids[4], avoid) != nil {
		t.Error("avoid set must block the path")
	}
	// Start == target.
	p = bfs.bfsPath(g, []graph.ID{ids[2]}, ids[2], nil)
	if p == nil || len(p.Steps) != 0 {
		t.Error("trivial path broken")
	}
}

// refBFSPath is the map-based breadth-first search bfsPath replaced,
// kept as the reference for the differential test below: a visited map
// per call, and each node's relationships read through Graph.Incident.
func refBFSPath(g *graph.Graph, starts []graph.ID, target graph.ID, avoid map[graph.ID]bool) *Path {
	type crumb struct {
		prevNode graph.ID
		step     PathStep
	}
	visited := map[graph.ID]crumb{}
	queue := append([]graph.ID(nil), starts...)
	for _, s := range starts {
		visited[s] = crumb{prevNode: -1}
	}
	found := false
	if contains(starts, target) {
		found = true
	}
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for _, rid := range g.Incident(cur) {
			if avoid[rid] {
				continue
			}
			r := g.Rel(rid)
			next := r.End
			fwd := true
			if next == cur && r.Start != r.End {
				next = r.Start
				fwd = false
			} else if r.Start != cur {
				next = r.Start
				fwd = false
			}
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = crumb{prevNode: cur, step: PathStep{Rel: rid, Forward: fwd}}
			if next == target {
				found = true
				break
			}
			queue = append(queue, next)
		}
	}
	if !found {
		return nil
	}
	var revNodes []graph.ID
	var revSteps []PathStep
	cur := target
	for {
		revNodes = append(revNodes, cur)
		c := visited[cur]
		if c.prevNode == -1 {
			break
		}
		revSteps = append(revSteps, c.step)
		cur = c.prevNode
	}
	out := &Path{}
	for i := len(revNodes) - 1; i >= 0; i-- {
		out.Nodes = append(out.Nodes, revNodes[i])
	}
	for i := len(revSteps) - 1; i >= 0; i-- {
		out.Steps = append(out.Steps, revSteps[i])
	}
	return out
}

// diffBFS runs queries random searches on g through one reused scratch
// and the reference, failing on the first path that differs. It returns
// how many searches found a walk of at least one step.
func diffBFS(t *testing.T, r *rand.Rand, g *graph.Graph, bfs *bfsScratch, queries int) int {
	t.Helper()
	nodes, rels := g.NodeIDs(), g.RelIDs()
	walks := 0
	for q := 0; q < queries; q++ {
		starts := make([]graph.ID, 1+r.Intn(3))
		for i := range starts {
			starts[i] = nodes[r.Intn(len(nodes))]
		}
		target := nodes[r.Intn(len(nodes))]
		var avoid map[graph.ID]bool
		if r.Intn(3) > 0 {
			avoid = map[graph.ID]bool{}
			for n := r.Intn(1 + len(rels)/3); n > 0; n-- {
				avoid[rels[r.Intn(len(rels))]] = true
			}
		}
		got := bfs.bfsPath(g, starts, target, avoid)
		want := refBFSPath(g, starts, target, avoid)
		if (got == nil) != (want == nil) ||
			got != nil && (!slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Steps, want.Steps)) {
			t.Fatalf("query %d: starts %v target %d avoid %v: got %+v, want %+v", q, starts, target, avoid, got, want)
		}
		if got != nil && len(got.Steps) > 0 {
			walks++
		}
	}
	return walks
}

// TestBFSPathMatchesReference is the scratch-array BFS differential:
// on random small graphs (self-loops and parallel relationships
// included), on a 2000-node bulk graph, and across an epoch wrap, the
// scratch search returns exactly the reference's path, or nil with it.
func TestBFSPathMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	walks := 0
	for trial := 0; trial < 60; trial++ {
		g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 2 + r.Intn(12), MaxRels: r.Intn(40)})
		if trial%2 == 0 {
			g.Seal()
		}
		walks += diffBFS(t, r, g, &bfsScratch{}, 40)
	}
	if walks < 100 {
		t.Fatalf("only %d small-graph searches found a walk", walks)
	}

	bulk, _ := graph.Generate(r, graph.GenConfig{Scale: 2000})
	var bfs bfsScratch
	if walks := diffBFS(t, r, bulk, &bfs, 400); walks < 100 {
		t.Fatalf("only %d bulk searches found a walk", walks)
	}

	// Stamps from before a wrap carry the epochs the searches after it
	// reuse; they must not leak across it. Stamp every node with epoch 1,
	// as a search reaching the whole graph would, then wrap.
	var wrap bfsScratch
	diffBFS(t, r, bulk, &wrap, 1)
	for i := range wrap.stamp {
		wrap.stamp[i] = 1
	}
	wrap.epoch = math.MaxUint32
	diffBFS(t, r, bulk, &wrap, 8)
	if wrap.epoch != 8 {
		t.Fatalf("epoch %d after wrapping, want 8", wrap.epoch)
	}
}

func TestCollectChainsCoversRequired(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 25})
		var required []elemRef
		nodes, rels := g.NodeIDs(), g.RelIDs()
		for i := 0; i < 2 && i < len(nodes); i++ {
			required = append(required, elemRef{id: nodes[r.Intn(len(nodes))]})
		}
		for i := 0; i < 2 && i < len(rels); i++ {
			required = append(required, elemRef{id: rels[r.Intn(len(rels))], isRel: true})
		}
		chains := collectChains(r, g, &bfsScratch{}, required)
		for _, e := range required {
			found := false
			for _, c := range chains {
				if (e.isRel && c.hasRel(e.id)) || (!e.isRel && c.indexOfNode(e.id) >= 0) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: required element %+v not covered", trial, e)
			}
		}
		// Relationships are never repeated within one clause's chains.
		seen := map[graph.ID]bool{}
		for _, c := range chains {
			for _, s := range c.Steps {
				if seen[s.Rel] {
					t.Fatalf("trial %d: relationship %d repeated across chains", trial, s.Rel)
				}
				seen[s.Rel] = true
			}
		}
		// Chains must be actual walks: each step's relationship connects
		// the adjacent nodes.
		for _, c := range chains {
			for i, s := range c.Steps {
				rel := g.Rel(s.Rel)
				from, to := c.Nodes[i], c.Nodes[i+1]
				okFwd := s.Forward && rel.Start == from && rel.End == to
				okBwd := !s.Forward && rel.End == from && rel.Start == to
				if !okFwd && !okBwd {
					t.Fatalf("trial %d: step %d does not connect its nodes", trial, i)
				}
			}
		}
	}
}

func TestMutateChainsKeepsWalksValid(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 80; trial++ {
		g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
		nodes := g.NodeIDs()
		req1 := []elemRef{{id: nodes[r.Intn(len(nodes))]}}
		history := collectChains(r, g, &bfsScratch{}, req1)
		req2 := []elemRef{{id: nodes[r.Intn(len(nodes))]}}
		base := collectChains(r, g, &bfsScratch{}, req2)
		mutated := mutateChains(r, base, history)
		if len(mutated) == 0 {
			t.Fatalf("trial %d: mutation dropped all chains", trial)
		}
		seen := map[graph.ID]bool{}
		for _, c := range mutated {
			for i, s := range c.Steps {
				rel := g.Rel(s.Rel)
				from, to := c.Nodes[i], c.Nodes[i+1]
				okFwd := s.Forward && rel.Start == from && rel.End == to
				okBwd := !s.Forward && rel.End == from && rel.Start == to
				if !okFwd && !okBwd {
					t.Fatalf("trial %d: mutated chain is not a graph walk", trial)
				}
				if seen[s.Rel] {
					t.Fatalf("trial %d: mutated chains repeat relationship %d", trial, s.Rel)
				}
				seen[s.Rel] = true
			}
		}
		// Required coverage survives mutation.
		covered := false
		for _, c := range mutated {
			if c.indexOfNode(req2[0].id) >= 0 {
				covered = true
			}
		}
		if !covered {
			t.Fatalf("trial %d: mutation lost the required element", trial)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	g := lineGraph(4)
	ids := g.NodeIDs()
	p := new(bfsScratch).bfsPath(g, []graph.ID{ids[0]}, ids[3], nil)
	rev := p.reverse()
	if rev.Nodes[0] != p.Nodes[len(p.Nodes)-1] {
		t.Error("reverse must flip endpoints")
	}
	if rev.Steps[0].Forward == p.Steps[len(p.Steps)-1].Forward {
		t.Error("reverse must flip traversal direction")
	}
	c := p.clone()
	c.Nodes[0] = 999
	if p.Nodes[0] == 999 {
		t.Error("clone must not share node storage")
	}
	left, right := splitAt(p, 2)
	if left.Nodes[len(left.Nodes)-1] != p.Nodes[2] || right.Nodes[0] != p.Nodes[2] {
		t.Error("splitAt endpoints broken")
	}
	if joined := joinAt(left, right); joined == nil || len(joined.Steps) != len(p.Steps) {
		t.Error("joinAt must reassemble the original length")
	}
	if joinAt(right, left) != nil && right.Nodes[len(right.Nodes)-1] != left.Nodes[0] {
		t.Error("joinAt must reject non-matching endpoints")
	}
	if p.indexOfNode(999) != -1 {
		t.Error("indexOfNode missing must be -1")
	}
}

func TestEncodeChainsBindings(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 20})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	gt := SelectGroundTruth(r, g, 2)
	syn.plan = BuildPlan(r, g, gt, DefaultPlanConfig())
	var required []elemRef
	for _, o := range syn.plan.Ops {
		if o.Kind == OpAddElem {
			required = append(required, elemRef{id: o.Element, isRel: o.IsRel})
		}
	}
	chains := collectChains(r, g, &bfsScratch{}, required)
	enc, binding := syn.encodeChains(chains, map[string]int64{})
	// Every named pattern element has a binding consistent with the
	// chain's concrete IDs.
	for _, ec := range enc {
		for i, np := range ec.part.Nodes {
			if np.Variable == "" {
				t.Fatal("encoding must name every node")
			}
			if binding[np.Variable] != ec.nodeIDs[i] {
				t.Fatalf("node var %s bound to %d, chain says %d", np.Variable, binding[np.Variable], ec.nodeIDs[i])
			}
			// Encoded labels must hold on the intended node.
			for _, l := range np.Labels {
				if !g.Node(ec.nodeIDs[i]).HasLabel(l) {
					t.Fatalf("encoded label %s not on node %d", l, ec.nodeIDs[i])
				}
			}
		}
		for i, rp := range ec.part.Rels {
			if binding[rp.Variable] != ec.relIDs[i] {
				t.Fatalf("rel var %s binding mismatch", rp.Variable)
			}
			if len(rp.Types) > 0 && rp.Types[0] != g.Rel(ec.relIDs[i]).Type {
				t.Fatalf("encoded type %s wrong for rel %d", rp.Types[0], ec.relIDs[i])
			}
		}
	}
	// Planned variables are used for planned elements.
	for ref, v := range syn.plan.ElemVar {
		if id, ok := binding[v]; ok && id != ref.id {
			t.Fatalf("planned var %s bound to %d, plan says %d", v, id, ref.id)
		}
	}
}
