package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAdjIndexMatchesAdjacencyLists reconstructs every (node, type)
// bucket naively from the sealed adjacency lists and compares it to the
// built index, including Pos/NSPos accounting and self-loop counts.
func TestAdjIndexMatchesAdjacencyLists(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, _ := Generate(r, GenConfig{MaxNodes: 20, MaxRels: 120})
		snap := g.Seal()
		ix := snap.AdjIndex()

		type key struct {
			node ID
			typ  string
		}
		wantOut := map[key][]AdjEntry{}
		wantIn := map[key][]AdjEntry{}
		wantSelf := map[ID]int32{}
		for _, n := range snap.NodeIDs() {
			for pos, rid := range snap.Out(n) {
				rel := snap.Rel(rid)
				k := key{n, rel.Type}
				p := int32(pos)
				wantOut[k] = append(wantOut[k], AdjEntry{Rel: rid, Other: rel.End, Pos: p, NSPos: p})
			}
			ns := int32(0)
			for pos, rid := range snap.In(n) {
				rel := snap.Rel(rid)
				e := AdjEntry{Rel: rid, Other: rel.Start, Pos: int32(pos)}
				if rel.Start == rel.End {
					e.NSPos = -1
					wantSelf[n]++
				} else {
					e.NSPos = ns
					ns++
				}
				wantIn[key{n, rel.Type}] = append(wantIn[key{n, rel.Type}], e)
			}
		}
		for k, want := range wantOut {
			if got := ix.Out(k.node, k.typ); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Out(%d, %s) = %v, want %v", seed, k.node, k.typ, got, want)
			}
		}
		for k, want := range wantIn {
			if got := ix.In(k.node, k.typ); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: In(%d, %s) = %v, want %v", seed, k.node, k.typ, got, want)
			}
		}
		// One (node, type) group per non-empty bucket, no more.
		if len(ix.out.groups) != len(wantOut) || len(ix.in.groups) != len(wantIn) {
			t.Fatalf("seed %d: group counts out %d/%d in %d/%d", seed, len(ix.out.groups), len(wantOut), len(ix.in.groups), len(wantIn))
		}
		for _, n := range snap.NodeIDs() {
			if got := ix.SelfLoopIn(n); got != int(wantSelf[n]) {
				t.Fatalf("seed %d: SelfLoopIn(%d) = %d, want %d", seed, n, got, wantSelf[n])
			}
		}
		if snap.AdjIndex() != ix {
			t.Fatal("AdjIndex not cached on the snapshot")
		}
	}
}

// TestAdjIndexSelfLoops pins NSPos on a handcrafted mix of self-loops
// and ordinary relationships sharing one in list.
func TestAdjIndexSelfLoops(t *testing.T) {
	g := New()
	a := g.NewNode("A").ID
	b := g.NewNode("B").ID
	mustRel := func(s, e ID, typ string) ID {
		rel, err := g.NewRel(s, e, typ)
		if err != nil {
			t.Fatal(err)
		}
		return rel.ID
	}
	r0 := mustRel(a, a, "T0") // self-loop
	r1 := mustRel(b, a, "T0")
	r2 := mustRel(a, a, "T1") // self-loop
	r3 := mustRel(b, a, "T1")
	ix := g.Seal().AdjIndex()

	// a's in list is [r0 r1 r2 r3]; non-self-loop ordinals are r1=0, r3=1.
	want := map[string][]AdjEntry{
		"T0": {{Rel: r0, Other: a, Pos: 0, NSPos: -1}, {Rel: r1, Other: b, Pos: 1, NSPos: 0}},
		"T1": {{Rel: r2, Other: a, Pos: 2, NSPos: -1}, {Rel: r3, Other: b, Pos: 3, NSPos: 1}},
	}
	for typ, w := range want {
		if got := ix.In(a, typ); !reflect.DeepEqual(got, w) {
			t.Fatalf("In(a, %s) = %v, want %v", typ, got, w)
		}
	}
	if ix.SelfLoopIn(a) != 2 || ix.SelfLoopIn(b) != 0 {
		t.Fatalf("SelfLoopIn: a=%d b=%d, want 2, 0", ix.SelfLoopIn(a), ix.SelfLoopIn(b))
	}
	if got := ix.Out(a, "T0"); len(got) != 1 || got[0].Rel != r0 || got[0].NSPos != 0 {
		t.Fatalf("Out(a, T0) = %v", got)
	}
}

// TestAdjShadowed pins the overlay-shadowing contract the engine's
// indexed expansion gates on: any overlay adjacency entry — appended,
// copied for removal, or a deletion tombstone — must report shadowed,
// and ResetToBase must clear it.
func TestAdjShadowed(t *testing.T) {
	g := New()
	a := g.NewNode("A").ID
	b := g.NewNode("B").ID
	c := g.NewNode("C").ID
	base, err := g.NewRel(a, b, "T0")
	if err != nil {
		t.Fatal(err)
	}
	g.Seal()

	for _, n := range []ID{a, b, c} {
		if g.AdjShadowed(n, true) || g.AdjShadowed(n, false) {
			t.Fatalf("node %d shadowed on a clean overlay", n)
		}
	}

	// New rel: start's out and end's in become overlay-resident.
	if _, err := g.NewRel(a, c, "T1"); err != nil {
		t.Fatal(err)
	}
	if !g.AdjShadowed(a, true) || !g.AdjShadowed(c, false) {
		t.Fatal("NewRel endpoints not shadowed")
	}
	if g.AdjShadowed(a, false) || g.AdjShadowed(c, true) {
		t.Fatal("NewRel shadowed the unwritten directions")
	}

	if !g.ResetToBase() {
		t.Fatal("ResetToBase failed")
	}
	if g.AdjShadowed(a, true) || g.AdjShadowed(c, false) {
		t.Fatal("shadowing survived ResetToBase")
	}

	// Deleting a base rel copies both endpoints' lists into the overlay.
	g.DeleteRel(base.ID)
	if !g.AdjShadowed(a, true) || !g.AdjShadowed(b, false) {
		t.Fatal("DeleteRel endpoints not shadowed")
	}

	g.ResetToBase()
	// Deleting a base node tombstones its adjacency in both directions.
	if err := g.DeleteNode(b, true); err != nil {
		t.Fatal(err)
	}
	if !g.AdjShadowed(b, true) || !g.AdjShadowed(b, false) {
		t.Fatal("DeleteNode tombstones not shadowed")
	}
}

// TestGenerateBulk pins the bulk generator's shape: exact node count,
// determinism per seed, ascending per-list rel IDs (the invariant
// incremental NewRel maintains and the adjacency index's Pos relies
// on), power-law degree skew, and the per-label k0 index specs.
func TestGenerateBulk(t *testing.T) {
	const scale = 5000
	gen := func(seed int64) (*Graph, *Schema) {
		return Generate(rand.New(rand.NewSource(seed)), GenConfig{Scale: scale})
	}
	g, s := gen(11)
	if g.NumNodes() != scale {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), scale)
	}
	if g.NumRels() != bulkRelFactor*scale {
		t.Fatalf("NumRels = %d, want %d", g.NumRels(), bulkRelFactor*scale)
	}
	if len(s.Indexes) != len(s.Labels) {
		t.Fatalf("index specs = %d, want one per label (%d)", len(s.Indexes), len(s.Labels))
	}

	maxOut := 0
	for _, id := range g.NodeIDs() {
		list := g.Out(id)
		prev := ID(-1)
		for _, rid := range list {
			if rid <= prev {
				t.Fatalf("node %d: out list not ascending: %v", id, list)
			}
			prev = rid
			if g.Rel(rid).Start != id {
				t.Fatalf("node %d: out list holds rel %d starting at %d", id, rid, g.Rel(rid).Start)
			}
		}
		prev = ID(-1)
		for _, rid := range g.In(id) {
			if rid <= prev {
				t.Fatalf("node %d: in list not ascending: %v", id, g.In(id))
			}
			prev = rid
			if g.Rel(rid).End != id {
				t.Fatalf("node %d: in list holds rel %d ending at %d", id, rid, g.Rel(rid).End)
			}
		}
		if len(list) > maxOut {
			maxOut = len(list)
		}
	}
	meanOut := float64(g.NumRels()) / float64(g.NumNodes())
	if float64(maxOut) < 10*meanOut {
		t.Fatalf("degree skew too flat: max out-degree %d vs mean %.1f", maxOut, meanOut)
	}

	// Determinism: same seed, same graph.
	g2, _ := gen(11)
	if !reflect.DeepEqual(g.NodeIDs(), g2.NodeIDs()) || !reflect.DeepEqual(g.RelIDs(), g2.RelIDs()) {
		t.Fatal("bulk generation is not deterministic per seed: element IDs differ")
	}
	for _, id := range g.NodeIDs() {
		if !reflect.DeepEqual(g.Out(id), g2.Out(id)) || !reflect.DeepEqual(g.In(id), g2.In(id)) {
			t.Fatal("bulk generation is not deterministic per seed")
		}
	}
	for _, id := range g.RelIDs() {
		r, r2 := g.Rel(id), g2.Rel(id)
		if r2 == nil || r.Type != r2.Type || r.Start != r2.Start || r.End != r2.End {
			t.Fatalf("rel %d differs across identical seeds", id)
		}
	}

	// Sealing must adopt the bulk tables unchanged: the generator
	// returns an empty overlay, so Seal hands back its base.
	base := g.Base()
	snap := g.Seal()
	if base == nil || snap != base {
		t.Fatal("sealing a bulk graph must return the snapshot it was generated into")
	}
	if snap.NumNodes() != scale || len(snap.RelIDs()) != bulkRelFactor*scale {
		t.Fatalf("sealed counts: %d nodes, %d rels", snap.NumNodes(), len(snap.RelIDs()))
	}
}
