package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gqs/internal/value"
)

func buildSmall(t *testing.T) (*Graph, ID, ID, ID) {
	t.Helper()
	g := New()
	a := g.NewNode("L0")
	b := g.NewNode("L1")
	a.Props["name"] = value.Str("alice")
	r, err := g.NewRel(a.ID, b.ID, "T0")
	if err != nil {
		t.Fatal(err)
	}
	return g, a.ID, b.ID, r.ID
}

func TestSealFreezesAndGraphStaysLive(t *testing.T) {
	g, aID, _, rID := buildSmall(t)
	snap := g.Seal()
	if snap.NumNodes() != 2 || snap.NumRels() != 1 {
		t.Fatalf("snapshot counts: %d nodes, %d rels", snap.NumNodes(), snap.NumRels())
	}
	if g.Base() != snap {
		t.Fatal("Seal must leave the graph as an overlay of the snapshot")
	}
	// The sealed graph keeps working: reads see base data, writes go to
	// the overlay without disturbing the snapshot.
	if g.Node(aID).Props["name"].AsString() != "alice" {
		t.Fatal("read-through to base broken")
	}
	g.MutableNode(aID).Props["name"] = value.Str("bob")
	if snap.Node(aID).Props["name"].AsString() != "alice" {
		t.Fatal("overlay write leaked into the snapshot")
	}
	if g.Node(aID).Props["name"].AsString() != "bob" {
		t.Fatal("overlay write not visible through the graph")
	}
	if snap.Rel(rID) == nil {
		t.Fatal("snapshot lost the relationship")
	}
}

func TestSealCleanOverlayReturnsSameSnapshot(t *testing.T) {
	g, _, _, _ := buildSmall(t)
	s1 := g.Seal()
	s2 := g.Seal()
	if s1 != s2 {
		t.Fatal("sealing a clean overlay must return the existing base")
	}
	// A diverged overlay seals into a new, independent snapshot.
	g.NewNode("L2")
	s3 := g.Seal()
	if s3 == s1 {
		t.Fatal("sealing a diverged overlay must produce a new snapshot")
	}
	if s3.NumNodes() != 3 || s1.NumNodes() != 2 {
		t.Fatalf("counts after re-seal: s3=%d s1=%d", s3.NumNodes(), s1.NumNodes())
	}
}

func TestOverlayIsolation(t *testing.T) {
	g, aID, bID, rID := buildSmall(t)
	snap := g.Seal()
	g1 := FromSnapshot(snap)
	g2 := FromSnapshot(snap)

	// g1 mutates, deletes, and creates; g2 must not see any of it.
	g1.MutableNode(aID).Props["name"] = value.Str("mutated")
	g1.DeleteRel(rID)
	if err := g1.DeleteNode(bID, false); err != nil {
		t.Fatal(err)
	}
	n := g1.NewNode("L9")

	if g2.Node(aID).Props["name"].AsString() != "alice" {
		t.Fatal("g1 mutation visible in g2")
	}
	if g2.Rel(rID) == nil || g2.Node(bID) == nil {
		t.Fatal("g1 deletion visible in g2")
	}
	if g2.Node(n.ID) != nil {
		t.Fatal("g1 creation visible in g2")
	}
	if g1.Node(bID) != nil || g1.Rel(rID) != nil {
		t.Fatal("g1 does not see its own deletions")
	}
	// New IDs in independent overlays may collide with each other (both
	// counters start at the snapshot's), but never with base IDs.
	if n.ID <= bID {
		t.Fatal("overlay ID collided with a base ID")
	}
}

func TestResetToBase(t *testing.T) {
	g, aID, bID, rID := buildSmall(t)
	g.Seal()
	g.MutableNode(aID).Props["name"] = value.Str("changed")
	g.DeleteRel(rID)
	if err := g.DeleteNode(bID, false); err != nil {
		t.Fatal(err)
	}
	g.NewNode("L5")
	g.NewNode("L6")

	if !g.ResetToBase() {
		t.Fatal("ResetToBase must succeed on an overlay graph")
	}
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Fatalf("counts after reset: %d nodes, %d rels", g.NumNodes(), g.NumRels())
	}
	if g.Node(aID).Props["name"].AsString() != "alice" {
		t.Fatal("reset did not restore the mutated property")
	}
	if g.Node(bID) == nil || g.Rel(rID) == nil {
		t.Fatal("reset did not restore deleted elements")
	}
	if g.COW().Total() != 0 {
		t.Fatal("reset must clear the COW counters")
	}
	// A plain graph has no base to reset to.
	if New().ResetToBase() {
		t.Fatal("ResetToBase on a plain graph must report false")
	}
}

func TestOverlayIDListsMergeDeletionsAndAdditions(t *testing.T) {
	g := New()
	var ids []ID
	for i := 0; i < 5; i++ {
		ids = append(ids, g.NewNode("L0").ID)
	}
	snap := g.Seal()
	ov := FromSnapshot(snap)
	if err := ov.DeleteNode(ids[1], true); err != nil {
		t.Fatal(err)
	}
	if err := ov.DeleteNode(ids[3], true); err != nil {
		t.Fatal(err)
	}
	added := ov.NewNode("L1").ID

	got := ov.NodeIDs()
	want := []ID{ids[0], ids[2], ids[4], added}
	if len(got) != len(want) {
		t.Fatalf("NodeIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeIDs = %v, want %v", got, want)
		}
	}
	// The snapshot's own list is untouched.
	if len(snap.NodeIDs()) != 5 {
		t.Fatal("snapshot NodeIDs changed")
	}
}

func TestCloneOfOverlayIsIndependent(t *testing.T) {
	g, aID, _, _ := buildSmall(t)
	snap := g.Seal()
	ov := FromSnapshot(snap)
	ov.MutableNode(aID).Props["name"] = value.Str("ov")
	ov.NewNode("L7")

	cl := ov.Clone()
	if cl.NumNodes() != ov.NumNodes() || cl.NumRels() != ov.NumRels() {
		t.Fatal("clone counts differ")
	}
	if cl.Node(aID).Props["name"].AsString() != "ov" {
		t.Fatal("clone lost the overlay mutation")
	}
	// Clone is fully independent: further writes on either side are
	// invisible to the other, and to the snapshot.
	cl.MutableNode(aID).Props["name"] = value.Str("cl")
	if ov.Node(aID).Props["name"].AsString() != "ov" {
		t.Fatal("clone write leaked into the overlay")
	}
	if snap.Node(aID).Props["name"].AsString() != "alice" {
		t.Fatal("overlay write leaked into the snapshot")
	}
}

func TestSnapshotIndexCachedPerSchema(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, schema := Generate(r, GenConfig{MaxNodes: 10, MaxRels: 20})
	snap := g.Seal()
	ix1 := snap.Index(schema)
	ix2 := snap.Index(schema)
	if ix1 != ix2 {
		t.Fatal("Index must be built once per schema and cached")
	}
	other := &Schema{Labels: schema.Labels, RelTypes: schema.RelTypes, Props: schema.Props}
	if snap.Index(other) == ix1 {
		t.Fatal("distinct schema pointers must get distinct index builds")
	}
}

func TestCOWStatsCountPromotions(t *testing.T) {
	g, aID, bID, _ := buildSmall(t)
	snap := g.Seal()
	ov := FromSnapshot(snap)
	if ov.COW().Total() != 0 {
		t.Fatal("fresh overlay must start with zero COW promotions")
	}
	ov.MutableNode(aID).Props["x"] = value.Int(1)
	ov.MutableNode(aID).Props["y"] = value.Int(2) // second write: already promoted
	if got := ov.COW().NodeCopies; got != 1 {
		t.Fatalf("NodeCopies = %d, want 1 (promotion happens once per element)", got)
	}
	if _, err := ov.NewRel(aID, bID, "T1"); err != nil {
		t.Fatal(err)
	}
	if ov.COW().AdjCopies == 0 {
		t.Fatal("appending to base adjacency must count an AdjCopy")
	}
}

// probeIDs returns IDs around every edge of a sealed snapshot's tables:
// negatives, each ID up to a little past nextID, and far-out values.
func probeIDs(s *Snapshot) []ID {
	ids := []ID{-1, -2, math.MinInt64, math.MaxInt64, 1 << 40}
	for id := ID(0); id <= s.nextID+2; id++ {
		ids = append(ids, id)
	}
	return ids
}

// checkSnapshotReads asserts that every accessor of the snapshot and of
// an overlay graph over it answers any probe ID without panicking, and
// that an untouched overlay reads exactly the base tables.
func checkSnapshotReads(t *testing.T, s *Snapshot, g *Graph) {
	t.Helper()
	isNode := map[ID]bool{}
	for _, id := range s.NodeIDs() {
		isNode[id] = true
	}
	isRel := map[ID]bool{}
	for _, id := range s.RelIDs() {
		isRel[id] = true
	}
	for _, id := range probeIDs(s) {
		if (s.Node(id) != nil) != isNode[id] || (s.Rel(id) != nil) != isRel[id] {
			t.Fatalf("id %d: Node=%v Rel=%v, want node=%v rel=%v", id, s.Node(id), s.Rel(id), isNode[id], isRel[id])
		}
		if !isNode[id] && (s.Out(id) != nil || s.In(id) != nil) {
			t.Fatalf("id %d: non-node has adjacency %v / %v", id, s.Out(id), s.In(id))
		}
		if g.Node(id) != s.Node(id) || g.Rel(id) != s.Rel(id) {
			t.Fatalf("id %d: overlay read differs from base", id)
		}
		if !slices.Equal(g.Out(id), s.Out(id)) || !slices.Equal(g.In(id), s.In(id)) {
			t.Fatalf("id %d: overlay adjacency differs from base", id)
		}
		if _, ok := g.Lookup(PropertyKey{Element: id, Name: "id"}); ok != isNode[id] {
			t.Fatalf("id %d: node Lookup ok=%v", id, ok)
		}
		if _, ok := g.Lookup(PropertyKey{Element: id, IsRel: true, Name: "id"}); ok && !isRel[id] {
			t.Fatalf("id %d: rel Lookup found a non-rel", id)
		}
	}
}

// TestSnapshotTableContract pins the bounds contract of the ID-indexed
// snapshot tables (DESIGN.md §15) on an incrementally built graph,
// whose node and relationship IDs interleave, and on a bulk graph,
// whose kinds occupy disjoint dense ranges: every accessor returns nil
// for -1, past the end of each table and far past it; overlay creations,
// tombstones and COW copies never reach the snapshot; ResetToBase
// restores the exact base reads.
func TestSnapshotTableContract(t *testing.T) {
	small := New()
	var nodes []ID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, small.NewNode("L0").ID)
		if i > 0 {
			if _, err := small.NewRel(nodes[i-1], nodes[i], "T0"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := small.NewRel(nodes[2], nodes[2], "T1"); err != nil { // self-loop
		t.Fatal(err)
	}
	bulk, _ := Generate(rand.New(rand.NewSource(3)), GenConfig{Scale: 64})

	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"interleaved", small}, {"bulk", bulk}} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			s := g.Seal()
			nIDs, rIDs := s.NodeIDs(), s.RelIDs()
			// Each table spans exactly its own kind's ID range.
			if len(s.nodes) != int(nIDs[len(nIDs)-1]-nIDs[0]+1) || s.nodeBase != nIDs[0] {
				t.Fatalf("node table: base %d len %d for ids %v", s.nodeBase, len(s.nodes), nIDs)
			}
			if len(s.rels) != int(rIDs[len(rIDs)-1]-rIDs[0]+1) || s.relBase != rIDs[0] {
				t.Fatalf("rel table: base %d len %d for ids %v", s.relBase, len(s.rels), rIDs)
			}
			if len(s.out) != len(s.nodes) || len(s.in) != len(s.nodes) {
				t.Fatalf("adjacency tables %d/%d, node table %d", len(s.out), len(s.in), len(s.nodes))
			}
			checkSnapshotReads(t, s, g)

			// Overlay creations after Seal: visible through g only.
			a, b := nIDs[0], nIDs[len(nIDs)-1]
			baseInB := slices.Clone(s.In(b))
			fresh := g.NewNode("L9").ID
			rel, err := g.NewRel(fresh, b, "T0")
			if err != nil {
				t.Fatal(err)
			}
			if g.Node(fresh) == nil || s.Node(fresh) != nil || s.Rel(rel.ID) != nil {
				t.Fatal("overlay creation leaked into, or is missing from, the reads")
			}
			if !slices.Equal(g.Out(fresh), []ID{rel.ID}) || s.Out(fresh) != nil {
				t.Fatalf("Out(fresh) = %v, base %v", g.Out(fresh), s.Out(fresh))
			}
			if want := append(slices.Clone(baseInB), rel.ID); !slices.Equal(g.In(b), want) || !slices.Equal(s.In(b), baseInB) {
				t.Fatalf("In(b) = %v (base %v), want %v over an unchanged base", g.In(b), s.In(b), want)
			}

			// COW: a mutable copy never touches the snapshot's element.
			orig := s.Node(a)
			m := g.MutableNode(a)
			m.Props["x"] = value.Int(1)
			m.Labels = append(m.Labels, "Extra")
			if m == orig || s.Node(a) != orig || orig.HasLabel("Extra") {
				t.Fatal("MutableNode wrote through to the snapshot")
			}
			if _, ok := orig.Props["x"]; ok {
				t.Fatal("MutableNode property write reached the snapshot")
			}

			// Tombstones: deleted base elements vanish from g only.
			r0 := rIDs[0]
			start := s.Rel(r0).Start
			g.DeleteRel(r0)
			if g.Rel(r0) != nil || s.Rel(r0) == nil || slices.Contains(g.Out(start), r0) || !slices.Contains(s.Out(start), r0) {
				t.Fatal("DeleteRel tombstone wrong")
			}
			if err := g.DeleteNode(b, true); err != nil {
				t.Fatal(err)
			}
			if g.Node(b) != nil || g.Out(b) != nil || g.In(b) != nil || s.Node(b) == nil {
				t.Fatal("DeleteNode tombstone wrong")
			}

			// No accessor panics on out-of-range IDs with a dirty
			// overlay either.
			for _, id := range probeIDs(s) {
				g.Node(id)
				g.Rel(id)
				g.Out(id)
				g.In(id)
				if s.Node(id) == nil && g.MutableNode(id) != nil && id != fresh {
					t.Fatalf("MutableNode(%d) invented a node", id)
				}
				if s.Rel(id) == nil && g.MutableRel(id) != nil && id != rel.ID {
					t.Fatalf("MutableRel(%d) invented a rel", id)
				}
			}
			if err := g.DeleteNode(-1, true); err == nil {
				t.Fatal("DeleteNode(-1) must fail")
			}
			g.DeleteRel(math.MaxInt64)

			if !g.ResetToBase() {
				t.Fatal("ResetToBase failed")
			}
			if g.NumNodes() != s.NumNodes() || g.NumRels() != s.NumRels() {
				t.Fatalf("counts after reset: %d/%d", g.NumNodes(), g.NumRels())
			}
			checkSnapshotReads(t, s, g)
		})
	}
}
