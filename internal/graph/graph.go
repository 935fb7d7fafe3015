// Package graph implements the labeled property graph (LPG) data model of
// Section 2.1 of the GQS paper: nodes and relationships carrying labels
// (resp. types) and key-value properties, plus the random graph generator
// used by step ① (Initialization) of the GQS workflow.
package graph

import (
	"fmt"
	"slices"
	"strings"

	"gqs/internal/value"
)

// ID identifies a graph element. Node and relationship identifiers are
// drawn from one shared counter so that an element's `id` property is
// unique across the whole graph, which the predicate uniquification of
// GQS (§3.4) relies on. IDs are never reused, so every element created
// after a Seal has an ID strictly greater than every base ID.
type ID = int64

// Node is a graph node with labels and properties. A node of a sealed
// snapshot may keep some properties in the snapshot's columns instead of
// Props (a bulk node has no Props map at all), so read properties
// through Graph.Prop or Graph.Props, not Props.
type Node struct {
	ID     ID
	Labels []string
	Props  map[string]value.Value
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(l string) bool {
	for _, x := range n.Labels {
		if x == l {
			return true
		}
	}
	return false
}

// Rel is a directed relationship with a type and properties; like a
// Node's, its properties are read through Graph.Prop or Graph.Props.
type Rel struct {
	ID    ID
	Type  string
	Start ID
	End   ID
	Props map[string]value.Value
}

// Graph is an in-memory labeled property graph. It is not safe for
// concurrent mutation; the engine layer provides synchronization.
//
// A graph is either plain — its maps own all the data — or an overlay
// over an immutable Snapshot (see Seal and FromSnapshot). In overlay
// mode the maps hold only entries that differ from the base: an element
// copied in on first write, a newly created element, or a nil entry
// marking a deleted base element (a tombstone; for adjacency, a present
// overlay entry shadows the base list). Readers resolve overlay-first
// with base fallback, so sharing one snapshot across many graphs costs
// nothing until a graph writes — and then only for the entries written.
type Graph struct {
	base   *Snapshot
	nodes  map[ID]*Node
	rels   map[ID]*Rel
	out    map[ID][]ID // node -> outgoing rel IDs
	in     map[ID][]ID // node -> incoming rel IDs
	nextID ID
	// numNodes/numRels track live element counts: with an overlay, map
	// lengths alone cannot answer them.
	numNodes int
	numRels  int
	cow      COWStats
}

// COWStats counts the copy-on-write promotions a graph performed since
// it was created or last ResetToBase; the bench harness reports them per
// campaign iteration to show what each write actually copied.
type COWStats struct {
	NodeCopies int // base nodes copied into the overlay before mutation
	RelCopies  int // base relationships copied before mutation
	AdjCopies  int // base adjacency lists copied before append/remove
}

// Add returns the element-wise sum of two stat blocks.
func (c COWStats) Add(o COWStats) COWStats {
	c.NodeCopies += o.NodeCopies
	c.RelCopies += o.RelCopies
	c.AdjCopies += o.AdjCopies
	return c
}

// Total returns the total number of copy-on-write promotions.
func (c COWStats) Total() int { return c.NodeCopies + c.RelCopies + c.AdjCopies }

// COW returns the graph's copy-on-write promotion counters.
func (g *Graph) COW() COWStats { return g.cow }

// New returns an empty plain graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[ID]*Node),
		rels:  make(map[ID]*Rel),
		out:   make(map[ID][]ID),
		in:    make(map[ID][]ID),
	}
}

// NewNode creates a node with the given labels and empty properties and
// returns it. The `id` property is set to the element identifier.
func (g *Graph) NewNode(labels ...string) *Node {
	id := g.nextID
	g.nextID++
	n := &Node{ID: id, Labels: labels, Props: map[string]value.Value{"id": value.Int(id)}}
	g.nodes[id] = n
	g.numNodes++
	return n
}

// NewRel creates a relationship from start to end with the given type and
// returns it. The `id` property is set to the element identifier.
func (g *Graph) NewRel(start, end ID, typ string) (*Rel, error) {
	if g.Node(start) == nil {
		return nil, fmt.Errorf("graph: start node %d does not exist", start)
	}
	if g.Node(end) == nil {
		return nil, fmt.Errorf("graph: end node %d does not exist", end)
	}
	id := g.nextID
	g.nextID++
	r := &Rel{ID: id, Type: typ, Start: start, End: end, Props: map[string]value.Value{"id": value.Int(id)}}
	g.rels[id] = r
	g.numRels++
	g.adjAppend(g.out, g.baseOut(start), start, id)
	g.adjAppend(g.in, g.baseIn(end), end, id)
	return r, nil
}

// baseOut returns the node's out list in the base snapshot (nil for a
// plain graph).
func (g *Graph) baseOut(n ID) []ID {
	if g.base != nil {
		return g.base.Out(n)
	}
	return nil
}

// baseIn is baseOut for in lists.
func (g *Graph) baseIn(n ID) []ID {
	if g.base != nil {
		return g.base.In(n)
	}
	return nil
}

// adjAppend appends rid to the node's adjacency list in the overlay map
// ov, copying the node's base list b first when the overlay has no entry
// yet.
func (g *Graph) adjAppend(ov map[ID][]ID, b []ID, n, rid ID) {
	if ids, ok := ov[n]; ok {
		ov[n] = append(ids, rid)
		return
	}
	if len(b) > 0 {
		g.cow.AdjCopies++
		ids := make([]ID, len(b), len(b)+1)
		copy(ids, b)
		ov[n] = append(ids, rid)
		return
	}
	ov[n] = []ID{rid}
}

// adjRemove removes rid from the node's adjacency list, copying the
// node's base list b into the overlay first when needed.
func (g *Graph) adjRemove(ov map[ID][]ID, b []ID, n, rid ID) {
	if ids, ok := ov[n]; ok {
		ov[n] = removeID(ids, rid)
		return
	}
	if len(b) == 0 {
		return
	}
	g.cow.AdjCopies++
	ids := make([]ID, len(b))
	copy(ids, b)
	ov[n] = removeID(ids, rid)
}

// Node returns the node with the given ID, or nil. The returned node is
// a read-only view when it still lives in a shared base snapshot; every
// mutation must go through MutableNode (the engine store does). An
// overlay with no node entries reads the base table directly.
func (g *Graph) Node(id ID) *Node {
	if g.base != nil && len(g.nodes) == 0 {
		return g.base.Node(id)
	}
	if n, ok := g.nodes[id]; ok || g.base == nil {
		return n
	}
	return g.base.Node(id)
}

// Rel returns the relationship with the given ID, or nil (read-only when
// base-resident; mutate via MutableRel).
func (g *Graph) Rel(id ID) *Rel {
	if g.base != nil && len(g.rels) == 0 {
		return g.base.Rel(id)
	}
	if r, ok := g.rels[id]; ok || g.base == nil {
		return r
	}
	return g.base.Rel(id)
}

// MutableNode returns the node ready for in-place mutation, copying its
// labels and properties (column entries included) out of the base
// snapshot on this graph's first write to it. Callers about to change
// Labels or Props must use it in place of Node, or a shared snapshot
// would observe the write.
func (g *Graph) MutableNode(id ID) *Node {
	if n, ok := g.nodes[id]; ok || g.base == nil {
		return n
	}
	n := g.base.Node(id)
	if n == nil {
		return nil
	}
	g.cow.NodeCopies++
	props, _ := g.props(id, false, true)
	cp := &Node{ID: n.ID, Labels: slices.Clone(n.Labels), Props: props}
	if cp.Props == nil {
		// Bulk-generated elements may carry no properties; the copy must
		// still accept writes.
		cp.Props = map[string]value.Value{}
	}
	g.nodes[id] = cp
	return cp
}

// MutableRel is MutableNode for relationships.
func (g *Graph) MutableRel(id ID) *Rel {
	if r, ok := g.rels[id]; ok || g.base == nil {
		return r
	}
	r := g.base.Rel(id)
	if r == nil {
		return nil
	}
	g.cow.RelCopies++
	props, _ := g.props(id, true, true)
	cp := &Rel{ID: r.ID, Type: r.Type, Start: r.Start, End: r.End, Props: props}
	if cp.Props == nil {
		cp.Props = map[string]value.Value{}
	}
	g.rels[id] = cp
	return cp
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumRels returns the number of relationships.
func (g *Graph) NumRels() int { return g.numRels }

// NodeIDs returns all node IDs in ascending order. The returned slice
// may be shared with the graph's base snapshot (an unmodified overlay
// returns the precomputed list without allocating) and must be treated
// as read-only.
func (g *Graph) NodeIDs() []ID {
	if g.base == nil {
		ids := make([]ID, 0, len(g.nodes))
		for id := range g.nodes {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	if len(g.nodes) == 0 {
		return g.base.nodeIDs
	}
	return mergeIDs(g.base.nodeIDs, g.nodes, g.base.Node, g.numNodes)
}

// RelIDs returns all relationship IDs in ascending order (shared,
// read-only — see NodeIDs).
func (g *Graph) RelIDs() []ID {
	if g.base == nil {
		ids := make([]ID, 0, len(g.rels))
		for id := range g.rels {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	if len(g.rels) == 0 {
		return g.base.relIDs
	}
	return mergeIDs(g.base.relIDs, g.rels, g.base.Rel, g.numRels)
}

// mergeIDs folds an overlay into the base's ascending ID list: base IDs
// minus tombstones, then overlay additions. Additions sort strictly
// after every base ID (the counter is monotonic), so the result stays
// ascending.
func mergeIDs[E any](baseIDs []ID, overlay map[ID]*E, base func(ID) *E, total int) []ID {
	ids := make([]ID, 0, total)
	for _, id := range baseIDs {
		if e, ok := overlay[id]; !ok || e != nil {
			ids = append(ids, id)
		}
	}
	var added []ID
	for id, e := range overlay {
		if e == nil {
			continue
		}
		if base(id) == nil {
			added = append(added, id)
		}
	}
	slices.Sort(added)
	return append(ids, added...)
}

// Out returns the IDs of relationships leaving the node, in insertion
// order. The slice may be shared with the base snapshot; read-only.
func (g *Graph) Out(n ID) []ID {
	if g.base != nil && len(g.out) == 0 {
		return g.base.Out(n)
	}
	if ids, ok := g.out[n]; ok || g.base == nil {
		return ids
	}
	return g.base.Out(n)
}

// In returns the IDs of relationships entering the node, in insertion
// order (shared, read-only — see Out).
func (g *Graph) In(n ID) []ID {
	if g.base != nil && len(g.in) == 0 {
		return g.base.In(n)
	}
	if ids, ok := g.in[n]; ok || g.base == nil {
		return ids
	}
	return g.base.In(n)
}

// Incident returns all relationship IDs touching the node (out then in).
// A self-loop appears twice.
func (g *Graph) Incident(n ID) []ID {
	out := g.Out(n)
	in := g.In(n)
	ids := make([]ID, 0, len(out)+len(in))
	ids = append(ids, out...)
	ids = append(ids, in...)
	return ids
}

// DeleteNode removes a node. It fails if relationships are still attached,
// mirroring Cypher's DELETE semantics (DETACH DELETE removes them first).
func (g *Graph) DeleteNode(id ID, detach bool) error {
	if g.Node(id) == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	if len(g.Out(id)) > 0 || len(g.In(id)) > 0 {
		if !detach {
			return fmt.Errorf("graph: node %d still has relationships", id)
		}
		for _, rid := range g.Incident(id) {
			if g.Rel(rid) != nil {
				g.DeleteRel(rid)
			}
		}
	}
	if g.base != nil && g.base.Node(id) != nil {
		// Tombstone: a nil overlay entry shadows the base element, and
		// present (nil) adjacency entries shadow the base lists.
		g.nodes[id] = nil
		g.out[id] = nil
		g.in[id] = nil
	} else {
		delete(g.nodes, id)
		delete(g.out, id)
		delete(g.in, id)
	}
	g.numNodes--
	return nil
}

// DeleteRel removes a relationship.
func (g *Graph) DeleteRel(id ID) {
	r := g.Rel(id)
	if r == nil {
		return
	}
	g.adjRemove(g.out, g.baseOut(r.Start), r.Start, id)
	g.adjRemove(g.in, g.baseIn(r.End), r.End, id)
	if g.base != nil && g.base.Rel(id) != nil {
		g.rels[id] = nil
	} else {
		delete(g.rels, id)
	}
	g.numRels--
}

func removeID(ids []ID, id ID) []ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Clone returns a deep copy of the graph as a plain graph, materializing
// any overlay through the base. Property values are shared (they are
// immutable); property maps, label slices, and adjacency lists are
// copied.
func (g *Graph) Clone() *Graph {
	c := New()
	c.nextID = g.nextID
	nodeIDs := g.NodeIDs()
	for _, id := range nodeIDs {
		n := g.Node(id)
		props, _ := g.props(id, false, true)
		c.nodes[id] = &Node{ID: id, Labels: slices.Clone(n.Labels), Props: props}
	}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		props, _ := g.props(id, true, true)
		c.rels[id] = &Rel{ID: id, Type: r.Type, Start: r.Start, End: r.End, Props: props}
	}
	for _, id := range nodeIDs {
		if out := g.Out(id); len(out) > 0 {
			c.out[id] = slices.Clone(out)
		}
		if in := g.In(id); len(in) > 0 {
			c.in[id] = slices.Clone(in)
		}
	}
	c.numNodes = len(c.nodes)
	c.numRels = len(c.rels)
	return c
}

// String renders a compact human-readable summary of the graph.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph{%d nodes, %d rels}", g.numNodes, g.numRels)
	return sb.String()
}

// PropertyKey identifies one property of one graph element: the pair
// ⟨e, n⟩ from §2.1 of the paper.
type PropertyKey struct {
	Element ID
	IsRel   bool
	Name    string
}

// Lookup resolves the property key against the graph, returning the value
// and whether the property exists.
func (g *Graph) Lookup(k PropertyKey) (value.Value, bool) {
	return g.Prop(k.Element, k.IsRel, k.Name)
}
