package graph

import (
	"slices"
	"sync"
)

// Snapshot is an immutable, shareable view of one graph state: the node,
// relationship, and adjacency tables frozen by Seal, plus the precomputed
// ascending ID lists every full scan reads for free. Nothing in a
// snapshot is mutated after Seal returns, so any number of overlay graphs
// (FromSnapshot) — and the stores and engines above them — can read one
// snapshot concurrently. This is the paper-harness analogue of restoring
// the database between oracle checks without reloading it: all five
// simulated GDBs of one campaign iteration share a single snapshot and
// each pays only for the entries it writes.
//
// The tables are ID-indexed slices, not maps (DESIGN.md §15). Each kind
// spans only its own ID range: nodes[i] is the node with ID nodeBase+i,
// rels[i] the relationship with ID relBase+i, and out[i]/in[i] are the
// adjacency lists of node nodeBase+i. An ID inside the range that names
// no element (the other kind's ID, or a deleted element) holds nil.
// Every read goes through the bounds-checked accessors below, so any ID
// — negative, another kind's, or far past the table — yields nil.
//
// nodeCols/relCols are the int64 property columns parallel to the
// tables (columns.go): a bulk snapshot keeps node `id` and `k0` there
// and has an all-absent relationship `id` column; a sealed small graph
// has none and keeps every property in its elements' maps.
type Snapshot struct {
	nodes    []*Node
	rels     []*Rel
	out      [][]ID
	in       [][]ID
	nodeBase ID
	relBase  ID
	nodeCols []propColumn
	relCols  []propColumn
	// nextID is the ID counter at seal time; overlay graphs start their
	// counter here so newly created element IDs never collide with base
	// IDs (the counter is monotonic and IDs are never reused).
	nextID ID
	// nodeIDs/relIDs are the ascending ID lists, computed once at Seal so
	// every AllNodesScan on every sharing store is allocation-free.
	nodeIDs []ID
	relIDs  []ID

	// idx caches one label/property index per schema, built on first
	// request and shared by every store loaded from this snapshot.
	mu  sync.Mutex
	idx map[*Schema]*Index

	// adj caches the adjacency index (schema-independent), built on
	// first request — see AdjIndex in adjindex.go.
	adjOnce sync.Once
	adj     *AdjIndex
}

// NumNodes returns the number of nodes in the snapshot.
func (s *Snapshot) NumNodes() int { return len(s.nodeIDs) }

// NumRels returns the number of relationships in the snapshot.
func (s *Snapshot) NumRels() int { return len(s.relIDs) }

// NodeIDs returns all node IDs ascending. The slice is shared and
// read-only.
func (s *Snapshot) NodeIDs() []ID { return s.nodeIDs }

// RelIDs returns all relationship IDs ascending. The slice is shared and
// read-only.
func (s *Snapshot) RelIDs() []ID { return s.relIDs }

// Node returns the snapshot's node with the given ID, or nil. The node is
// shared and must not be mutated; writers go through an overlay graph's
// MutableNode.
func (s *Snapshot) Node(id ID) *Node {
	if i := id - s.nodeBase; i >= 0 && i < ID(len(s.nodes)) {
		return s.nodes[i]
	}
	return nil
}

// Rel returns the snapshot's relationship with the given ID, or nil
// (shared, read-only).
func (s *Snapshot) Rel(id ID) *Rel {
	if i := id - s.relBase; i >= 0 && i < ID(len(s.rels)) {
		return s.rels[i]
	}
	return nil
}

// Out returns the IDs of relationships leaving the snapshot's node, in
// insertion order, or nil (shared, read-only).
func (s *Snapshot) Out(n ID) []ID {
	if i := n - s.nodeBase; i >= 0 && i < ID(len(s.out)) {
		return s.out[i]
	}
	return nil
}

// In returns the IDs of relationships entering the snapshot's node, in
// insertion order, or nil (shared, read-only).
func (s *Snapshot) In(n ID) []ID {
	if i := n - s.nodeBase; i >= 0 && i < ID(len(s.in)) {
		return s.in[i]
	}
	return nil
}

// Index returns the label/property index of this snapshot under the
// given schema, building it on the first request and caching it per
// schema pointer, so all stores sharing the snapshot share one index
// build. The label lists are built here; the property buckets on their
// first probe (see Index). Safe for concurrent use.
func (s *Snapshot) Index(schema *Schema) *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix, ok := s.idx[schema]; ok {
		return ix
	}
	ix := newIndex(FromSnapshot(s), schema)
	if s.idx == nil {
		s.idx = make(map[*Schema]*Index, 1)
	}
	s.idx[schema] = ix
	return ix
}

// Seal freezes the graph's current contents into a Snapshot and converts
// the graph itself into an overlay over it, so g stays fully readable
// (and writable) afterwards. Seal is O(n): it sorts the ID lists and
// copies the element pointers and adjacency lists (not the elements)
// into ID-indexed tables. Sealing an overlay graph whose overlay is empty
// returns the existing base unchanged; a diverged overlay is
// materialized first. After Seal the snapshot is immutable — the usual
// ownership contract (mutate only through the owning store) is what
// keeps later writers honest.
func (g *Graph) Seal() *Snapshot {
	if g.base != nil {
		if len(g.nodes) == 0 && len(g.rels) == 0 && len(g.out) == 0 && len(g.in) == 0 {
			return g.base
		}
		*g = *g.Clone()
	}
	s := &Snapshot{
		nextID:  g.nextID,
		nodeIDs: sortedKeys(g.nodes),
		relIDs:  sortedKeys(g.rels),
	}
	s.nodeBase, s.nodes = table(s.nodeIDs, g.nodes)
	s.relBase, s.rels = table(s.relIDs, g.rels)
	s.out = make([][]ID, len(s.nodes))
	s.in = make([][]ID, len(s.nodes))
	for _, id := range s.nodeIDs {
		s.out[id-s.nodeBase] = g.out[id]
		s.in[id-s.nodeBase] = g.in[id]
	}
	*g = *FromSnapshot(s)
	return s
}

// table lays the elements of m out in an ID-indexed slice spanning the
// ascending ids, returning the first ID and the table.
func table[E any](ids []ID, m map[ID]*E) (ID, []*E) {
	if len(ids) == 0 {
		return 0, nil
	}
	base := ids[0]
	t := make([]*E, ids[len(ids)-1]-base+1)
	for _, id := range ids {
		t[id-base] = m[id]
	}
	return base, t
}

// FromSnapshot returns a new overlay graph over the snapshot: an O(1)
// logical copy. Writes copy individual entries into the overlay (see
// MutableNode/MutableRel); ResetToBase drops them again.
func FromSnapshot(s *Snapshot) *Graph {
	return &Graph{
		base:     s,
		nodes:    make(map[ID]*Node),
		rels:     make(map[ID]*Rel),
		out:      make(map[ID][]ID),
		in:       make(map[ID][]ID),
		nextID:   s.nextID,
		numNodes: s.NumNodes(),
		numRels:  s.NumRels(),
	}
}

// ResetToBase discards every overlay entry, restoring the graph to the
// exact state of its base snapshot: O(size of the overlay), zero
// allocations, no per-element copying. Returns false (and does nothing)
// when the graph has no base.
func (g *Graph) ResetToBase() bool {
	if g.base == nil {
		return false
	}
	clear(g.nodes)
	clear(g.rels)
	clear(g.out)
	clear(g.in)
	g.nextID = g.base.nextID
	g.numNodes = g.base.NumNodes()
	g.numRels = g.base.NumRels()
	g.cow = COWStats{}
	return true
}

// Base returns the snapshot this graph overlays, or nil for a plain
// graph.
func (g *Graph) Base() *Snapshot { return g.base }

func sortedKeys[E any](m map[ID]*E) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
