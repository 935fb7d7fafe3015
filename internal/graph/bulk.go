package graph

import (
	"fmt"
	"math/rand"
)

// Bulk graph generation: the large-graph leg of the campaign harness.
// Where the paper's generator builds ~13-node graphs one element at a
// time (NewNode/NewRel maintaining adjacency incrementally, the store
// indexing per element), generateBulk writes a Scale-node graph
// straight into the ID-indexed tables of a Snapshot and carves all
// adjacency lists from two shared backing arrays in one counting pass.
// The result is an overlay over that snapshot, so sealing it is free
// (Seal returns the base), and no per-element index churn happens at
// all: the label index and the adjacency index are each built exactly
// once when the snapshot is first read, and the property index's
// buckets on its first probe.
//
// Relationship endpoints are drawn by preferential attachment — every
// accepted endpoint re-enters the draw pool — so degree follows a
// power law: a few hub nodes collect thousands of relationships while
// the median node keeps a handful. That skew is what gives the
// adjacency index something to beat the scan on (a typed expansion
// from a hub touches the matching bucket, not the hub's whole list),
// and mirrors the degree structure of the production graphs the
// related work benchmarks against. Relationship types are Zipf-skewed
// for the same reason: rare types make typed expansion maximally
// selective.

// bulkRelFactor is the default relationships-per-node ratio when
// MaxRels does not cover Scale.
const bulkRelFactor = 3

// bulkTypeSkew is the Zipf exponent of the relationship-type
// distribution (s > 1 required by rand.NewZipf).
const bulkTypeSkew = 1.5

// generateBulk builds the Scale-node power-law graph: nodes 0..N-1 and
// relationships N..N+R-1, so both snapshot tables are dense. It returns
// an empty overlay over the filled snapshot. Deterministic for a given
// rand source, like Generate.
func generateBulk(r *rand.Rand, cfg GenConfig) (*Graph, *Schema) {
	cfg = cfg.withDefaults()
	nNodes := cfg.Scale
	if nNodes < 2 {
		nNodes = 2
	}
	nRels := cfg.MaxRels
	if nRels < nNodes {
		nRels = bulkRelFactor * nNodes
	}

	s := &Schema{Props: make(map[string]PropType, cfg.NumProps)}
	for i := 0; i < cfg.NumLabels; i++ {
		s.Labels = append(s.Labels, fmt.Sprintf("L%d", i))
	}
	for i := 0; i < cfg.NumRelTypes; i++ {
		s.RelTypes = append(s.RelTypes, fmt.Sprintf("T%d", i))
	}
	for i := 0; i < cfg.NumProps; i++ {
		s.Props[fmt.Sprintf("k%d", i)] = PropType(i % 5)
	}
	// One declared index per label over k0. Every node carries k0 = id,
	// so any node is reachable through a selective probe — the bench's
	// anchored per-hop queries rely on this.
	for _, l := range s.Labels {
		s.Indexes = append(s.Indexes, IndexSpec{Label: l, Property: "k0"})
	}

	snap := &Snapshot{
		nodes:   make([]*Node, nNodes),
		rels:    make([]*Rel, nRels),
		out:     make([][]ID, nNodes),
		in:      make([][]ID, nNodes),
		relBase: ID(nNodes),
		nextID:  ID(nNodes + nRels),
		nodeIDs: make([]ID, nNodes),
		relIDs:  make([]ID, nRels),
	}
	// Nodes 0..nNodes-1: one label, props id + k0 (both the element ID,
	// k0 being the indexed probe key). The properties go into int64
	// columns, not per-node maps (DESIGN.md §17); k0 shares the id
	// column's storage, since the two are equal on every node and a
	// snapshot's columns are never written after generation. Node
	// structs and their one-label slices come from two batch allocations
	// — at bulk scale, per-element allocation is the dominant generation
	// cost. The structs are safe to share a backing array: overlay
	// mutation copies elements before writing (MutableNode), never in
	// place.
	idCol := newPropColumn("id", nNodes)
	nodeArr := make([]Node, nNodes)
	labelArr := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		id := ID(i)
		labelArr[i] = s.Labels[r.Intn(len(s.Labels))]
		n := &nodeArr[i]
		n.ID = id
		n.Labels = labelArr[i : i+1 : i+1]
		idCol.set(i, int64(id))
		snap.nodes[i] = n
		snap.nodeIDs[i] = id
	}
	k0Col := idCol
	k0Col.key = "k0"
	snap.nodeCols = []propColumn{idCol, k0Col}
	// Relationships get an id column with every entry absent: bulk
	// relationships carry no properties, and a later fill needs no map
	// per relationship.
	snap.relCols = []propColumn{newPropColumn("id", nRels)}

	// Endpoint draws: Barabási–Albert-style arrival. Relationships are
	// distributed evenly over nodes in ID order; each attaches its
	// arriving node to an endpoint drawn from the pool of all previous
	// endpoints (seeded with node 0), and both endpoints re-enter the
	// pool, so early nodes accumulate degree ~ √(N/i) — genuine
	// power-law hubs. Orientation is randomized per relationship so
	// hubs grow both in- and out-degree. Colliding endpoints become
	// self-loops or are redirected, as in the small generator.
	pool := make([]ID, 1, 1+2*nRels)
	zipf := rand.NewZipf(r, bulkTypeSkew, 1, uint64(len(s.RelTypes)-1))
	relArr := make([]Rel, nRels)
	outDeg := make([]int32, nNodes)
	inDeg := make([]int32, nNodes)
	for i := 0; i < nRels; i++ {
		a := ID(1 + i*(nNodes-1)/nRels)
		b := pool[r.Intn(len(pool))]
		if a == b && r.Intn(100) >= cfg.SelfLoopPercent {
			b = ID((int(b) + 1) % nNodes)
		}
		if r.Intn(2) == 1 {
			a, b = b, a
		}
		pool = append(pool, a, b)
		// No relationship properties (the id column stays absent), and
		// property ground truth on large graphs comes from nodes (the
		// sampled selector skips prop-less elements). Writes still work
		// — the COW copy materializes an empty map.
		rel := &relArr[i]
		rel.ID, rel.Type, rel.Start, rel.End = ID(nNodes+i), s.RelTypes[zipf.Uint64()], a, b
		snap.rels[i] = rel
		snap.relIDs[i] = rel.ID
		outDeg[a]++
		inDeg[b]++
	}

	// Adjacency fill: prefix-sum offsets carve every node's out/in list
	// from one backing array per direction. Filling in relationship-ID
	// order keeps each list ascending in rel ID, exactly the invariant
	// incremental NewRel maintains. The three-index slice expressions
	// clamp capacity so a later overlay append can never clobber a
	// neighbour's list.
	outOff := make([]int32, nNodes+1)
	inOff := make([]int32, nNodes+1)
	for i := 0; i < nNodes; i++ {
		outOff[i+1] = outOff[i] + outDeg[i]
		inOff[i+1] = inOff[i] + inDeg[i]
	}
	outBack := make([]ID, nRels)
	inBack := make([]ID, nRels)
	outPos := make([]int32, nNodes)
	inPos := make([]int32, nNodes)
	copy(outPos, outOff[:nNodes])
	copy(inPos, inOff[:nNodes])
	for i := range relArr {
		rel := &relArr[i]
		outBack[outPos[rel.Start]] = rel.ID
		outPos[rel.Start]++
		inBack[inPos[rel.End]] = rel.ID
		inPos[rel.End]++
	}
	for i := 0; i < nNodes; i++ {
		if outDeg[i] > 0 {
			snap.out[i] = outBack[outOff[i]:outOff[i+1]:outOff[i+1]]
		}
		if inDeg[i] > 0 {
			snap.in[i] = inBack[inOff[i]:inOff[i+1]:inOff[i+1]]
		}
	}
	return FromSnapshot(snap), s
}
