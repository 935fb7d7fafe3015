package graph

// Adjacency index: per-node candidate relationship lists keyed by
// (direction, relationship type), built once per sealed snapshot and laid
// out densely (DESIGN.md §17). Match
// expansion over a typed relationship pattern walks the (node, type)
// bucket instead of scanning the node's full adjacency list, so hub
// nodes with thousands of relationships cost only as much as the
// matching subset. The buckets preserve enough positional information
// (Pos/NSPos) for the engine to reconstruct the scan path's candidate
// order and match-step accounting exactly, which is what keeps indexed
// expansion observationally identical to the scan it replaces.

// AdjEntry is one indexed relationship incident to a node: the
// relationship ID, the far endpoint (End for out entries, Start for in
// entries), and the entry's position in the node's full adjacency list.
type AdjEntry struct {
	Rel   ID
	Other ID
	// Pos is the index of Rel in the node's full out (or in) adjacency
	// list — the position a scan of that list would visit it at.
	Pos int32
	// NSPos is, for in entries, the entry's ordinal among the in-list's
	// non-self-loop entries, or -1 for self-loops. The undirected In
	// pass skips self-loops before any other per-candidate work, so its
	// step accounting runs in this compacted position space. For out
	// entries NSPos == Pos.
	NSPos int32
}

// AdjIndex is the per-snapshot adjacency index. Each direction lays its
// entries out in one slab, node by node in table order and, within a
// node, grouped by relationship type; per-node group offsets address
// the groups (adjDir). Groups hold entries in ascending Pos order (the
// build walks each adjacency list in order), so a typed expansion
// visits candidates exactly as the full-list scan would.
type AdjIndex struct {
	// typIdx interns every relationship type present in the snapshot;
	// types absent from it have no entries anywhere.
	typIdx   map[string]int32
	nodeBase ID
	out, in  adjDir
	// selfIn counts self-loop entries in each node's in list (sparse:
	// nodes without self-loops are absent).
	selfIn map[ID]int32
}

// adjDir is one direction of the index. The groups of the node at table
// index i are groups[first[i]:first[i+1]], in ascending type order; group
// g's entries are slab[end of group g-1 : groups[g].end], since the
// groups tile the slab without gaps.
type adjDir struct {
	first  []int32 // len(table)+1 group offsets
	groups []adjGroup
	slab   []AdjEntry
}

// adjGroup is one (node, relationship type) run of the slab: the
// interned type and the slab offset one past its last entry.
type adjGroup struct {
	ti  int32
	end int32
}

// bucket returns the entries of type ti of the node at table index i
// (shared, read-only), or nil.
func (d *adjDir) bucket(i ID, ti int32) []AdjEntry {
	if i < 0 || i+1 >= ID(len(d.first)) {
		return nil
	}
	for g := d.first[i]; g < d.first[i+1]; g++ {
		if d.groups[g].ti != ti {
			continue
		}
		start := int32(0)
		if g > 0 {
			start = d.groups[g-1].end
		}
		end := d.groups[g].end
		return d.slab[start:end:end]
	}
	return nil
}

// Out returns the node's out entries of the given type, Pos-ascending.
// The slice is shared and read-only.
func (ix *AdjIndex) Out(n ID, typ string) []AdjEntry {
	if ti, ok := ix.typIdx[typ]; ok {
		return ix.out.bucket(n-ix.nodeBase, ti)
	}
	return nil
}

// In returns the node's in entries of the given type, Pos-ascending
// (shared, read-only).
func (ix *AdjIndex) In(n ID, typ string) []AdjEntry {
	if ti, ok := ix.typIdx[typ]; ok {
		return ix.in.bucket(n-ix.nodeBase, ti)
	}
	return nil
}

// SelfLoopIn returns how many entries of the node's in list are
// self-loops.
func (ix *AdjIndex) SelfLoopIn(n ID) int {
	return int(ix.selfIn[n])
}

// adjBuilder carries the scratch state of one index build: the type
// table (relationship types interned to small indexes) and per-list
// scratch arrays, so grouping a node's adjacency list by type costs no
// allocation beyond the direction's slab and group list. Every
// relationship appears in exactly one out list and one in list, so each
// direction's entries total s.NumRels().
type adjBuilder struct {
	typIdx map[string]int32
	counts []int32 // per-type entry count of the current list
	starts []int32 // per-type fill cursor of the current list
	tis    []int32 // per-entry type index of the current list
	others []ID    // per-entry far endpoint of the current list
	selfs  []bool  // per-entry self-loop flag (in lists only)

	// meta parallels the snapshot's relationship table: each
	// relationship's endpoints and interned type at rid - relBase, so an
	// adjacency entry costs one indexed read instead of a type-string
	// hash.
	meta    []relMeta
	relBase ID
}

type relMeta struct {
	start, end ID
	ti         int32
}

func (b *adjBuilder) idxOf(typ string) int32 {
	if i, ok := b.typIdx[typ]; ok {
		return i
	}
	i := int32(len(b.typIdx))
	b.typIdx[typ] = i
	b.counts = append(b.counts, 0)
	b.starts = append(b.starts, 0)
	return i
}

func (b *adjBuilder) scratch(n int) {
	if cap(b.tis) < n {
		b.tis = make([]int32, n)
		b.others = make([]ID, n)
		b.selfs = make([]bool, n)
	}
	b.tis = b.tis[:n]
	b.others = b.others[:n]
	b.selfs = b.selfs[:n]
}

// carve groups one node's adjacency list by relationship type onto the
// end of the direction's slab (filled in list order, so groups ascend in
// Pos) and appends its groups in type order. in selects the in-list
// entry shape: Other = Start, self-loops flagged, NSPos compacted.
func (b *adjBuilder) carve(ix *AdjIndex, d *adjDir, n ID, list []ID, in bool) {
	b.scratch(len(list))
	for pos, rid := range list {
		m := &b.meta[rid-b.relBase]
		b.tis[pos] = m.ti
		b.counts[m.ti]++
		if in {
			b.others[pos] = m.start
			b.selfs[pos] = m.start == m.end
		} else {
			b.others[pos] = m.end
		}
	}
	base := len(d.slab)
	d.slab = d.slab[:base+len(list)]
	off := int32(0)
	for ti, c := range b.counts {
		b.starts[ti] = off
		off += c
	}
	ns := int32(0)
	for pos, rid := range list {
		ti := b.tis[pos]
		e := AdjEntry{Rel: rid, Other: b.others[pos], Pos: int32(pos), NSPos: int32(pos)}
		if in {
			if b.selfs[pos] {
				e.NSPos = -1
				ix.selfIn[n]++
			} else {
				e.NSPos = ns
				ns++
			}
		}
		d.slab[base+int(b.starts[ti])] = e
		b.starts[ti]++
	}
	for ti, c := range b.counts {
		if c > 0 {
			d.groups = append(d.groups, adjGroup{ti: int32(ti), end: int32(base) + b.starts[ti]})
			b.counts[ti] = 0
		}
	}
}

// buildAdjIndex indexes every adjacency list of the snapshot: one pass
// over each direction's lists in node-table order, grouping each list by
// relationship type in list order.
func buildAdjIndex(s *Snapshot) *AdjIndex {
	ix := &AdjIndex{
		typIdx:   make(map[string]int32, 16),
		nodeBase: s.nodeBase,
		selfIn:   make(map[ID]int32),
	}
	b := &adjBuilder{typIdx: ix.typIdx, relBase: s.relBase, meta: make([]relMeta, len(s.rels))}
	for _, rid := range s.relIDs {
		r := s.Rel(rid)
		b.meta[rid-b.relBase] = relMeta{start: r.Start, end: r.End, ti: b.idxOf(r.Type)}
	}
	for _, d := range []*adjDir{&ix.out, &ix.in} {
		d.first = make([]int32, len(s.nodes)+1)
		d.groups = make([]adjGroup, 0, s.NumNodes())
		d.slab = make([]AdjEntry, 0, s.NumRels())
	}
	for i := range s.nodes {
		n := s.nodeBase + ID(i)
		if list := s.out[i]; len(list) > 0 {
			b.carve(ix, &ix.out, n, list, false)
		}
		if list := s.in[i]; len(list) > 0 {
			b.carve(ix, &ix.in, n, list, true)
		}
		ix.out.first[i+1] = int32(len(ix.out.groups))
		ix.in.first[i+1] = int32(len(ix.in.groups))
	}
	return ix
}

// AdjIndex returns the snapshot's adjacency index, building it on the
// first request. Safe for concurrent use; every store loaded from this
// snapshot shares one build.
func (s *Snapshot) AdjIndex() *AdjIndex {
	s.adjOnce.Do(func() { s.adj = buildAdjIndex(s) })
	return s.adj
}

// BaseAdjIndex returns the adjacency index of the graph's base
// snapshot, or nil for a plain (unsealed) graph. Overlay writes never
// invalidate it: a relationship's Type/Start/End are immutable, and any
// overlay adjacency entry shadows the base list entirely (see
// AdjShadowed), so base-index hits are valid exactly when the overlay
// holds no entry for the node.
func (g *Graph) BaseAdjIndex() *AdjIndex {
	if g.base == nil {
		return nil
	}
	return g.base.AdjIndex()
}

// AdjShadowed reports whether the overlay holds an adjacency entry for
// the node in the given direction — including nil tombstones. When it
// does, the overlay entry is the node's complete adjacency list and the
// base index must not be consulted for it.
func (g *Graph) AdjShadowed(n ID, out bool) bool {
	if out {
		_, ok := g.out[n]
		return ok
	}
	_, ok := g.in[n]
	return ok
}
