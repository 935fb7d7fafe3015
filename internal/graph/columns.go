package graph

import (
	"maps"
	"math/bits"
	"slices"

	"gqs/internal/value"
)

// Property columns (DESIGN.md §17). A sealed snapshot may hold some of
// an element kind's int64 properties in columns instead of per-element
// maps: bulk graphs keep every node's `id` and `k0` there, so a
// 10k-node snapshot carries no node property map at all. A column runs
// parallel to its kind's table — entry i belongs to the element at table
// index i — and a presence bit per entry says whether that element
// carries the property. An element's properties are the union of its
// column entries and its own Props map; no key is in both.
//
// Columns live only in a snapshot's base tables. An overlay element (a
// MutableNode copy or a newly created element) holds every property in
// its map, so every read resolves overlay entry first, then the base
// column, then the base element's map — which is what Graph.Prop does.

// propColumn is one int64 property of one element kind.
type propColumn struct {
	key  string
	vals []int64
	// present has bit i set when the element at table index i carries
	// the property; a set bit implies the element exists.
	present []uint64
}

// newPropColumn returns a column of n entries, all absent.
func newPropColumn(key string, n int) propColumn {
	return propColumn{key: key, vals: make([]int64, n), present: make([]uint64, (n+63)/64)}
}

// set stores v for table index i and marks it present.
func (c *propColumn) set(i int, v int64) {
	c.vals[i] = v
	c.present[i>>6] |= 1 << (uint(i) & 63)
}

// get returns the entry at table index i and whether it is present; any
// i outside the column reads as absent.
func (c *propColumn) get(i ID) (int64, bool) {
	if w := i >> 6; i >= 0 && w < ID(len(c.present)) && c.present[w]&(1<<(uint64(i)&63)) != 0 {
		return c.vals[i], true
	}
	return 0, false
}

// colGet returns the entry of key's column at table index i, if key has
// a column and the entry is present. A present entry implies the element
// exists, so a hit needs neither the element table nor the element.
func colGet(cols []propColumn, i ID, key string) (value.Value, bool) {
	for c := range cols {
		if cols[c].key == key {
			if v, ok := cols[c].get(i); ok {
				return value.Int(v), true
			}
			return value.Null, false
		}
	}
	return value.Null, false
}

// colProps materializes every property of the element at table index i
// whose own map is m. Without a present column entry it returns m itself
// (read-only), or a clone of it when own is set; otherwise a new map.
func colProps(cols []propColumn, i ID, m map[string]value.Value, own bool) map[string]value.Value {
	n := 0
	for c := range cols {
		if _, ok := cols[c].get(i); ok {
			n++
		}
	}
	if n == 0 {
		if own {
			return maps.Clone(m)
		}
		return m
	}
	out := make(map[string]value.Value, len(m)+n)
	maps.Copy(out, m)
	for c := range cols {
		if v, ok := cols[c].get(i); ok {
			out[cols[c].key] = value.Int(v)
		}
	}
	return out
}

// Prop returns property key of the node (isRel false) or relationship
// id and whether that element exists and carries it. It is the graph's
// one property read: the overlay entry first, then the base snapshot's
// column for key, then the base element's own map. Any ID — the other
// kind's, a deleted element's, or one outside every table — reads as
// absent. The base read is spelled out per kind rather than shared
// through a helper: Algorithm 2 reads every competitor's id through
// Prop, and the extra call and 64-byte return cost more than the read.
func (g *Graph) Prop(id ID, isRel bool, key string) (value.Value, bool) {
	s := g.base
	if isRel {
		if s == nil || len(g.rels) > 0 {
			if r, ok := g.rels[id]; ok || s == nil {
				if r == nil {
					return value.Null, false
				}
				v, ok := r.Props[key]
				return v, ok
			}
		}
		if i := id - s.relBase; i >= 0 && i < ID(len(s.rels)) {
			if v, ok := colGet(s.relCols, i, key); ok {
				return v, true
			}
			if r := s.rels[i]; r != nil {
				v, ok := r.Props[key]
				return v, ok
			}
		}
		return value.Null, false
	}
	if s == nil || len(g.nodes) > 0 {
		if n, ok := g.nodes[id]; ok || s == nil {
			if n == nil {
				return value.Null, false
			}
			v, ok := n.Props[key]
			return v, ok
		}
	}
	if i := id - s.nodeBase; i >= 0 && i < ID(len(s.nodes)) {
		if v, ok := colGet(s.nodeCols, i, key); ok {
			return v, true
		}
		if n := s.nodes[i]; n != nil {
			v, ok := n.Props[key]
			return v, ok
		}
	}
	return value.Null, false
}

// AppendNodeProps appends to dst property key of every node in ids
// except skip that carries it, in ids order: exactly what calling Prop
// on each would give. When no overlay node entry exists and the base
// holds key in a column, it reads the column directly, resolving the
// column once instead of once per node — the competitor gather of
// Algorithm 2's node pins, which reads a whole label class per pin.
func (g *Graph) AppendNodeProps(dst []value.Value, ids []ID, skip ID, key string) []value.Value {
	if s := g.base; s != nil && len(g.nodes) == 0 {
		for c := range s.nodeCols {
			col := &s.nodeCols[c]
			if col.key != key {
				continue
			}
			for _, id := range ids {
				if v, ok := col.get(id - s.nodeBase); ok && id != skip {
					dst = append(dst, value.Int(v))
				}
			}
			return dst
		}
	}
	for _, id := range ids {
		if id == skip {
			continue
		}
		if v, ok := g.Prop(id, false, key); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

// Props returns every property of the element as one map, and whether
// the element exists. The map is the element's own when no column holds
// any of its properties, so it is read-only like Node.Props; a
// column-backed element gets a new map per call.
func (g *Graph) Props(id ID, isRel bool) (map[string]value.Value, bool) {
	return g.props(id, isRel, false)
}

// props is Props; own asks for a map the caller may keep and write (nil
// for an element without properties). Only a base element (no overlay
// entry) can have column entries.
func (g *Graph) props(id ID, isRel, own bool) (map[string]value.Value, bool) {
	var m map[string]value.Value
	var cols []propColumn
	var i ID
	if isRel {
		r := g.Rel(id)
		if r == nil {
			return nil, false
		}
		m = r.Props
		if _, ov := g.rels[id]; !ov && g.base != nil {
			cols, i = g.base.relCols, id-g.base.relBase
		}
	} else {
		n := g.Node(id)
		if n == nil {
			return nil, false
		}
		m = n.Props
		if _, ov := g.nodes[id]; !ov && g.base != nil {
			cols, i = g.base.nodeCols, id-g.base.nodeBase
		}
	}
	return colProps(cols, i, m, own), true
}

// PropertyKeys returns the names of the properties at least one element
// of the graph carries, sorted. Column keys count when some base element
// not shadowed by the overlay has the entry present, found by scanning
// the presence bits, so no element's map is materialized.
func (g *Graph) PropertyKeys() []string {
	set := map[string]struct{}{}
	for _, id := range g.NodeIDs() {
		for k := range g.Node(id).Props {
			set[k] = struct{}{}
		}
	}
	for _, id := range g.RelIDs() {
		for k := range g.Rel(id).Props {
			set[k] = struct{}{}
		}
	}
	if s := g.base; s != nil {
		liveColumnKeys(set, s.nodeCols, s.nodeBase, g.nodes)
		liveColumnKeys(set, s.relCols, s.relBase, g.rels)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// liveColumnKeys adds to set the key of each column with a present entry
// whose element the overlay does not shadow (an overlay copy's map
// already holds its column values; a tombstone has none).
func liveColumnKeys[E any](set map[string]struct{}, cols []propColumn, base ID, overlay map[ID]*E) {
	for c := range cols {
		col := &cols[c]
		if _, ok := set[col.key]; ok {
			continue
		}
	scan:
		for w, word := range col.present {
			for ; word != 0; word &= word - 1 {
				id := base + ID(w*64+bits.TrailingZeros64(word))
				if _, shadowed := overlay[id]; !shadowed {
					set[col.key] = struct{}{}
					break scan
				}
			}
		}
	}
}
