package graph

import (
	"slices"
	"sync"
)

// Index is the immutable label/property index of one graph state: label →
// ascending node IDs, and per schema-declared IndexSpec, property value
// key → ascending node IDs. Its contents never change once built, so one
// instance can back any number of stores concurrently; the engine layers
// per-store add/remove delta sets on top (engine.Store) instead of
// rebuilding it per Reset.
//
// The label lists are built with the index. The property buckets of a
// snapshot's index are filled on the first probe (Prop or HasPropID),
// once, under propOnce: a campaign whose queries never probe a property
// index never pays for it. BuildIndex, the unsealed path, fills them at
// once.
type Index struct {
	label  map[string][]ID
	labels []string    // labels with at least one node, sorted
	specs  []IndexSpec // declared specs in schema order, deduplicated

	propOnce sync.Once
	fill     func() // builds prop; run through propOnce
	prop     map[IndexSpec]map[string][]ID
}

// BuildIndex indexes every node of g under the schema's declared
// property indexes, property buckets included. A nil schema declares
// none. The index captures g's current state; later writes to g do not
// reach it.
func BuildIndex(g *Graph, schema *Schema) *Index {
	ix := newIndex(g, schema)
	ix.propOnce.Do(ix.fill)
	return ix
}

// newIndex builds the label lists of g's nodes and leaves the property
// buckets to the first probe, which reads them from g: g must not change
// before then.
func newIndex(g *Graph, schema *Schema) *Index {
	ix := &Index{label: make(map[string][]ID)}
	if schema != nil {
		for _, spec := range schema.Indexes {
			if !slices.Contains(ix.specs, spec) {
				ix.specs = append(ix.specs, spec)
			}
		}
	}
	for _, id := range g.NodeIDs() {
		for _, l := range g.Node(id).Labels {
			ix.label[l] = append(ix.label[l], id)
		}
	}
	for l := range ix.label {
		ix.labels = append(ix.labels, l)
	}
	slices.Sort(ix.labels)
	ix.fill = func() {
		ix.prop = make(map[IndexSpec]map[string][]ID, len(ix.specs))
		for _, spec := range ix.specs {
			byKey := make(map[string][]ID)
			for _, id := range ix.label[spec.Label] {
				v, ok := g.Prop(id, false, spec.Property)
				if !ok {
					continue
				}
				k := v.Key()
				// A node listing the label twice appears twice in the
				// label list but once per bucket.
				if b := byKey[k]; len(b) == 0 || b[len(b)-1] != id {
					byKey[k] = append(b, id)
				}
			}
			ix.prop[spec] = byKey
		}
	}
	return ix
}

// Label returns the ascending node IDs carrying the label (shared,
// read-only), or nil.
func (ix *Index) Label(l string) []ID { return ix.label[l] }

// LabelCount returns the number of nodes carrying the label — the
// cardinality statistic behind the planner's scan-start cost model.
func (ix *Index) LabelCount(l string) int { return len(ix.label[l]) }

// Labels returns the labels with at least one node, sorted (shared,
// read-only).
func (ix *Index) Labels() []string { return ix.labels }

// HasLabelID reports whether the node carries the label in this index.
func (ix *Index) HasLabelID(l string, id ID) bool {
	_, ok := slices.BinarySearch(ix.label[l], id)
	return ok
}

// PropDeclared reports whether the spec was declared by the schema the
// index was built under. It does not fill the property buckets.
func (ix *Index) PropDeclared(spec IndexSpec) bool {
	return slices.Contains(ix.specs, spec)
}

// props returns the property buckets, filling them on the first call.
func (ix *Index) props() map[IndexSpec]map[string][]ID {
	ix.propOnce.Do(ix.fill)
	return ix.prop
}

// Prop returns the ascending node IDs whose spec property has the given
// value key (shared, read-only), or nil.
func (ix *Index) Prop(spec IndexSpec, key string) []ID { return ix.props()[spec][key] }

// HasPropID reports whether the node is indexed under (spec, key).
func (ix *Index) HasPropID(spec IndexSpec, key string, id ID) bool {
	_, ok := slices.BinarySearch(ix.props()[spec][key], id)
	return ok
}

// Specs returns the declared index specs in schema order (shared,
// read-only).
func (ix *Index) Specs() []IndexSpec { return ix.specs }
