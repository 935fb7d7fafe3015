// Package engine implements an in-memory Cypher query engine over the
// labeled property graph model: storage with label and property indexes, a
// logical planner with a small set of optimization passes (predicate
// pushdown, index-scan selection, traversal-start selection), and a
// clause-pipeline executor covering the eleven data-retrieval clauses and
// subclauses plus the six update clauses (§2.2 of the GQS paper).
//
// The engine is the substrate substituting for the four production GDBs
// the paper tests: the gdb package instantiates it once per simulated
// system with that system's dialect quirks.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"gqs/internal/graph"
	"gqs/internal/value"
)

// idSet is one delta bucket: the node IDs added to (or removed from) an
// index entry since the last Reset.
type idSet = map[graph.ID]struct{}

// Store wraps a graph with the secondary indexes the engine maintains: a
// label index and the label+property indexes declared by the schema,
// which the planner uses for index scans.
//
// The indexes are versioned: `base` is an immutable graph.Index of the
// loaded state — built once per legacy Reset, or shared by every store
// loaded from the same graph.Snapshot — and the add/del maps below are
// this store's private deltas over it. Read-only query batches never
// touch the deltas (they stay nil), so a snapshot Reset is O(overlay)
// and a read-only one is O(1) with zero per-element copying.
type Store struct {
	g      *graph.Graph
	schema *graph.Schema
	// base is never mutated; see the package comment above. labelAdd/
	// labelDel and propAdd/propDel are allocated lazily on first write.
	base     *graph.Index
	labelAdd map[string]idSet
	labelDel map[string]idSet
	propAdd  map[graph.IndexSpec]map[string]idSet
	propDel  map[graph.IndexSpec]map[string]idSet
	// enforceSchema rejects property writes that deviate from the
	// declared property types (Kùzu-style schema-first behaviour).
	enforceSchema bool
	// src/snap identify what the store was last Reset onto (exactly one
	// is non-nil) and dirty marks any write through the store since. A
	// Reset with the same source and a clean store is the
	// restart-without-change pattern and is free; a dirty snapshot store
	// just drops its overlay. Every mutation MUST go through a store
	// method so the flag — and, under copy-on-write, the shared base
	// snapshot itself — stays truthful; that is the store's documented
	// ownership contract for Graph().
	src   *graph.Graph
	snap  *graph.Snapshot
	dirty bool
	// cow accumulates the graph's copy-on-write counters across Reset
	// cycles (ResetToBase clears the per-graph counters) for the bench
	// harness.
	cow graph.COWStats
}

// NewStore returns a store over an empty graph.
func NewStore() *Store {
	s := &Store{}
	s.Reset(graph.New(), nil)
	return s
}

// Reset replaces the store contents with a deep copy of g, rebuilding
// all indexes — the legacy clone path, retained for arbitrary source
// graphs and as the reference semantics the copy-on-write path is
// differentially tested against. A nil schema declares no property
// indexes. When the store already holds an unmodified copy of exactly
// this graph and schema, the clone and rebuild are skipped — the
// contents are byte-identical either way.
func (s *Store) Reset(g *graph.Graph, schema *graph.Schema) {
	if !s.dirty && s.src == g && s.schema == schema && s.src != nil {
		return
	}
	s.collectCOW()
	s.g = g.Clone()
	s.src, s.snap = g, nil
	s.dirty = false
	s.schema = schema
	s.base = graph.BuildIndex(s.g, schema)
	s.clearDeltas()
}

// ResetSnapshot loads the store from a shared immutable snapshot — the
// copy-on-write fast path. Loading the snapshot the store already holds
// drops the overlay and the index deltas (O(overlay), and a clean store
// returns immediately with no work at all); loading a different snapshot
// swaps in an O(1) overlay graph plus the snapshot's cached index, which
// is built once and shared by every store on the same snapshot+schema.
func (s *Store) ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) {
	if s.snap == snap && s.schema == schema {
		if !s.dirty {
			return
		}
		s.collectCOW()
		s.g.ResetToBase()
		s.dirty = false
		s.clearDeltas()
		return
	}
	s.collectCOW()
	s.g = graph.FromSnapshot(snap)
	s.snap, s.src = snap, nil
	s.dirty = false
	s.schema = schema
	s.base = snap.Index(schema)
	s.clearDeltas()
}

// collectCOW books the current graph's copy-on-write counters before the
// graph is replaced or reset.
func (s *Store) collectCOW() {
	if s.g != nil {
		s.cow = s.cow.Add(s.g.COW())
	}
}

// COWCopies returns the accumulated copy-on-write promotion counts
// across every state the store has held, including the current one.
func (s *Store) COWCopies() graph.COWStats {
	if s.g != nil {
		return s.cow.Add(s.g.COW())
	}
	return s.cow
}

func (s *Store) clearDeltas() {
	s.labelAdd, s.labelDel, s.propAdd, s.propDel = nil, nil, nil, nil
}

// Graph exposes the underlying graph (owned by the store; callers must
// mutate it only through the store).
func (s *Store) Graph() *graph.Graph { return s.g }

// Schema returns the schema the store was loaded with, or nil.
func (s *Store) Schema() *graph.Schema { return s.schema }

// deltaAdd inserts id into the (lazily allocated) bucket for key.
func deltaAdd(m *map[string]idSet, key string, id graph.ID) {
	if *m == nil {
		*m = make(map[string]idSet)
	}
	set := (*m)[key]
	if set == nil {
		set = make(idSet)
		(*m)[key] = set
	}
	set[id] = struct{}{}
}

// deltaDel removes id from the bucket for key, if present.
func deltaDel(m map[string]idSet, key string, id graph.ID) {
	if set := m[key]; set != nil {
		delete(set, id)
	}
}

func propDeltaAdd(m *map[graph.IndexSpec]map[string]idSet, spec graph.IndexSpec, key string, id graph.ID) {
	if *m == nil {
		*m = make(map[graph.IndexSpec]map[string]idSet)
	}
	byKey := (*m)[spec]
	if byKey == nil {
		byKey = make(map[string]idSet)
		(*m)[spec] = byKey
	}
	set := byKey[key]
	if set == nil {
		set = make(idSet)
		byKey[key] = set
	}
	set[id] = struct{}{}
}

func propDeltaDel(m map[graph.IndexSpec]map[string]idSet, spec graph.IndexSpec, key string, id graph.ID) {
	if byKey := m[spec]; byKey != nil {
		if set := byKey[key]; set != nil {
			delete(set, id)
		}
	}
}

// indexNode records the node's labels and indexed properties in the
// delta sets: membership already present in the immutable base cancels a
// pending deletion instead of duplicating the entry.
func (s *Store) indexNode(n *graph.Node) {
	for _, l := range n.Labels {
		if s.base.HasLabelID(l, n.ID) {
			deltaDel(s.labelDel, l, n.ID)
		} else {
			deltaAdd(&s.labelAdd, l, n.ID)
		}
	}
	for _, spec := range s.base.Specs() {
		if !n.HasLabel(spec.Label) {
			continue
		}
		v, ok := s.g.Prop(n.ID, false, spec.Property)
		if !ok {
			continue
		}
		k := v.Key()
		if s.base.HasPropID(spec, k, n.ID) {
			propDeltaDel(s.propDel, spec, k, n.ID)
		} else {
			propDeltaAdd(&s.propAdd, spec, k, n.ID)
		}
	}
}

// unindexNode is the inverse of indexNode: base membership becomes a
// pending deletion, overlay-only membership is dropped.
func (s *Store) unindexNode(n *graph.Node) {
	for _, l := range n.Labels {
		if s.base.HasLabelID(l, n.ID) {
			deltaAdd(&s.labelDel, l, n.ID)
		} else {
			deltaDel(s.labelAdd, l, n.ID)
		}
	}
	for _, spec := range s.base.Specs() {
		if !n.HasLabel(spec.Label) {
			continue
		}
		v, ok := s.g.Prop(n.ID, false, spec.Property)
		if !ok {
			continue
		}
		k := v.Key()
		if s.base.HasPropID(spec, k, n.ID) {
			propDeltaAdd(&s.propDel, spec, k, n.ID)
		} else {
			propDeltaDel(s.propAdd, spec, k, n.ID)
		}
	}
}

// mergeDeltas folds add/del sets into a base index slice, re-sorting
// because added IDs (from AddLabels / SET on pre-existing nodes) can
// fall anywhere in the ID range.
func mergeDeltas(base []graph.ID, add, del idSet) []graph.ID {
	ids := make([]graph.ID, 0, len(base)+len(add))
	for _, id := range base {
		if _, dead := del[id]; !dead {
			ids = append(ids, id)
		}
	}
	for id := range add {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// NodesByLabel returns the IDs of nodes carrying the label, ascending.
//
// Aliasing contract: when the store has no pending label deltas the
// returned slice IS the shared immutable base-index slice — callers must
// treat it as read-only (the planner and matcher only iterate it; scans
// that reverse it copy first, see matcher.maybeReverse). The slice stays
// valid and unchanged even if the store is written afterwards, because
// writes land in the delta sets, never in base slices.
func (s *Store) NodesByLabel(label string) []graph.ID {
	base := s.base.Label(label)
	add, del := s.labelAdd[label], s.labelDel[label]
	if len(add) == 0 && len(del) == 0 {
		return base
	}
	return mergeDeltas(base, add, del)
}

// LabelCount returns the number of nodes carrying the label. With no
// pending deltas (every read-only execution) this is an O(1) read of the
// immutable base index, with no merged-slice allocation.
func (s *Store) LabelCount(label string) int {
	add, del := s.labelAdd[label], s.labelDel[label]
	if len(add) == 0 && len(del) == 0 {
		return s.base.LabelCount(label)
	}
	return len(mergeDeltas(s.base.Label(label), add, del))
}

// NodesByIndex returns node IDs from the label+property index for an
// exact value, ascending, and whether such an index exists. The same
// aliasing contract as NodesByLabel applies: the slice may be shared
// with the immutable base index and must not be modified.
func (s *Store) NodesByIndex(label, prop string, v value.Value) ([]graph.ID, bool) {
	spec := graph.IndexSpec{Label: label, Property: prop}
	if !s.base.PropDeclared(spec) {
		return nil, false
	}
	k := v.Key()
	base := s.base.Prop(spec, k)
	var add, del idSet
	if byKey := s.propAdd[spec]; byKey != nil {
		add = byKey[k]
	}
	if byKey := s.propDel[spec]; byKey != nil {
		del = byKey[k]
	}
	if len(add) == 0 && len(del) == 0 {
		return base, true
	}
	return mergeDeltas(base, add, del), true
}

// HasIndex reports whether a label+property index exists.
func (s *Store) HasIndex(label, prop string) bool {
	return s.base.PropDeclared(graph.IndexSpec{Label: label, Property: prop})
}

// NodeHasLabel reports whether node id currently carries the label,
// resolving this store's pending deltas over the immutable base index.
// Index membership already implies existence — deleted nodes are
// unindexed (see unindexNode) — so a true result never needs a node
// fetch. This is the mid-chain analogue of NodesByLabel: checkNode uses
// it to test a label on an already-bound candidate without touching the
// node table.
func (s *Store) NodeHasLabel(label string, id graph.ID) bool {
	if del := s.labelDel[label]; del != nil {
		if _, dead := del[id]; dead {
			return false
		}
	}
	if add := s.labelAdd[label]; add != nil {
		if _, ok := add[id]; ok {
			return true
		}
	}
	return s.base.HasLabelID(label, id)
}

// CreateNode creates a node with the given labels and properties.
func (s *Store) CreateNode(labels []string, props map[string]value.Value) *graph.Node {
	s.dirty = true
	n := s.g.NewNode(labels...)
	for k, v := range props {
		if !v.IsNull() {
			n.Props[k] = v
		}
	}
	s.indexNode(n)
	return n
}

// CreateRel creates a relationship.
func (s *Store) CreateRel(start, end graph.ID, typ string, props map[string]value.Value) (*graph.Rel, error) {
	s.dirty = true
	r, err := s.g.NewRel(start, end, typ)
	if err != nil {
		return nil, err
	}
	for k, v := range props {
		if !v.IsNull() {
			r.Props[k] = v
		}
	}
	return r, nil
}

// CheckPropType validates a property write against the declared schema
// when schema enforcement is on. The synthetic `id` property is exempt.
func (s *Store) CheckPropType(name string, v value.Value) error {
	if !s.enforceSchema || s.schema == nil || name == "id" || v.IsNull() {
		return nil
	}
	want, declared := s.schema.Props[name]
	if !declared {
		return fmt.Errorf("schema: property %s is not declared", name)
	}
	var got graph.PropType
	switch v.Kind() {
	case value.KindInt:
		got = graph.PropInt
	case value.KindFloat:
		got = graph.PropFloat
	case value.KindString:
		got = graph.PropString
	case value.KindBool:
		got = graph.PropBool
	case value.KindList:
		got = graph.PropStrList
	default:
		return fmt.Errorf("schema: cannot store a %s", v.Kind())
	}
	if got != want {
		return fmt.Errorf("schema: property %s is declared %s, got %s", name, want, got)
	}
	return nil
}

// SetProp sets (or, for a null value, removes) a property on an entity,
// maintaining the property indexes. The entity is promoted into the
// overlay (MutableNode/MutableRel) before the write, so a shared base
// snapshot never observes it.
func (s *Store) SetProp(id graph.ID, isRel bool, name string, v value.Value) error {
	if err := s.CheckPropType(name, v); err != nil {
		return err
	}
	s.dirty = true
	if isRel {
		r := s.g.MutableRel(id)
		if r == nil {
			return fmt.Errorf("relationship %d does not exist", id)
		}
		if v.IsNull() {
			delete(r.Props, name)
		} else {
			r.Props[name] = v
		}
		return nil
	}
	n := s.g.Node(id)
	if n == nil {
		return fmt.Errorf("node %d does not exist", id)
	}
	s.unindexNode(n)
	n = s.g.MutableNode(id)
	if v.IsNull() {
		delete(n.Props, name)
	} else {
		n.Props[name] = v
	}
	s.indexNode(n)
	return nil
}

// AddLabels adds labels to a node.
func (s *Store) AddLabels(id graph.ID, labels []string) error {
	n := s.g.Node(id)
	if n == nil {
		return fmt.Errorf("node %d does not exist", id)
	}
	s.dirty = true
	s.unindexNode(n)
	n = s.g.MutableNode(id)
	for _, l := range labels {
		if !n.HasLabel(l) {
			n.Labels = append(n.Labels, l)
		}
	}
	s.indexNode(n)
	return nil
}

// RemoveLabels removes labels from a node.
func (s *Store) RemoveLabels(id graph.ID, labels []string) error {
	n := s.g.Node(id)
	if n == nil {
		return fmt.Errorf("node %d does not exist", id)
	}
	s.dirty = true
	s.unindexNode(n)
	n = s.g.MutableNode(id)
	for _, l := range labels {
		for i, x := range n.Labels {
			if x == l {
				n.Labels = append(n.Labels[:i], n.Labels[i+1:]...)
				break
			}
		}
	}
	s.indexNode(n)
	return nil
}

// DeleteNode deletes a node (detaching first if requested).
func (s *Store) DeleteNode(id graph.ID, detach bool) error {
	n := s.g.Node(id)
	if n == nil {
		return nil // deleting twice is a no-op, as in Cypher
	}
	s.dirty = true
	s.unindexNode(n)
	if err := s.g.DeleteNode(id, detach); err != nil {
		s.indexNode(n)
		return err
	}
	return nil
}

// DeleteRel deletes a relationship.
func (s *Store) DeleteRel(id graph.ID) {
	s.dirty = true
	s.g.DeleteRel(id)
}

// Labels returns all labels present in the store, sorted. With no
// pending deltas this is the shared base-index slice (read-only, like
// NodesByLabel).
func (s *Store) Labels() []string {
	if len(s.labelAdd) == 0 && len(s.labelDel) == 0 {
		return s.base.Labels()
	}
	counts := make(map[string]int)
	for _, l := range s.base.Labels() {
		counts[l] = len(s.base.Label(l))
	}
	for l, add := range s.labelAdd {
		counts[l] += len(add)
	}
	for l, del := range s.labelDel {
		counts[l] -= len(del)
	}
	var out []string
	for l, c := range counts {
		if c > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// RelTypes returns all relationship types present, sorted.
func (s *Store) RelTypes() []string {
	set := map[string]struct{}{}
	for _, id := range s.g.RelIDs() {
		set[s.g.Rel(id).Type] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// PropertyKeys returns all property names present, sorted.
func (s *Store) PropertyKeys() []string { return s.g.PropertyKeys() }
