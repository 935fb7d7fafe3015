package core

import (
	"math/rand"
	"sort"

	"gqs/internal/graph"
	"gqs/internal/value"
)

// GTEntry is one selected property of the expected result set: the
// property key ⟨e, p⟩, its value in the generated graph (the ground
// truth), and the output alias the synthesized query binds it to.
type GTEntry struct {
	Key   graph.PropertyKey
	Value value.Value
	Alias string
}

// GroundTruth is the expected result set of §3.1 step ②.
type GroundTruth struct {
	Entries []GTEntry
}

// elemRef identifies a graph element.
type elemRef struct {
	id    graph.ID
	isRel bool
}

// Plan is the full operation plan for one query: the ground truth, the
// operations with their constraint DAG, and the variable naming.
type Plan struct {
	GT      *GroundTruth
	Ops     []*Operation
	ElemVar map[elemRef]string // element -> pattern variable
	// listExprs records, for each L+ alias, how many list items to
	// synthesize (the expressions themselves are built at synthesis time
	// from in-scope variables).
	ListSizes map[string]int
	// aliasSeq continues the aN counter for synthesis-time aliases;
	// NodeSeq and RelSeq continue the nN/rN counters for helper pattern
	// variables introduced during encoding.
	aliasSeq int
	NodeSeq  int
	RelSeq   int
}

// nextAlias returns a fresh aN alias name.
func (p *Plan) nextAlias() string {
	a := seqName('a', p.aliasSeq)
	p.aliasSeq++
	return a
}

// PlanConfig bounds the plan size.
type PlanConfig struct {
	MaxResultSet  int // maximum ground-truth entries (paper: 6)
	MaxExtraElems int // supplementary elements
	MaxAliases    int // supplementary aliases
	MaxLists      int // supplementary list expansions
}

// DefaultPlanConfig mirrors the paper's setup (§5.1).
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{MaxResultSet: 6, MaxExtraElems: 7, MaxAliases: 2, MaxLists: 2}
}

// gtEnumLimit bounds the full property enumeration below: above it
// (bulk-generated graphs) SelectGroundTruth switches to element
// sampling instead of collecting and sorting every property key of the
// graph, which would be O(graph) per synthesized query. Campaign-sized
// graphs stay far under the limit, so the default path's draw schedule
// — and the seed campaign's bug-report digest — is byte-identical.
const gtEnumLimit = 4096

// SelectGroundTruth randomly selects properties from graph elements,
// forming the expected result set (§3.1 step ②).
func SelectGroundTruth(r *rand.Rand, g *graph.Graph, maxEntries int) *GroundTruth {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if g.NumNodes()+g.NumRels() > gtEnumLimit {
		return selectGroundTruthSampled(r, g, maxEntries)
	}
	var keys []graph.PropertyKey
	for _, id := range g.NodeIDs() {
		props, _ := g.Props(id, false)
		for name := range props {
			keys = append(keys, graph.PropertyKey{Element: id, Name: name})
		}
	}
	for _, id := range g.RelIDs() {
		props, _ := g.Props(id, true)
		for name := range props {
			keys = append(keys, graph.PropertyKey{Element: id, IsRel: true, Name: name})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Element != keys[j].Element {
			return keys[i].Element < keys[j].Element
		}
		return keys[i].Name < keys[j].Name
	})
	n := 1 + r.Intn(maxEntries)
	if n > len(keys) {
		n = len(keys)
	}
	gt := &GroundTruth{}
	perm := r.Perm(len(keys))
	for i := 0; i < n; i++ {
		k := keys[perm[i]]
		v, _ := g.Lookup(k)
		gt.Entries = append(gt.Entries, GTEntry{Key: k, Value: v})
	}
	return gt
}

// selectGroundTruthSampled is the large-graph path: draw elements
// uniformly and one property per drawn element, rejecting duplicate
// keys, in O(maxEntries) instead of O(graph). Deterministic for a
// given rand source like the enumerating path, so checkpoint replay
// reproduces the same draws.
func selectGroundTruthSampled(r *rand.Rand, g *graph.Graph, maxEntries int) *GroundTruth {
	nodeIDs, relIDs := g.NodeIDs(), g.RelIDs()
	n := 1 + r.Intn(maxEntries)
	gt := &GroundTruth{}
	seen := make(map[graph.PropertyKey]bool, n)
	var names []string
	for len(gt.Entries) < n {
		var k graph.PropertyKey
		if i := r.Intn(len(nodeIDs) + len(relIDs)); i < len(nodeIDs) {
			k = graph.PropertyKey{Element: nodeIDs[i]}
		} else {
			k = graph.PropertyKey{Element: relIDs[i-len(nodeIDs)], IsRel: true}
		}
		props, _ := g.Props(k.Element, k.IsRel)
		names = names[:0]
		for name := range props {
			names = append(names, name)
		}
		if len(names) == 0 {
			continue // prop-less element (bulk rels); redraw
		}
		sort.Strings(names) // map order is random; the draw must not be
		k.Name = names[r.Intn(len(names))]
		if seen[k] {
			continue // duplicate ⟨e,p⟩: with >gtEnumLimit elements and
			// n ≤ maxEntries this retry terminates almost immediately
		}
		seen[k] = true
		v, _ := g.Lookup(k)
		gt.Entries = append(gt.Entries, GTEntry{Key: k, Value: v})
	}
	return gt
}

// BuildPlan turns a ground truth into the operation DAG of §3.2–3.3:
// essential operations for each expected property (E+ ≺ (E,p)+ ⪯ E-) and
// random supplementary operations, each with its paired removal.
func BuildPlan(r *rand.Rand, g *graph.Graph, gt *GroundTruth, cfg PlanConfig) *Plan {
	p := &Plan{GT: gt, ElemVar: map[elemRef]string{}, ListSizes: map[string]int{}}
	nodeSeq, relSeq := 0, 0
	varFor := func(ref elemRef) string {
		if v, ok := p.ElemVar[ref]; ok {
			return v
		}
		var v string
		if ref.isRel {
			v = seqName('r', relSeq)
			relSeq++
		} else {
			v = seqName('n', nodeSeq)
			nodeSeq++
		}
		p.ElemVar[ref] = v
		return v
	}

	// Essential operations (category i).
	adds := map[elemRef]*Operation{}
	removes := map[elemRef]*Operation{}
	addElem := func(ref elemRef) (*Operation, *Operation) {
		if op, ok := adds[ref]; ok {
			return op, removes[ref]
		}
		v := varFor(ref)
		add := &Operation{Kind: OpAddElem, Var: v, Element: ref.id, IsRel: ref.isRel}
		rem := &Operation{Kind: OpRemoveElem, Var: v, Element: ref.id, IsRel: ref.isRel}
		adds[ref], removes[ref] = add, rem
		p.Ops = append(p.Ops, add, rem)
		return add, rem
	}
	for i := range gt.Entries {
		e := &gt.Entries[i]
		ref := elemRef{id: e.Key.Element, isRel: e.Key.IsRel}
		add, rem := addElem(ref)
		add.Essential, rem.Essential = true, true
		e.Alias = p.nextAlias()
		access := &Operation{
			Kind: OpAccessProp, Var: e.Alias,
			Element: e.Key.Element, IsRel: e.Key.IsRel, Prop: e.Key.Name,
			Essential: true,
		}
		p.Ops = append(p.Ops, access)
		add.Before(access)
		access.WeakBefore(rem)
	}

	// Supplementary operations (category ii).
	nodeIDs := g.NodeIDs()
	relIDs := g.RelIDs()
	randomRef := func() (elemRef, bool) {
		pickRel := len(relIDs) > 0 && r.Intn(3) == 0
		if pickRel {
			return elemRef{id: relIDs[r.Intn(len(relIDs))], isRel: true}, true
		}
		if len(nodeIDs) == 0 {
			return elemRef{}, false
		}
		return elemRef{id: nodeIDs[r.Intn(len(nodeIDs))]}, true
	}

	// Extra elements.
	for i := 0; i < r.Intn(cfg.MaxExtraElems+1); i++ {
		ref, ok := randomRef()
		if !ok {
			break
		}
		if _, dup := adds[ref]; dup {
			continue
		}
		add, rem := addElem(ref)
		add.Before(rem)
	}

	// Supplementary aliases. Most are anchored on an element that must be
	// in scope when the alias is created (N+ ≺ a+ ⪯ N-, a+ ≺ a-); some
	// are pure expressions with no anchor.
	for i := 0; i < r.Intn(cfg.MaxAliases+1); i++ {
		alias := p.nextAlias()
		aAdd := &Operation{Kind: OpAddAlias, Var: alias, Element: -1}
		aRem := &Operation{Kind: OpRemoveAlias, Var: alias}
		if r.Intn(100) < 70 {
			ref, ok := randomRef()
			if ok {
				add, rem := addElem(ref)
				aAdd.Element, aAdd.IsRel = ref.id, ref.isRel
				add.Before(aAdd)
				aAdd.WeakBefore(rem)
			}
		}
		p.Ops = append(p.Ops, aAdd, aRem)
		aAdd.Before(aRem)
	}

	// Supplementary list expansions (L+ ≺ L-). Anchored lists reference
	// their element; unanchored ones are constant lists, which lets the
	// scheduler place the UNWIND before the first MATCH — the Figure 17
	// query shape.
	for i := 0; i < r.Intn(cfg.MaxLists+1); i++ {
		alias := p.nextAlias()
		lAdd := &Operation{Kind: OpExpandList, Var: alias, Element: -1}
		lRem := &Operation{Kind: OpTruncList, Var: alias}
		if r.Intn(100) < 40 {
			ref, ok := randomRef()
			if ok {
				add, rem := addElem(ref)
				lAdd.Element, lAdd.IsRel = ref.id, ref.isRel
				add.Before(lAdd)
				lAdd.WeakBefore(rem)
			}
		}
		p.Ops = append(p.Ops, lAdd, lRem)
		p.ListSizes[alias] = 1 + r.Intn(3)
		lAdd.Before(lRem)
	}

	p.NodeSeq, p.RelSeq = nodeSeq, relSeq
	return p
}

// GTElements returns the distinct elements referenced by the ground truth.
func (gt *GroundTruth) GTElements() []graph.PropertyKey {
	seen := map[elemRef]bool{}
	var out []graph.PropertyKey
	for _, e := range gt.Entries {
		ref := elemRef{id: e.Key.Element, isRel: e.Key.IsRel}
		if !seen[ref] {
			seen[ref] = true
			out = append(out, e.Key)
		}
	}
	return out
}

// ExpectedColumns returns the output aliases in entry order.
func (gt *GroundTruth) ExpectedColumns() []string {
	cols := make([]string, len(gt.Entries))
	for i, e := range gt.Entries {
		cols[i] = e.Alias
	}
	return cols
}
