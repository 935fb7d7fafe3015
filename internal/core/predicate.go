package core

import (
	"sort"

	"gqs/internal/cypher/ast"
	"gqs/internal/graph"
)

// pin records one uniquifying decision (§3.4, Figure 6): the pattern
// variable must bind exactly the intended element; competitors are the
// graph elements that would otherwise also match at the decision point.
// Pins are rendered as WHERE predicates — initially `var.id = <id>`, then
// complexified by Algorithm 2 while preserving distinguishability.
//
// A node pin's competitors are implicit: every other node carrying all of
// labels, the pattern node's label class (every node when it has none).
// They are read from the synthesizer's id column when the pin is
// rendered, so a pin costs no O(graph) list. A relationship pin lists its
// competitors explicitly.
type pin struct {
	varName     string
	elem        elemRef
	labels      []string
	competitors []elemRef
}

// uniquify walks the encoded chains from bound anchors outward, adding
// pins wherever several graph candidates could match a pattern segment,
// then verifies global uniqueness with a full backtracking count and
// falls back to pinning every element if the stepwise pass was not
// sufficient. The returned pins guarantee that the clause's patterns
// match exactly the intended binding.
func (s *Synthesizer) uniquify(chains []*encChain, inScope map[string]graph.ID, binding map[string]graph.ID) []pin {
	var pins []pin
	fixed := map[string]graph.ID{}
	for v, id := range inScope {
		fixed[v] = id
	}
	addPin := func(p pin) {
		if _, done := fixed[p.varName]; done {
			return
		}
		pins = append(pins, p)
		fixed[p.varName] = p.elem.id
	}

	for _, ec := range chains {
		// Anchor: the first position whose variable is already fixed.
		anchor := -1
		for i, np := range ec.part.Nodes {
			if _, ok := fixed[np.Variable]; ok {
				anchor = i
				break
			}
		}
		if anchor < 0 {
			// No anchored element: pin the first node (§3.4: "one
			// pattern element is randomly picked, and a predicate is
			// constructed to ensure that it only matches the desired
			// graph element").
			anchor = 0
			np := ec.part.Nodes[0]
			addPin(pin{varName: np.Variable, elem: elemRef{id: ec.nodeIDs[0]}, labels: np.Labels})
		}
		fixed[ec.part.Nodes[anchor].Variable] = ec.nodeIDs[anchor]
		// March right, then left.
		for i := anchor; i < len(ec.relIDs); i++ {
			s.uniquifySegment(ec, i, true, fixed, addPin)
		}
		for i := anchor - 1; i >= 0; i-- {
			s.uniquifySegment(ec, i, false, fixed, addPin)
		}
	}

	// Global verification: the stepwise pass is a heuristic; if any
	// ambiguity survives, pin everything.
	if s.countMatches(chains, inScope, pins, 2) != 1 {
		pins = pins[:0]
		fixed = map[string]graph.ID{}
		for v, id := range inScope {
			fixed[v] = id
		}
		// A relationship's competitor list costs a scan of all
		// relationships, so it is computed only for variables that are
		// not yet fixed.
		for _, ec := range chains {
			for i, np := range ec.part.Nodes {
				addPin(pin{varName: np.Variable, elem: elemRef{id: ec.nodeIDs[i]}, labels: np.Labels})
			}
			for i, rp := range ec.part.Rels {
				if _, done := fixed[rp.Variable]; !done {
					addPin(pin{varName: rp.Variable, elem: elemRef{id: ec.relIDs[i], isRel: true}, competitors: s.relCompetitors(rp, ec.relIDs[i])})
				}
			}
		}
	}
	return pins
}

// uniquifySegment handles one pattern segment: expanding from the bound
// node at position i (forward) or i+1 (backward) across relationship i.
func (s *Synthesizer) uniquifySegment(ec *encChain, i int, forward bool, fixed map[string]graph.ID, addPin func(pin)) {
	rp := ec.part.Rels[i]
	var fromPos, toPos int
	if forward {
		fromPos, toPos = i, i+1
	} else {
		fromPos, toPos = i+1, i
	}
	from := ec.nodeIDs[fromPos]
	toPattern := ec.part.Nodes[toPos]
	cands := s.segmentCandidates(from, rp, toPattern, forward, fixed)
	if len(cands) > 1 {
		var comps []elemRef
		for _, c := range cands {
			if c != ec.relIDs[i] {
				comps = append(comps, elemRef{id: c, isRel: true})
			}
		}
		addPin(pin{varName: rp.Variable, elem: elemRef{id: ec.relIDs[i], isRel: true}, competitors: comps})
	}
	fixed[rp.Variable] = ec.relIDs[i]
	fixed[toPattern.Variable] = ec.nodeIDs[toPos]
}

// segmentCandidates enumerates the relationships that could match one
// pattern segment given the bindings fixed so far.
func (s *Synthesizer) segmentCandidates(from graph.ID, rp *ast.RelPattern, toPattern *ast.NodePattern, forward bool, fixed map[string]graph.ID) []graph.ID {
	dir := rp.Direction
	if !forward {
		switch dir {
		case ast.DirRight:
			dir = ast.DirLeft
		case ast.DirLeft:
			dir = ast.DirRight
		}
	}
	var cands []graph.ID
	try := func(rid graph.ID, far graph.ID) {
		rel := s.g.Rel(rid)
		if len(rp.Types) > 0 && !containsStr(rp.Types, rel.Type) {
			return
		}
		if want, ok := fixed[rp.Variable]; ok && want != rid {
			return
		}
		farNode := s.g.Node(far)
		for _, l := range toPattern.Labels {
			if !farNode.HasLabel(l) {
				return
			}
		}
		if want, ok := fixed[toPattern.Variable]; ok && want != far {
			return
		}
		cands = append(cands, rid)
	}
	g := s.g
	switch dir {
	case ast.DirRight:
		for _, rid := range g.Out(from) {
			try(rid, g.Rel(rid).End)
		}
	case ast.DirLeft:
		for _, rid := range g.In(from) {
			try(rid, g.Rel(rid).Start)
		}
	default:
		for _, rid := range g.Out(from) {
			try(rid, g.Rel(rid).End)
		}
		for _, rid := range g.In(from) {
			if r := g.Rel(rid); r.Start != r.End {
				try(rid, r.Start)
			}
		}
	}
	return cands
}

func hasLabels(n *graph.Node, labels []string) bool {
	for _, l := range labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	return true
}

// relCompetitors returns the other relationships satisfying the encoded
// type constraints.
func (s *Synthesizer) relCompetitors(rp *ast.RelPattern, intended graph.ID) []elemRef {
	ids := s.g.RelIDs()
	var out []elemRef
	if len(rp.Types) == 0 {
		out = make([]elemRef, 0, len(ids))
	}
	for _, id := range ids {
		if id == intended {
			continue
		}
		if len(rp.Types) > 0 && !containsStr(rp.Types, s.g.Rel(id).Type) {
			continue
		}
		out = append(out, elemRef{id: id, isRel: true})
	}
	return out
}

func containsStr(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// countMatches counts (up to limit) the matches of the encoded chains
// under reference semantics: in-scope variables are fixed, pinned
// variables must bind their pinned element, and relationships are unique
// within the clause. It is the ground truth for the uniqueness invariant
// the oracle depends on.
func (s *Synthesizer) countMatches(chains []*encChain, inScope map[string]graph.ID, pins []pin, limit int) int {
	env := map[string]graph.ID{}
	for v, id := range inScope {
		env[v] = id
	}
	pinned := map[string]graph.ID{}
	for _, p := range pins {
		pinned[p.varName] = p.elem.id
	}
	used := map[graph.ID]bool{}
	count := 0

	var matchChain func(ci int) bool // each returns true to stop early
	var matchNodeAt func(ci, pos int, id graph.ID) bool
	var matchRel func(ci, pos int) bool

	bind := func(v string, id graph.ID, cont func() bool) bool {
		if want, ok := pinned[v]; ok && want != id {
			return false
		}
		if old, ok := env[v]; ok {
			if old != id {
				return false
			}
			return cont()
		}
		env[v] = id
		stop := cont()
		delete(env, v)
		return stop
	}

	matchNodeAt = func(ci, pos int, id graph.ID) bool {
		np := chains[ci].part.Nodes[pos]
		n := s.g.Node(id)
		if n == nil {
			return false
		}
		for _, l := range np.Labels {
			if !n.HasLabel(l) {
				return false
			}
		}
		return bind(np.Variable, id, func() bool {
			if pos == len(chains[ci].part.Nodes)-1 {
				return matchChain(ci + 1)
			}
			return matchRel(ci, pos)
		})
	}

	matchRel = func(ci, pos int) bool {
		rp := chains[ci].part.Rels[pos]
		from := env[chains[ci].part.Nodes[pos].Variable]
		tryRel := func(rid, far graph.ID) bool {
			rel := s.g.Rel(rid)
			if len(rp.Types) > 0 && !containsStr(rp.Types, rel.Type) {
				return false
			}
			already, bound := env[rp.Variable]
			if bound {
				if already != rid {
					return false
				}
			} else if used[rid] {
				return false
			}
			if want, ok := pinned[rp.Variable]; ok && want != rid {
				return false
			}
			if !bound {
				used[rid] = true
				defer delete(used, rid)
			}
			return bind(rp.Variable, rid, func() bool {
				return matchNodeAt(ci, pos+1, far)
			})
		}
		g := s.g
		switch rp.Direction {
		case ast.DirRight:
			for _, rid := range g.Out(from) {
				if tryRel(rid, g.Rel(rid).End) {
					return true
				}
			}
		case ast.DirLeft:
			for _, rid := range g.In(from) {
				if tryRel(rid, g.Rel(rid).Start) {
					return true
				}
			}
		default:
			for _, rid := range g.Out(from) {
				if tryRel(rid, g.Rel(rid).End) {
					return true
				}
			}
			for _, rid := range g.In(from) {
				if r := g.Rel(rid); r.Start != r.End {
					if tryRel(rid, r.Start) {
						return true
					}
				}
			}
		}
		return false
	}

	matchChain = func(ci int) bool {
		if ci == len(chains) {
			count++
			return count >= limit
		}
		np := chains[ci].part.Nodes[0]
		if id, bound := env[np.Variable]; bound {
			return matchNodeAt(ci, 0, id)
		}
		if id, ok := pinned[np.Variable]; ok {
			return matchNodeAt(ci, 0, id)
		}
		for _, id := range s.g.NodeIDs() {
			if matchNodeAt(ci, 0, id) {
				return true
			}
		}
		return false
	}

	matchChain(0)
	return count
}

// pinsToSortedVars lists pinned variables deterministically (testing aid).
func pinsToSortedVars(pins []pin) []string {
	out := make([]string, len(pins))
	for i, p := range pins {
		out[i] = p.varName
	}
	sort.Strings(out)
	return out
}
