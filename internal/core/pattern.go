package core

import (
	"math/rand"
	"sort"

	"gqs/internal/cypher/ast"
	"gqs/internal/graph"
)

// Path is a concrete walk through the generated graph: the skeleton of a
// search pattern (§3.4's "base pattern"). Steps[i] connects Nodes[i] to
// Nodes[i+1]; Forward records whether the relationship is traversed from
// its start to its end.
type Path struct {
	Nodes []graph.ID
	Steps []PathStep
}

// PathStep is one relationship traversal of a Path.
type PathStep struct {
	Rel     graph.ID
	Forward bool
}

// clone returns a deep copy.
func (p *Path) clone() *Path {
	return &Path{
		Nodes: append([]graph.ID(nil), p.Nodes...),
		Steps: append([]PathStep(nil), p.Steps...),
	}
}

// reverse returns the path walked end-to-start.
func (p *Path) reverse() *Path {
	n := len(p.Nodes)
	out := &Path{Nodes: make([]graph.ID, n), Steps: make([]PathStep, len(p.Steps))}
	for i, id := range p.Nodes {
		out.Nodes[n-1-i] = id
	}
	for i, s := range p.Steps {
		out.Steps[len(p.Steps)-1-i] = PathStep{Rel: s.Rel, Forward: !s.Forward}
	}
	return out
}

// relSet returns the relationships used by the path.
func (p *Path) relSet() map[graph.ID]bool {
	out := make(map[graph.ID]bool, len(p.Steps))
	for _, s := range p.Steps {
		out[s.Rel] = true
	}
	return out
}

// indexOfNode returns the position of the node in the path, or -1.
func (p *Path) indexOfNode(id graph.ID) int {
	for i, n := range p.Nodes {
		if n == id {
			return i
		}
	}
	return -1
}

// hasRel reports whether the path traverses the relationship.
func (p *Path) hasRel(id graph.ID) bool {
	for _, s := range p.Steps {
		if s.Rel == id {
			return true
		}
	}
	return false
}

// appendStep extends the path by one traversal.
func (p *Path) appendStep(s PathStep, to graph.ID) {
	p.Steps = append(p.Steps, s)
	p.Nodes = append(p.Nodes, to)
}

// bfsScratch is the reusable working memory of bfsPath: per-node arrays
// indexed by node ID, sized once to one graph's node ID range on first
// use, that replace a per-call visited map. A node counts as visited in
// the current search when its stamp equals the current epoch, so
// starting a search costs one increment instead of a clear; the stamps
// are cleared only when the epoch wraps. One scratch serves one graph
// (synthesis never writes it) and one goroutine.
type bfsScratch struct {
	epoch  uint32
	stamp  []uint32
	crumbs []crumb
	queue  []graph.ID
}

// crumb records how a search first reached a node: the node it came
// from (-1 for a start node) and the traversal it took.
type crumb struct {
	prevNode graph.ID
	step     PathStep
}

// begin opens a new search over g's nodes.
func (b *bfsScratch) begin(g *graph.Graph) {
	if b.stamp == nil {
		n := nodeSpan(g)
		b.stamp = make([]uint32, n)
		b.crumbs = make([]crumb, n)
	}
	b.epoch++
	if b.epoch == 0 {
		clear(b.stamp)
		b.epoch = 1
	}
}

// nodeSpan returns one past the graph's largest node ID: the length of
// an array indexed by node ID.
func nodeSpan(g *graph.Graph) int {
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return 0
	}
	return int(ids[len(ids)-1]) + 1
}

// visit marks node id reached by crumb c, reporting false if the current
// search had already reached it.
func (b *bfsScratch) visit(id graph.ID, c crumb) bool {
	if b.stamp[id] == b.epoch {
		return false
	}
	b.stamp[id] = b.epoch
	b.crumbs[id] = c
	return true
}

// bfsPath finds a shortest undirected walk from one of the start nodes to
// the target node, avoiding the given relationships. It returns nil when
// the target is unreachable. Starts and target must be node IDs of g.
// Each node's out list is walked before its in list, the order of
// Graph.Incident, so ties between equally short walks break the same way
// as a search over Incident would.
func (b *bfsScratch) bfsPath(g *graph.Graph, starts []graph.ID, target graph.ID, avoid map[graph.ID]bool) *Path {
	b.begin(g)
	queue := append(b.queue[:0], starts...)
	for _, s := range starts {
		b.visit(s, crumb{prevNode: -1})
	}
	found := contains(starts, target)
	// reach visits next from cur over rid and reports whether it is the
	// target.
	reach := func(cur, next, rid graph.ID, fwd bool) bool {
		if !b.visit(next, crumb{prevNode: cur, step: PathStep{Rel: rid, Forward: fwd}}) {
			return false
		}
		if next == target {
			return true
		}
		queue = append(queue, next)
		return false
	}
search:
	for head := 0; head < len(queue) && !found; head++ {
		cur := queue[head]
		for _, rid := range g.Out(cur) {
			if !avoid[rid] && reach(cur, g.Rel(rid).End, rid, true) {
				found = true
				break search
			}
		}
		for _, rid := range g.In(cur) {
			// A self-loop leads back to cur, which is always visited.
			if !avoid[rid] && reach(cur, g.Rel(rid).Start, rid, false) {
				found = true
				break search
			}
		}
	}
	b.queue = queue
	if !found {
		return nil
	}
	// Rebuild the walk back from the target.
	n := 1
	for cur := target; b.crumbs[cur].prevNode != -1; cur = b.crumbs[cur].prevNode {
		n++
	}
	out := &Path{Nodes: make([]graph.ID, n), Steps: make([]PathStep, n-1)}
	cur := target
	for i := n - 1; ; i-- {
		out.Nodes[i] = cur
		c := b.crumbs[cur]
		if c.prevNode == -1 {
			break
		}
		out.Steps[i-1] = c.step
		cur = c.prevNode
	}
	return out
}

func contains(ids []graph.ID, id graph.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// collectChains builds base patterns: one or more concrete paths that
// together contain every required element (§3.4, "GQS begins by
// collecting paths through the graph that contain the elements to be
// introduced"). Relationships are not repeated within the clause.
func collectChains(r *rand.Rand, g *graph.Graph, bfs *bfsScratch, required []elemRef) []*Path {
	reqNodes := map[graph.ID]bool{}
	reqRels := map[graph.ID]bool{}
	for _, e := range required {
		if e.isRel {
			reqRels[e.id] = true
		} else {
			reqNodes[e.id] = true
		}
	}
	usedRels := map[graph.ID]bool{}
	var chains []*Path

	// Deterministic element order, then shuffled.
	var order []elemRef
	order = append(order, required...)
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	covered := func(e elemRef) bool {
		for _, c := range chains {
			if e.isRel && c.hasRel(e.id) {
				return true
			}
			if !e.isRel && c.indexOfNode(e.id) >= 0 {
				return true
			}
		}
		return false
	}

	startChain := func(e elemRef) *Path {
		if !e.isRel {
			return &Path{Nodes: []graph.ID{e.id}}
		}
		rel := g.Rel(e.id)
		usedRels[e.id] = true
		p := &Path{Nodes: []graph.ID{rel.Start}}
		p.appendStep(PathStep{Rel: e.id, Forward: true}, rel.End)
		if r.Intn(2) == 0 {
			return p.reverse()
		}
		return p
	}

	extendTo := func(c *Path, e elemRef) bool {
		target := e.id
		via := graph.ID(-1)
		if e.isRel {
			// Reach either endpoint, then traverse the relationship.
			rel := g.Rel(e.id)
			target, via = rel.Start, rel.End
		}
		ends := []graph.ID{c.Nodes[len(c.Nodes)-1]}
		sub := bfs.bfsPath(g, ends, target, usedRels)
		if sub == nil && e.isRel {
			target, via = via, target
			sub = bfs.bfsPath(g, ends, target, usedRels)
		}
		if sub == nil || len(sub.Nodes)+len(c.Nodes) > 8 {
			return false
		}
		for _, s := range sub.Steps {
			usedRels[s.Rel] = true
		}
		for i, s := range sub.Steps {
			c.appendStep(s, sub.Nodes[i+1])
		}
		if e.isRel {
			if usedRels[e.id] {
				// The BFS walk itself traversed the required relationship
				// on the way to its endpoint; the chain already covers it.
				return c.hasRel(e.id)
			}
			rel := g.Rel(e.id)
			usedRels[e.id] = true
			if rel.Start == target {
				c.appendStep(PathStep{Rel: e.id, Forward: true}, rel.End)
			} else {
				c.appendStep(PathStep{Rel: e.id, Forward: false}, rel.Start)
			}
		}
		return true
	}

	for _, e := range order {
		if covered(e) {
			continue
		}
		if len(chains) > 0 && r.Intn(3) == 0 {
			// Occasionally extend the most recent chain toward the
			// element; separate chains otherwise, which yields the
			// multi-pattern MATCH clauses of Figure 1.
			if extendTo(chains[len(chains)-1], e) {
				continue
			}
		}
		chains = append(chains, startChain(e))
	}
	if len(chains) == 0 {
		// A MATCH step with no required elements still needs a pattern;
		// anchor on a random node.
		ids := g.NodeIDs()
		if len(ids) == 0 {
			return nil
		}
		chains = append(chains, &Path{Nodes: []graph.ID{ids[r.Intn(len(ids))]}})
	}
	// Random extension of chain ends keeps patterns from degenerating to
	// single nodes.
	for _, c := range chains {
		for len(c.Steps) < 1+r.Intn(4) {
			if !extendRandom(r, g, c, usedRels) {
				break
			}
		}
	}
	return chains
}

// extendRandom grows the chain by one unused relationship from its tail.
func extendRandom(r *rand.Rand, g *graph.Graph, c *Path, used map[graph.ID]bool) bool {
	tail := c.Nodes[len(c.Nodes)-1]
	inc := g.Incident(tail)
	if len(inc) == 0 {
		return false
	}
	for try := 0; try < 4; try++ {
		rid := inc[r.Intn(len(inc))]
		if used[rid] {
			continue
		}
		rel := g.Rel(rid)
		used[rid] = true
		if rel.Start == tail {
			c.appendStep(PathStep{Rel: rid, Forward: true}, rel.End)
		} else {
			c.appendStep(PathStep{Rel: rid, Forward: false}, rel.Start)
		}
		return true
	}
	return false
}

// clonePaths deep-copies a chain set.
func clonePaths(ps []*Path) []*Path {
	out := make([]*Path, len(ps))
	for i, p := range ps {
		out[i] = p.clone()
	}
	return out
}

// coversAll reports whether the chains contain every required element.
func coversAll(chains []*Path, required []elemRef) bool {
	for _, e := range required {
		found := false
		for _, c := range chains {
			if (e.isRel && c.hasRel(e.id)) || (!e.isRel && c.indexOfNode(e.id) >= 0) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// mutateChains applies the three pattern-mutation strategies of §3.4
// (concatenation, branching, cross) by combining base chains with the
// patterns used in previous clauses, then returns the mutated chain set.
// Mutations that would repeat a relationship within the clause are
// skipped, preserving well-formedness.
func mutateChains(r *rand.Rand, chains []*Path, history []*Path) []*Path {
	if len(history) == 0 || len(chains) == 0 {
		return chains
	}
	used := map[graph.ID]bool{}
	for _, c := range chains {
		for rel := range c.relSet() {
			used[rel] = true
		}
	}
	prev := history[r.Intn(len(history))]
	base := chains[r.Intn(len(chains))]
	// Find a node shared between the base chain and the previous pattern.
	type sharing struct {
		node    graph.ID
		basePos int
		prevPos int
	}
	var shared []sharing
	for i, n := range base.Nodes {
		if j := prev.indexOfNode(n); j >= 0 {
			shared = append(shared, sharing{node: n, basePos: i, prevPos: j})
		}
	}
	if len(shared) == 0 {
		return chains
	}
	s := shared[r.Intn(len(shared))]
	baseEnd := s.basePos == 0 || s.basePos == len(base.Nodes)-1
	prevEnd := s.prevPos == 0 || s.prevPos == len(prev.Nodes)-1
	addIfFresh := func(p *Path) bool {
		if p == nil || len(p.Steps) == 0 {
			return false
		}
		// Check step-by-step rather than over relSet(): a recombined
		// walk may repeat a relationship internally (base and previous
		// pattern can share relationships), which a set would hide.
		local := map[graph.ID]bool{}
		for _, s := range p.Steps {
			if used[s.Rel] || local[s.Rel] {
				return false
			}
			local[s.Rel] = true
		}
		for rel := range local {
			used[rel] = true
		}
		chains = append(chains, p)
		return true
	}
	switch {
	case baseEnd && prevEnd:
		// ① Concatenation: extend the base chain with the previous
		// pattern's walk, joined at the shared node.
		seg := prev.clone()
		if s.prevPos != 0 {
			seg = seg.reverse()
		}
		fresh := true
		for rel := range seg.relSet() {
			if used[rel] {
				fresh = false
			}
		}
		if fresh {
			oriented := base
			if s.basePos == 0 {
				oriented = base.reverse()
			}
			for i, st := range seg.Steps {
				oriented.appendStep(st, seg.Nodes[i+1])
				used[st.Rel] = true
			}
			chains[indexOfPath(chains, base)] = oriented
		}
	case prevEnd != baseEnd:
		// ② Branching: a sub-walk of the previous pattern starting at
		// the shared node becomes a second chain, sharing the node's
		// variable and so forming a branch.
		seg := subWalkFrom(prev, s.prevPos, 2)
		addIfFresh(seg)
	default:
		// ③ Cross: split both walks at the shared node and recombine the
		// halves into new chains.
		b1, b2 := splitAt(base, s.basePos)
		p1, p2 := splitAt(prev, s.prevPos)
		chains = removePath(chains, base)
		for rel := range base.relSet() {
			delete(used, rel)
		}
		// Recombine: base-left + prev-right, prev-left + base-right.
		c1 := joinAt(b1, p2)
		c2 := joinAt(p1, b2)
		if !addIfFresh(c1) {
			addIfFresh(b1)
			addIfFresh(p2)
		}
		if !addIfFresh(c2) {
			addIfFresh(b2)
		}
	}
	return chains
}

func indexOfPath(ps []*Path, p *Path) int {
	for i, x := range ps {
		if x == p {
			return i
		}
	}
	return 0
}

func removePath(ps []*Path, p *Path) []*Path {
	for i, x := range ps {
		if x == p {
			return append(append([]*Path{}, ps[:i]...), ps[i+1:]...)
		}
	}
	return ps
}

// subWalkFrom extracts up to maxSteps traversals starting at position pos,
// walking toward the nearer end.
func subWalkFrom(p *Path, pos, maxSteps int) *Path {
	out := &Path{Nodes: []graph.ID{p.Nodes[pos]}}
	roomLeft, roomRight := pos, len(p.Steps)-pos
	if roomRight >= roomLeft {
		for i := pos; i < len(p.Steps) && len(out.Steps) < maxSteps; i++ {
			out.appendStep(p.Steps[i], p.Nodes[i+1])
		}
	} else {
		// Walk left, reversing each traversal.
		for i := pos - 1; i >= 0 && len(out.Steps) < maxSteps; i-- {
			st := p.Steps[i]
			out.appendStep(PathStep{Rel: st.Rel, Forward: !st.Forward}, p.Nodes[i])
		}
	}
	return out
}

// splitAt cuts the path at node position pos, returning the left part
// (ending at the node) and the right part (starting at the node).
func splitAt(p *Path, pos int) (*Path, *Path) {
	left := &Path{
		Nodes: append([]graph.ID(nil), p.Nodes[:pos+1]...),
		Steps: append([]PathStep(nil), p.Steps[:pos]...),
	}
	right := &Path{
		Nodes: append([]graph.ID(nil), p.Nodes[pos:]...),
		Steps: append([]PathStep(nil), p.Steps[pos:]...),
	}
	return left, right
}

// joinAt concatenates a (ending at node X) with b (starting at X).
func joinAt(a, b *Path) *Path {
	if len(a.Nodes) == 0 || len(b.Nodes) == 0 {
		return nil
	}
	if a.Nodes[len(a.Nodes)-1] != b.Nodes[0] {
		return nil
	}
	out := a.clone()
	for i, st := range b.Steps {
		out.appendStep(st, b.Nodes[i+1])
	}
	if len(out.Steps) == 0 {
		return nil
	}
	return out
}

// encChain is a chain encoded as an AST pattern together with its
// intended concrete binding: variable names to graph elements.
type encChain struct {
	part    *ast.PatternPart
	nodeIDs []graph.ID
	relIDs  []graph.ID
}

// encodeChains renders concrete paths as AST search patterns, assigning
// variables (reusing in-scope variables for already-bound elements, which
// creates the cross-clause references of §3.3), optionally attaching
// labels and types, and randomly erasing relationship directions (§3.4's
// additional mutations).
func (s *Synthesizer) encodeChains(chains []*Path, scope map[string]graph.ID) ([]*encChain, map[string]graph.ID) {
	// element -> variable for this clause: start from the in-scope nodes
	// and relationships.
	elemVar := map[elemRef]string{}
	for v, id := range scope {
		// scope maps var -> element id; invert. Rel vs node resolved by
		// the graph.
		if s.g.Node(id) != nil && s.g.Rel(id) == nil {
			elemVar[elemRef{id: id}] = v
		} else if s.g.Rel(id) != nil {
			elemVar[elemRef{id: id, isRel: true}] = v
		}
	}
	binding := map[string]graph.ID{}
	varOf := func(ref elemRef) string {
		if v, ok := elemVar[ref]; ok {
			binding[v] = ref.id
			return v
		}
		var v string
		if ref.isRel {
			if planned, ok := s.plan.ElemVar[ref]; ok {
				v = planned
			} else {
				v = s.freshVar("r")
			}
		} else {
			if planned, ok := s.plan.ElemVar[ref]; ok {
				v = planned
			} else {
				v = s.freshVar("n")
			}
		}
		elemVar[ref] = v
		binding[v] = ref.id
		return v
	}

	out := make([]*encChain, 0, len(chains))
	for _, c := range chains {
		part := &ast.PatternPart{
			Nodes: make([]*ast.NodePattern, 0, len(c.Nodes)),
			Rels:  make([]*ast.RelPattern, 0, len(c.Steps)),
		}
		ec := &encChain{part: part, nodeIDs: make([]graph.ID, 0, len(c.Nodes)), relIDs: make([]graph.ID, 0, len(c.Steps))}
		for i, nid := range c.Nodes {
			np := &ast.NodePattern{Variable: varOf(elemRef{id: nid})}
			n := s.g.Node(nid)
			if len(n.Labels) > 0 && s.r.Intn(2) == 0 {
				// Attach a random non-empty subset of the labels.
				k := 1 + s.r.Intn(len(n.Labels))
				perm := s.r.Perm(len(n.Labels))
				np.Labels = make([]string, 0, k)
				for _, j := range perm[:k] {
					np.Labels = append(np.Labels, n.Labels[j])
				}
			}
			part.Nodes = append(part.Nodes, np)
			ec.nodeIDs = append(ec.nodeIDs, nid)
			if i < len(c.Steps) {
				st := c.Steps[i]
				rel := s.g.Rel(st.Rel)
				rp := &ast.RelPattern{Variable: varOf(elemRef{id: st.Rel, isRel: true})}
				if s.r.Intn(2) == 0 {
					rp.Types = []string{rel.Type}
				}
				switch {
				case s.r.Intn(4) == 0:
					rp.Direction = ast.DirBoth // erase the direction
				case st.Forward:
					rp.Direction = ast.DirRight
				default:
					rp.Direction = ast.DirLeft
				}
				part.Rels = append(part.Rels, rp)
				ec.relIDs = append(ec.relIDs, st.Rel)
			}
		}
		out = append(out, ec)
	}
	return out, binding
}
