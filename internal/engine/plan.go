package engine

import (
	"fmt"
	"sort"
	"sync"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// This file is the physical-plan IR and its executor. A plan is compiled
// once at Prepare time (compile.go) and then executed any number of
// times, by any number of engines concurrently: everything
// dialect-dependent (relationship uniqueness, db.* availability, scan
// direction) and everything store-dependent (index existence, label
// cardinalities, traversal orientation) is read from the EXECUTING engine
// at run time, never baked into the plan. That is what lets the five
// oracle targets share one immutable plan exactly as they share one AST.
//
// The executor mirrors the tree-walking interpreter operation for
// operation — same enumeration order, same step accounting, same error
// identity and timing, same rand()/timestamp() draw schedule — so that
// plan execution is byte-for-byte behaviour-preserving (DESIGN.md §12).
// What it removes is per-row overhead: rows are slot-addressed frames
// ([]value.Value) allocated from a bump arena instead of maps, and every
// expression is a compiled closure instead of an AST walk.

// frame is a slot-addressed row. Slot assignment is per query part; the
// zero Value is null, and a slot is only ever read after the compile-time
// schedule has written it, so frames need no zeroing.
type frame = []value.Value

// queryPlan is the compiled form of one query: one partPlan per UNION
// arm, plus the ALL flags between them.
type queryPlan struct {
	parts []*partPlan
	all   []bool
}

// partPlan is one single-query pipeline: a stage per clause, and the
// frame width covering every slot any stage of the part uses.
type partPlan struct {
	stages []planStage
	width  int
}

// planStage is one compiled clause. run transforms the incoming frames,
// returning the outgoing frames and, for RETURN / final CALL, the result.
type planStage interface {
	run(e *Engine, in []frame) ([]frame, *Result, error)
}

// --- frame arena ---------------------------------------------------

// arenaChunkSlots is the bump-allocation granularity of the frame arena.
const arenaChunkSlots = 4096

// arenaMaxRetain bounds how many chunks reset keeps, so one huge query
// does not pin its peak footprint for the life of the engine.
const arenaMaxRetain = 16

// frameArena bump-allocates frames for one execution. Chunks are reused
// across executions without zeroing: stale slots are unreachable because
// every read is scheduled after a write at compile time (see frame).
type frameArena struct {
	chunks [][]value.Value
	ci     int // index of the chunk being filled
	off    int // fill offset within it
}

func (a *frameArena) alloc(w int) frame {
	if w == 0 {
		return nil
	}
	for {
		if a.ci == len(a.chunks) {
			size := arenaChunkSlots
			if w > size {
				size = w
			}
			a.chunks = append(a.chunks, make([]value.Value, size))
		}
		ch := a.chunks[a.ci]
		if a.off+w <= len(ch) {
			f := ch[a.off : a.off+w : a.off+w]
			a.off += w
			return f
		}
		a.ci++
		a.off = 0
	}
}

func (a *frameArena) reset() {
	a.ci, a.off = 0, 0
	if len(a.chunks) > arenaMaxRetain {
		a.chunks = a.chunks[:arenaMaxRetain:arenaMaxRetain]
	}
}

// planState is the per-engine scratch the plan executor reuses across
// executions: the frame arena, the in-flight match frame, the
// relationship-uniqueness stack, the per-part orientation flags, the
// matcher itself, and the per-stage output row buffers.
type planState struct {
	arena   frameArena
	scratch frame
	used    []graph.ID
	rev     []bool
	pm      planMatcher
	// rows0 backs the one-frame input row runPlanPart seeds each part's
	// pipeline with.
	rows0 [1]frame
	// rowBufs pools the []frame output slices of the row-producing
	// stages (MATCH, UNWIND, CALL). The k-th producing stage of an
	// execution always takes buffer k, so buffers are disjoint within
	// an execution; across executions reuse is safe because results
	// copy values out of frames (buildResult) and nothing else retains
	// them past the execution.
	rowBufs [][]frame
	rowSeq  int
}

func (ps *planState) ensure(w int) frame {
	if cap(ps.scratch) < w {
		ps.scratch = make([]value.Value, w)
	}
	return ps.scratch[:w]
}

// nextRowBuf hands out the next pooled output buffer, empty. The caller
// returns the grown slice through keepRowBuf under the same ticket.
func (ps *planState) nextRowBuf() (int, []frame) {
	if ps.rowSeq == len(ps.rowBufs) {
		ps.rowBufs = append(ps.rowBufs, nil)
	}
	k := ps.rowSeq
	ps.rowSeq++
	return k, ps.rowBufs[k][:0]
}

// keepRowBuf stores a stage's final output slice for reuse by the next
// execution. Oversized buffers are dropped, bounding retained memory
// the same way arenaMaxRetain bounds the arena.
func (ps *planState) keepRowBuf(k int, b []frame) {
	if cap(b) > arenaChunkSlots {
		b = nil
	}
	ps.rowBufs[k] = b
}

// planCtx refreshes the engine's scratch eval context for compiled
// evaluation: Env is unused on this path (compiled closures read
// Frame[slot]), and stages rebind Frame per row.
func (e *Engine) planCtx(f frame) *eval.Ctx {
	e.ectx.Graph = e.store.Graph()
	e.ectx.Env = nil
	e.ectx.Params = e.params
	e.ectx.Exec = e.exec
	e.ectx.Frame = f
	return &e.ectx
}

// --- top-level execution -------------------------------------------

// runPlan executes a compiled plan, mirroring ExecuteAST's UNION
// handling.
func (e *Engine) runPlan(p *queryPlan) (*Result, error) {
	e.planTrace = e.planTrace[:0]
	e.pstate.arena.reset()
	e.pstate.rowSeq = 0
	if len(e.pstate.rowBufs) > arenaMaxRetain {
		e.pstate.rowBufs = e.pstate.rowBufs[:arenaMaxRetain:arenaMaxRetain]
	}
	var out *Result
	for i, pp := range p.parts {
		r, err := e.runPlanPart(pp)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out = r
			continue
		}
		if err := sameColumns(out, r); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, r.Rows...)
		if !p.all[i-1] {
			out = distinctResult(out)
		}
	}
	return out, nil
}

// runPlanPart executes one part's stage pipeline, mirroring
// executeSingle's per-clause cancellation poll and row limit.
func (e *Engine) runPlanPart(pp *partPlan) (*Result, error) {
	ps := &e.pstate
	ps.rows0[0] = ps.arena.alloc(pp.width)
	rows := ps.rows0[:1:1]
	var result *Result
	for _, st := range pp.stages {
		if err := e.checkCancelNow(); err != nil {
			return nil, err
		}
		var res *Result
		var err error
		rows, res, err = st.run(e, rows)
		if err != nil {
			return nil, err
		}
		if res != nil {
			result = res
		}
		if len(rows) > e.opts.Limits.MaxRows {
			return nil, &ErrResourceLimit{What: "intermediate rows"}
		}
	}
	if result == nil {
		result = &Result{}
	}
	return result, nil
}

// --- MATCH ---------------------------------------------------------

// cCost is the compiled cost estimate for starting a chain at a node:
// zero when the node variable is already bound at the part's entry,
// otherwise the most selective label cardinality. Evaluated against the
// executing store so one plan orients correctly on every target.
type cCost struct {
	bound  bool
	labels []string
}

func (c *cCost) eval(st *Store) int {
	if c.bound {
		return 0
	}
	best := st.Graph().NumNodes()
	for _, l := range c.labels {
		if n := st.LabelCount(l); n < best {
			best = n
		}
	}
	return best
}

// cProps is a compiled inline property map: evaluated key by key in
// declaration order against the current frame, exactly as
// matcher.checkProps evaluates the MapLit.
type cProps struct {
	keys []string
	vals []eval.Compiled
}

// cProbe is one candidate index probe of the chain's first node: a
// (label, property) pair with the compiled value expression and the
// precomputed trace string.
type cProbe struct {
	label string
	key   string
	val   eval.Compiled
	trace string
}

// cNode is one pattern node of a chain. slot is -1 for anonymous nodes;
// bound means the variable is in scope before this element binds (so the
// node is an equality check, not a scan). conj are the WHERE conjuncts
// that become fully bound at this element, in conjunct order.
type cNode struct {
	slot   int
	bound  bool
	labels []string
	props  cProps
	probes []cProbe // chain entry node only
	conj   []eval.CompiledPred
}

// cRel is one pattern relationship of a chain.
type cRel struct {
	slot  int
	bound bool
	types []string
	dir   ast.Direction
	props cProps
	conj  []eval.CompiledPred
}

// cChain is one pattern part lowered to a node/relationship expansion
// sequence (len(nodes) == len(rels)+1).
type cChain struct {
	nodes []cNode
	rels  []cRel
}

// cPart is one pattern part. The forward orientation is precompiled; the
// reverse is built on first demand (revBuild, nil for single-node parts)
// because most executions never reverse — the executor picks fwd or rev
// once per execution from the cost estimates, mirroring matcher.orient
// (whose per-row choice is constant across rows: boundness is static and
// the store does not change during a read-only execution). revOnce makes
// the lazy build safe across concurrent executions of the shared plan;
// after it fires the chain is immutable like everything else here.
type cPart struct {
	fwd       *cChain
	costFirst cCost
	costLast  cCost
	revBuild  func() *cChain
	revOnce   sync.Once
	rev       *cChain
}

// reverse returns the reversed chain, building it on first use.
func (p *cPart) reverse() *cChain {
	p.revOnce.Do(func() { p.rev = p.revBuild() })
	return p.rev
}

// cMatch is a compiled MATCH / OPTIONAL MATCH clause. entry holds the
// conjuncts evaluable from the input row alone; final the conjuncts that
// never become fully bound (they surface unknown-variable errors at emit
// time, as the interpreter's conservative final pass does); optFill the
// slots OPTIONAL MATCH null-fills when nothing matched.
type cMatch struct {
	optional bool
	entry    []eval.CompiledPred
	final    []eval.CompiledPred
	parts    []*cPart
	optFill  []int
}

// planMatcher is the slot-frame mirror of matcher: one instance serves
// every input row of one clause execution, sharing the step budget and
// the relationship-uniqueness stack exactly as the interpreter shares
// them.
type planMatcher struct {
	e        *Engine
	ctx      *eval.Ctx
	g        *graph.Graph
	adj      *graph.AdjIndex // base-snapshot adjacency index, nil = scan only
	m        *cMatch
	f        frame
	w        int
	uniq     bool
	revScan  bool
	rev      []bool
	used     []graph.ID
	steps    int
	maxSteps int
	maxRows  int
	out      []frame
	arena    *frameArena
	matched  bool
}

func (st *cMatch) run(e *Engine, in []frame) ([]frame, *Result, error) {
	if len(in) == 0 {
		return nil, nil, nil
	}
	w := len(in[0])
	ps := &e.pstate
	scratch := ps.ensure(w)
	// Orientation, chosen once per execution (see cPart).
	if cap(ps.rev) < len(st.parts) {
		ps.rev = make([]bool, len(st.parts))
	}
	rev := ps.rev[:len(st.parts)]
	for i, p := range st.parts {
		rev[i] = p.revBuild != nil && p.costLast.eval(e.store) < p.costFirst.eval(e.store)
		if rev[i] {
			e.planTrace = append(e.planTrace, "ReverseTraversal")
		}
	}
	g := e.store.Graph()
	var adj *graph.AdjIndex
	if !e.opts.DisableAdjIndex {
		adj = g.BaseAdjIndex() // nil unless snapshot-backed
	}
	// The matcher and its output buffer live in planState: one matcher
	// struct per engine instead of one per MATCH execution, and the
	// output slice of the k-th producing stage is recycled across
	// executions (see nextRowBuf).
	bufK, out := ps.nextRowBuf()
	pm := &ps.pm
	*pm = planMatcher{
		e:        e,
		ctx:      e.planCtx(scratch),
		g:        g,
		adj:      adj,
		m:        st,
		f:        scratch,
		w:        w,
		uniq:     e.opts.Dialect.RelUniqueness,
		revScan:  e.opts.ReverseScan,
		rev:      rev,
		used:     ps.used[:0],
		maxSteps: e.opts.Limits.MaxMatchSteps,
		maxRows:  e.opts.Limits.MaxRows,
		out:      out,
		arena:    &ps.arena,
	}
	for _, r := range in {
		copy(scratch, r)
		pm.matched = false
		ok := true
		for _, p := range st.entry {
			t, err := p(pm.ctx)
			if err != nil {
				return nil, nil, err
			}
			if t != value.TriTrue {
				ok = false
				break
			}
		}
		if ok {
			if err := pm.part(0); err != nil {
				return nil, nil, err
			}
		}
		if st.optional && !pm.matched {
			nf := ps.arena.alloc(w)
			copy(nf, r)
			for _, s := range st.optFill {
				nf[s] = value.Null
			}
			pm.out = append(pm.out, nf)
		}
	}
	ps.used = pm.used[:0]
	ps.keepRowBuf(bufK, pm.out)
	return pm.out, nil, nil
}

func (pm *planMatcher) step() error {
	pm.steps++
	if pm.steps > pm.maxSteps {
		return &ErrResourceLimit{What: "match steps"}
	}
	return pm.e.checkCancel()
}

func (pm *planMatcher) part(pi int) error {
	if pi == len(pm.m.parts) {
		for _, p := range pm.m.final {
			t, err := p(pm.ctx)
			if err != nil {
				return err
			}
			if t != value.TriTrue {
				return nil
			}
		}
		return pm.emit()
	}
	ch := pm.m.parts[pi].fwd
	if pm.rev[pi] {
		ch = pm.m.parts[pi].reverse()
	}
	return pm.node0(ch, pi)
}

func (pm *planMatcher) emit() error {
	pm.matched = true
	nf := pm.arena.alloc(pm.w)
	copy(nf, pm.f)
	pm.out = append(pm.out, nf)
	if len(pm.out) > pm.maxRows {
		return &ErrResourceLimit{What: "match results"}
	}
	return nil
}

// node0 binds the chain's entry node: the equality path when the
// variable is already bound, otherwise a scan over the access path.
func (pm *planMatcher) node0(ch *cChain, pi int) error {
	n := &ch.nodes[0]
	if n.bound {
		v := pm.f[n.slot]
		if v.Kind() != value.KindNode {
			return nil // bound to a non-node: no match
		}
		return pm.bindNode0(ch, pi, v.EntityID())
	}
	ids, reversed := pm.scan(n)
	if reversed {
		for i := len(ids) - 1; i >= 0; i-- {
			if err := pm.bindNode0(ch, pi, ids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := pm.bindNode0(ch, pi, id); err != nil {
			return err
		}
	}
	return nil
}

// scan picks the access path for an unbound entry node, mirroring
// matcher.nodeCandidates: index probe, most-selective label scan, full
// scan. Instead of copying to reverse under ReverseScan dialects it
// reports descending iteration (index probes are never reversed, as in
// the interpreter).
func (pm *planMatcher) scan(n *cNode) ([]graph.ID, bool) {
	st := pm.e.store
	for i := range n.probes {
		p := &n.probes[i]
		if !st.HasIndex(p.label, p.key) {
			continue
		}
		v, err := p.val(pm.ctx)
		if err != nil || v.IsNull() {
			continue // probe value unavailable: fall through, as interpreted
		}
		if ids, ok := st.NodesByIndex(p.label, p.key, v); ok {
			pm.e.planTrace = append(pm.e.planTrace, p.trace)
			return ids, false
		}
	}
	if len(n.labels) > 0 {
		best := st.NodesByLabel(n.labels[0])
		for _, l := range n.labels[1:] {
			if ids := st.NodesByLabel(l); len(ids) < len(best) {
				best = ids
			}
		}
		pm.e.planTrace = append(pm.e.planTrace, "NodeByLabelScan")
		return best, pm.revScan
	}
	pm.e.planTrace = append(pm.e.planTrace, "AllNodesScan")
	return pm.g.NodeIDs(), pm.revScan
}

func (pm *planMatcher) bindNode0(ch *cChain, pi int, id graph.ID) error {
	if err := pm.step(); err != nil {
		return err
	}
	n := &ch.nodes[0]
	ok, err := pm.checkNode(n, id)
	if err != nil || !ok {
		return err
	}
	if n.slot >= 0 {
		pm.f[n.slot] = value.Node(id)
	}
	for _, p := range n.conj {
		t, err := p(pm.ctx)
		if err != nil {
			return err
		}
		if t != value.TriTrue {
			return nil
		}
	}
	if len(ch.nodes) == 1 {
		return pm.part(pi + 1)
	}
	return pm.rel(ch, 0, pi, id)
}

func (pm *planMatcher) checkNode(n *cNode, id graph.ID) (bool, error) {
	if pm.adj != nil && len(n.labels) > 0 && len(n.props.keys) == 0 {
		// Label-only check through the label index (base + store
		// deltas): membership implies existence — deleted nodes are
		// unindexed — so the node table is never touched. Gated with
		// the adjacency index so DisableAdjIndex yields a pure-scan
		// engine for the differential.
		for _, l := range n.labels {
			if !pm.e.store.NodeHasLabel(l, id) {
				return false, nil
			}
		}
		return true, nil
	}
	gn := pm.g.Node(id)
	if gn == nil {
		return false, nil
	}
	for _, l := range n.labels {
		if !gn.HasLabel(l) {
			return false, nil
		}
	}
	return pm.checkProps(&n.props, id, false)
}

// checkProps tests the compiled inline property map against the
// properties of the node (isRel false) or relationship id.
func (pm *planMatcher) checkProps(p *cProps, id graph.ID, isRel bool) (bool, error) {
	for i, key := range p.keys {
		want, err := p.vals[i](pm.ctx)
		if err != nil {
			return false, err
		}
		got, ok := pm.g.Prop(id, isRel, key)
		if !ok || value.Equal(got, want) != value.TriTrue {
			return false, nil
		}
	}
	return true, nil
}

// rel expands relationship i of the chain from the bound node `from`:
// through the adjacency index when the pattern is typed and the index
// covers the node, otherwise by scanning the full adjacency lists.
func (pm *planMatcher) rel(ch *cChain, i, pi int, from graph.ID) error {
	if pm.adj != nil && len(ch.rels[i].types) > 0 {
		if handled, err := pm.relIndexed(ch, i, pi, from); handled {
			return err
		}
	}
	switch ch.rels[i].dir {
	case ast.DirRight:
		for _, rid := range pm.g.Out(from) {
			if err := pm.tryRel(ch, i, pi, rid, pm.g.Rel(rid).End); err != nil {
				return err
			}
		}
	case ast.DirLeft:
		for _, rid := range pm.g.In(from) {
			if err := pm.tryRel(ch, i, pi, rid, pm.g.Rel(rid).Start); err != nil {
				return err
			}
		}
	default: // undirected
		for _, rid := range pm.g.Out(from) {
			if err := pm.tryRel(ch, i, pi, rid, pm.g.Rel(rid).End); err != nil {
				return err
			}
		}
		for _, rid := range pm.g.In(from) {
			r := pm.g.Rel(rid)
			if r.Start == r.End {
				continue // self-loop already visited via Out
			}
			if err := pm.tryRel(ch, i, pi, rid, r.Start); err != nil {
				return err
			}
		}
	}
	return nil
}

func (pm *planMatcher) tryRel(ch *cChain, i, pi int, rid, other graph.ID) error {
	if err := pm.step(); err != nil {
		return err
	}
	r := &ch.rels[i]
	gr := pm.g.Rel(rid)
	if !typeMatches(r.types, gr.Type) {
		return nil
	}
	ok, err := pm.checkProps(&r.props, rid, true)
	if err != nil || !ok {
		return err
	}
	return pm.relBind(ch, i, pi, rid, other)
}

// relBind finishes candidate acceptance after type/property filtering:
// bound-variable equality, relationship uniqueness, slot binding, and
// the chain tail. Shared by the scan and indexed expansion paths.
func (pm *planMatcher) relBind(ch *cChain, i, pi int, rid, other graph.ID) error {
	r := &ch.rels[i]
	pushed := false
	if r.bound {
		if v := pm.f[r.slot]; v.Kind() != value.KindRel || v.EntityID() != rid {
			return nil
		}
	} else {
		if pm.uniq {
			for _, u := range pm.used {
				if u == rid {
					return nil
				}
			}
		}
		pm.used = append(pm.used, rid)
		pushed = true
		if r.slot >= 0 {
			pm.f[r.slot] = value.Rel(rid)
		}
	}
	err := pm.relTail(ch, i, pi, other)
	if pushed {
		pm.used = pm.used[:len(pm.used)-1]
	}
	return err
}

// tryRelIndexed is tryRel for an index-bucket candidate: the bucket key
// guarantees the type matches, and the entry carries the far endpoint,
// so the relationship record is fetched (overlay-resolving, for rels
// whose properties were mutated after seal) only when the pattern has
// inline properties to check.
func (pm *planMatcher) tryRelIndexed(ch *cChain, i, pi int, rid, other graph.ID) error {
	if err := pm.step(); err != nil {
		return err
	}
	r := &ch.rels[i]
	if len(r.props.keys) > 0 {
		ok, err := pm.checkProps(&r.props, rid, true)
		if err != nil || !ok {
			return err
		}
	}
	return pm.relBind(ch, i, pi, rid, other)
}

// skipRun charges n skipped (type-mismatched) scan positions to the
// match-step budget in one add. The scan path charges them one step()
// each, but a mismatched candidate has no effect besides its step, so
// one limit check after the run errors at exactly the boundary the
// scan would have hit — the positions past the limit would have done
// nothing anyway. Only the cancellation-poll cadence differs, which is
// not observable behaviour (polling is wall-clock dependent already).
func (pm *planMatcher) skipRun(n int) error {
	if n <= 0 {
		return nil
	}
	pm.steps += n
	if pm.steps > pm.maxSteps {
		return &ErrResourceLimit{What: "match steps"}
	}
	return pm.e.checkCancel()
}

// relIndexed expands relationship i through the base snapshot's
// adjacency index. It handles the expansion only when the overlay does
// not shadow the node's adjacency in any direction the pattern reads;
// otherwise it reports handled == false and rel falls back to the
// scan, which is always correct (an overlay entry is the node's
// complete adjacency list). The index walk visits exactly the scan's
// candidates in exactly its order, with mismatched positions charged
// to the step budget via skipRun, so the two paths are observationally
// identical — the scan-vs-index differential test pins this.
func (pm *planMatcher) relIndexed(ch *cChain, i, pi int, from graph.ID) (bool, error) {
	switch ch.rels[i].dir {
	case ast.DirRight:
		if pm.g.AdjShadowed(from, true) {
			return false, nil
		}
		pm.e.adjExpansions++
		return true, pm.expandIndexed(ch, i, pi, from, true, false)
	case ast.DirLeft:
		if pm.g.AdjShadowed(from, false) {
			return false, nil
		}
		pm.e.adjExpansions++
		return true, pm.expandIndexed(ch, i, pi, from, false, false)
	default: // undirected: Out pass, then In pass skipping self-loops
		if pm.g.AdjShadowed(from, true) || pm.g.AdjShadowed(from, false) {
			return false, nil
		}
		pm.e.adjExpansions++
		if err := pm.expandIndexed(ch, i, pi, from, true, false); err != nil {
			return true, err
		}
		return true, pm.expandIndexed(ch, i, pi, from, false, true)
	}
}

// expandIndexed runs one direction of an indexed expansion. noSelf
// marks the undirected In pass, which skips self-loops (already
// visited via Out) and therefore accounts steps in NSPos space — the
// in-list ordinals with self-loops compacted out, matching the scan's
// continue-before-step.
func (pm *planMatcher) expandIndexed(ch *cChain, i, pi int, from graph.ID, out, noSelf bool) error {
	entries := pm.adjEntries(from, ch.rels[i].types, out)
	var total int
	if out {
		total = len(pm.g.Out(from))
	} else {
		total = len(pm.g.In(from))
		if noSelf {
			total -= pm.adj.SelfLoopIn(from)
		}
	}
	prev := int32(-1)
	for k := range entries {
		e := &entries[k]
		pos := e.Pos
		if noSelf {
			pos = e.NSPos
			if pos < 0 {
				continue // self-loop: the scan skips it before stepping
			}
		}
		if err := pm.skipRun(int(pos - prev - 1)); err != nil {
			return err
		}
		prev = pos
		if err := pm.tryRelIndexed(ch, i, pi, e.Rel, e.Other); err != nil {
			return err
		}
	}
	return pm.skipRun(total - 1 - int(prev))
}

// adjEntries returns the index entries for the node across the
// pattern's admissible types, Pos-ascending. One type (the common
// case) returns the shared bucket directly, allocation-free; several
// merge their buckets by position into a fresh slice, which
// reconstructs full adjacency-list order because the buckets partition
// the list by type.
func (pm *planMatcher) adjEntries(from graph.ID, types []string, out bool) []graph.AdjEntry {
	if out {
		if len(types) == 1 {
			return pm.adj.Out(from, types[0])
		}
		var merged []graph.AdjEntry
		for _, t := range types {
			merged = mergeAdjEntries(merged, pm.adj.Out(from, t))
		}
		return merged
	}
	if len(types) == 1 {
		return pm.adj.In(from, types[0])
	}
	var merged []graph.AdjEntry
	for _, t := range types {
		merged = mergeAdjEntries(merged, pm.adj.In(from, t))
	}
	return merged
}

// mergeAdjEntries merges two Pos-sorted runs into a fresh slice,
// mutating neither input (a may be a previous merge result, b is
// always a shared index bucket). Equal positions — a type repeated in
// the pattern — collapse to one entry, as typeMatches visits each
// relationship once however many alternatives name its type.
func mergeAdjEntries(a, b []graph.AdjEntry) []graph.AdjEntry {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	m := make([]graph.AdjEntry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Pos < b[j].Pos:
			m = append(m, a[i])
			i++
		case a[i].Pos > b[j].Pos:
			m = append(m, b[j])
			j++
		default:
			m = append(m, a[i])
			i, j = i+1, j+1
		}
	}
	m = append(m, a[i:]...)
	return append(m, b[j:]...)
}

func (pm *planMatcher) relTail(ch *cChain, i, pi int, other graph.ID) error {
	for _, p := range ch.rels[i].conj {
		t, err := p(pm.ctx)
		if err != nil {
			return err
		}
		if t != value.TriTrue {
			return nil
		}
	}
	return pm.nodeAt(ch, i+1, pi, other)
}

// nodeAt binds chain node i to the far endpoint of the relationship just
// traversed. No step() here, mirroring matchNodeAt.
func (pm *planMatcher) nodeAt(ch *cChain, i, pi int, id graph.ID) error {
	n := &ch.nodes[i]
	if n.bound {
		if v := pm.f[n.slot]; v.Kind() != value.KindNode || v.EntityID() != id {
			return nil
		}
	}
	ok, err := pm.checkNode(n, id)
	if err != nil || !ok {
		return err
	}
	if n.slot >= 0 {
		pm.f[n.slot] = value.Node(id)
	}
	for _, p := range n.conj {
		t, err := p(pm.ctx)
		if err != nil {
			return err
		}
		if t != value.TriTrue {
			return nil
		}
	}
	if i == len(ch.nodes)-1 {
		return pm.part(pi + 1)
	}
	return pm.rel(ch, i, pi, id)
}

// --- UNWIND --------------------------------------------------------

type cUnwind struct {
	list eval.Compiled
	slot int
}

func (st *cUnwind) run(e *Engine, in []frame) ([]frame, *Result, error) {
	ctx := e.planCtx(nil)
	ps := &e.pstate
	bufK, out := ps.nextRowBuf()
	for _, r := range in {
		if err := e.checkCancel(); err != nil {
			return nil, nil, err
		}
		ctx.Frame = r
		v, err := st.list(ctx)
		if err != nil {
			return nil, nil, err
		}
		switch v.Kind() {
		case value.KindNull:
			// no rows
		case value.KindList:
			for _, el := range v.AsList() {
				nf := ps.arena.alloc(len(r))
				copy(nf, r)
				nf[st.slot] = el
				out = append(out, nf)
			}
		default:
			return nil, nil, fmt.Errorf("type error: UNWIND expects a list, got %s", v.Kind())
		}
	}
	ps.keepRowBuf(bufK, out)
	return out, nil, nil
}

// --- CALL ----------------------------------------------------------

type cCall struct {
	proc string
	col  string
	slot int
	last bool
}

func (st *cCall) run(e *Engine, in []frame) ([]frame, *Result, error) {
	// Availability is a dialect property, so it is checked at run time
	// against the executing engine, never at compile time.
	d := e.opts.Dialect
	var vals []value.Value
	switch st.proc {
	case "db.labels":
		if !d.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.labels", d.Name)
		}
		for _, l := range e.store.Labels() {
			vals = append(vals, value.Str(l))
		}
	case "db.relationshipTypes":
		if !d.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.relationshipTypes", d.Name)
		}
		for _, t := range e.store.RelTypes() {
			vals = append(vals, value.Str(t))
		}
	case "db.propertyKeys":
		if !d.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.propertyKeys", d.Name)
		}
		for _, k := range e.store.PropertyKeys() {
			vals = append(vals, value.Str(k))
		}
	default:
		// compileCallStage only lowers the three known procedures.
		return nil, nil, fmt.Errorf("unknown procedure %s", st.proc)
	}
	ps := &e.pstate
	bufK, out := ps.nextRowBuf()
	for _, r := range in {
		for _, v := range vals {
			nf := ps.arena.alloc(len(r))
			copy(nf, r)
			nf[st.slot] = v
			out = append(out, nf)
		}
	}
	ps.keepRowBuf(bufK, out)
	if st.last {
		res := &Result{Columns: []string{st.col}}
		for _, r := range out {
			res.Rows = append(res.Rows, []value.Value{r[st.slot]})
		}
		return out, res, nil
	}
	return out, nil, nil
}

// --- WITH / RETURN -------------------------------------------------

// cProjItem is one compiled projection item: the output column's slot
// and its compiled expression (for aggregating items, compiled with the
// per-group aggregate results spliced in via the Special hook).
type cProjItem struct {
	name string
	slot int
	agg  bool
	fn   eval.Compiled
}

// cAggCall is one aggregate call occurrence within a projection: its
// accumulator spec, the compiled argument/parameter expressions, and the
// slot its per-group result is published in for the item expressions.
type cAggCall struct {
	spec     *functions.AggSpec
	star     bool
	distinct bool
	argCount int
	arg      eval.Compiled // nil for star calls
	param    eval.Compiled // non-nil only for HasParam calls with 2 args
	slot     int
}

type cSort struct {
	key  eval.Compiled
	desc bool
}

// cProjection is a compiled WITH or RETURN clause. The interpreter
// fallback fields (proj, requireAlias) serve the one cold path the
// compiled form cannot reproduce: grouped aggregation over zero input
// rows, whose finalization evaluates expressions in an EMPTY environment
// (unknown-variable errors included), which slot reads cannot mimic.
type cProjection struct {
	items      []cProjItem
	cols       []string
	groupItems []int // indices into items of the non-aggregating items
	calls      []cAggCall
	hasAgg     bool
	distinct   bool
	isReturn   bool
	sorts      []cSort
	skip       eval.Compiled
	limit      eval.Compiled
	where      eval.CompiledPred // WITH ... WHERE only

	proj         *ast.Projection
	requireAlias bool
	width        int // part frame width, set by compileSinglePlan
}

func (st *cProjection) run(e *Engine, in []frame) ([]frame, *Result, error) {
	if st.hasAgg && len(in) == 0 {
		return st.runInterp(e)
	}
	ctx := e.planCtx(nil)
	rows := in
	if st.hasAgg {
		var err error
		rows, err = st.aggregate(e, ctx, in)
		if err != nil {
			return nil, nil, err
		}
	} else {
		// Items are written in place: item slots are disjoint from every
		// input-scope slot, and item expressions read only input scope.
		for _, r := range in {
			if err := e.checkCancel(); err != nil {
				return nil, nil, err
			}
			ctx.Frame = r
			for i := range st.items {
				v, err := st.items[i].fn(ctx)
				if err != nil {
					return nil, nil, err
				}
				r[st.items[i].slot] = v
			}
		}
	}
	if st.distinct {
		rows = st.distinctFrames(rows)
	}
	if len(st.sorts) > 0 {
		if err := st.orderBy(ctx, rows); err != nil {
			return nil, nil, err
		}
	}
	var err error
	rows, err = st.skipLimit(e, ctx, rows)
	if err != nil {
		return nil, nil, err
	}
	if st.isReturn {
		// RETURN does not replace the row pipeline (executeSingle's row
		// limit sees the pre-projection count), so pass `in` through.
		return in, st.buildResult(rows), nil
	}
	if st.where != nil {
		rows, err = st.filter(ctx, rows)
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, nil, nil
}

// runInterp is the zero-row aggregation cold path: delegate the whole
// projection to the interpreter and convert its map rows back to frames.
func (st *cProjection) runInterp(e *Engine) ([]frame, *Result, error) {
	rows, cols, err := e.project(st.proj, nil, st.requireAlias)
	if err != nil {
		return nil, nil, err
	}
	if st.isReturn {
		res := &Result{Columns: cols}
		for _, r := range rows {
			vals := make([]value.Value, len(cols))
			for i, col := range cols {
				vals[i] = r[col]
			}
			res.Rows = append(res.Rows, vals)
		}
		return nil, res, nil
	}
	ps := &e.pstate
	out := make([]frame, 0, len(rows))
	for _, r := range rows {
		nf := ps.arena.alloc(st.width)
		for i := range st.items {
			nf[st.items[i].slot] = r[st.items[i].name]
		}
		out = append(out, nf)
	}
	if st.where != nil {
		out, err = st.filter(e.planCtx(nil), out)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, nil, nil
}

func (st *cProjection) filter(ctx *eval.Ctx, rows []frame) ([]frame, error) {
	out := rows[:0]
	for _, r := range rows {
		ctx.Frame = r
		t, err := st.where(ctx)
		if err != nil {
			return nil, err
		}
		if t == value.TriTrue {
			out = append(out, r)
		}
	}
	return out, nil
}

func (st *cProjection) distinctFrames(rows []frame) []frame {
	seen := make(map[string]bool, len(rows))
	var key []byte
	out := rows[:0]
	for _, r := range rows {
		key = key[:0]
		for i := range st.items {
			key = append(key, r[st.items[i].slot].Key()...)
			key = append(key, '|')
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, r)
		}
	}
	return out
}

func (st *cProjection) orderBy(ctx *eval.Ctx, rows []frame) error {
	n := len(rows)
	if n == 0 {
		return nil
	}
	ns := len(st.sorts)
	keys := make([]value.Value, n*ns)
	for i, r := range rows {
		ctx.Frame = r
		for j := range st.sorts {
			v, err := st.sorts[j].key(ctx)
			if err != nil {
				return err
			}
			keys[i*ns+j] = v
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ka, kb := keys[perm[a]*ns:], keys[perm[b]*ns:]
		for j := range st.sorts {
			c := value.OrderCompare(ka[j], kb[j])
			if c != 0 {
				if st.sorts[j].desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	tmp := make([]frame, n)
	copy(tmp, rows)
	for i, p := range perm {
		rows[i] = tmp[p]
	}
	return nil
}

func (st *cProjection) skipLimit(e *Engine, ctx *eval.Ctx, rows []frame) ([]frame, error) {
	if st.skip == nil && st.limit == nil {
		return rows, nil
	}
	// SKIP/LIMIT evaluate in an empty environment (variable references
	// error), but comprehension binders still need their temp slots.
	ctx.Frame = e.pstate.ensure(st.width)
	if st.skip != nil {
		n, err := nonNegIntC(ctx, st.skip, "SKIP")
		if err != nil {
			return nil, err
		}
		if n >= int64(len(rows)) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if st.limit != nil {
		n, err := nonNegIntC(ctx, st.limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(rows)) {
			rows = rows[:n]
		}
	}
	return rows, nil
}

func nonNegIntC(ctx *eval.Ctx, fn eval.Compiled, what string) (int64, error) {
	v, err := fn(ctx)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt || v.AsInt() < 0 {
		return 0, fmt.Errorf("%s requires a non-negative integer, got %v", what, v)
	}
	return v.AsInt(), nil
}

func (st *cProjection) buildResult(rows []frame) *Result {
	res := &Result{Columns: append([]string(nil), st.cols...)}
	if len(rows) == 0 {
		return res
	}
	nc := len(st.items)
	flat := make([]value.Value, len(rows)*nc)
	res.Rows = make([][]value.Value, len(rows))
	for i, r := range rows {
		vals := flat[i*nc : (i+1)*nc : (i+1)*nc]
		for j := range st.items {
			vals[j] = r[st.items[j].slot]
		}
		res.Rows[i] = vals
	}
	return res
}

// aggGroupRT is one group's runtime state.
type aggGroupRT struct {
	keys     []value.Value
	first    frame
	accs     []functions.Aggregator
	distinct []map[string]bool
}

// aggregate mirrors Engine.aggregate over frames: grouping keys are the
// non-aggregating items (evaluated once per row, stored — re-evaluating
// at finalization would double any rand() draws), accumulators run per
// group, and finalization publishes each call's result in its slot
// before evaluating the aggregating items against the group's first row.
func (st *cProjection) aggregate(e *Engine, ctx *eval.Ctx, in []frame) ([]frame, error) {
	groups := make(map[string]*aggGroupRT)
	var order []*aggGroupRT
	var keyBuf []byte
	keyScratch := make([]value.Value, len(st.groupItems))
	for _, r := range in {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		ctx.Frame = r
		keyBuf = keyBuf[:0]
		for gi, idx := range st.groupItems {
			v, err := st.items[idx].fn(ctx)
			if err != nil {
				return nil, err
			}
			keyScratch[gi] = v
			keyBuf = append(keyBuf, v.Key()...)
			keyBuf = append(keyBuf, '|')
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &aggGroupRT{first: r, keys: append([]value.Value(nil), keyScratch...)}
			g.accs = make([]functions.Aggregator, len(st.calls))
			g.distinct = make([]map[string]bool, len(st.calls))
			for ci := range st.calls {
				c := &st.calls[ci]
				if c.star {
					g.accs[ci] = functions.CountStar()
					continue
				}
				var param value.Value
				if c.spec.HasParam {
					if c.argCount != 2 {
						return nil, fmt.Errorf("%s requires two arguments", c.spec.Name)
					}
					p, err := c.param(ctx)
					if err != nil {
						return nil, err
					}
					param = p
				} else if c.argCount != 1 {
					return nil, fmt.Errorf("%s requires one argument", c.spec.Name)
				}
				g.accs[ci] = c.spec.New(param)
				if c.distinct {
					g.distinct[ci] = map[string]bool{}
				}
			}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for ci := range st.calls {
			c := &st.calls[ci]
			var v value.Value
			if c.star {
				v = value.True // counted regardless
			} else {
				var err error
				v, err = c.arg(ctx)
				if err != nil {
					return nil, err
				}
			}
			if g.distinct[ci] != nil {
				k := v.Key()
				if g.distinct[ci][k] {
					continue
				}
				g.distinct[ci][k] = true
			}
			if err := g.accs[ci].Add(v); err != nil {
				return nil, err
			}
		}
	}
	out := make([]frame, 0, len(order))
	for _, g := range order {
		for ci := range st.calls {
			g.first[st.calls[ci].slot] = g.accs[ci].Result()
		}
		for gi, idx := range st.groupItems {
			g.first[st.items[idx].slot] = g.keys[gi]
		}
		ctx.Frame = g.first
		for i := range st.items {
			it := &st.items[i]
			if !it.agg {
				continue
			}
			v, err := it.fn(ctx)
			if err != nil {
				return nil, err
			}
			g.first[it.slot] = v
		}
		out = append(out, g.first)
	}
	return out, nil
}
