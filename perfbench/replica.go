package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"gqs/internal/baselines"
	"gqs/internal/core"
	"gqs/internal/cypher/parser"
	"gqs/internal/engine"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// The traced replicas redo a unit of work call by call through the
// layers' public functions, in the order the runner and the baseline
// campaign make those calls, and record one span per call. Their
// outcome must equal the untraced unit's, which shows that the trace
// measured the same work.

// counters are the work counts the replicas record at the span
// boundaries.
type counters struct {
	graphs, nodes, rels   int
	resets                int
	execs, execErrors     int // connector executions, prepared or text
	rows                  int
	synths, synthFailures int
	steps, queryBytes     int
	prepared, planned     int
}

// replicateGQS replays the campaign sequentially: each target in turn,
// each shard with its core.ShardSeed stream on one connector reseeded
// the way gdb.NewFactory seeds a shard's connector.
func replicateGQS(s *gqsSpec, seed int64, rec *recorder, c *counters) (*outcome, error) {
	cfg := s.runnerConfig(seed)
	per := casesPerIteration(cfg)
	out := &outcome{}
	iter := 0
	for _, name := range s.targets {
		conn, err := gdb.NewFactory(gdb.FactoryConfig{GDB: name, Seed: seed})(0)
		if err != nil {
			return nil, err
		}
		seeder, ok := conn.(core.ShardSeeder)
		if !ok {
			return nil, fmt.Errorf("%s: connector cannot be reseeded per shard", name)
		}
		l := leg{Name: name}
		found := foundSet{}
		for shard := 0; shard < s.iterations; shard++ {
			seeder.SeedShard(shard)
			rec.at(iter, -1)
			if err := replicateIteration(conn, cfg, core.ShardSeed(seed, shard), iter*per, rec, c,
				func(seq int, v core.Verdict, bug *faults.Bug) {
					tally(&l, v)
					if v == core.VerdictLogicBug || v == core.VerdictErrorBug {
						if bug == nil {
							l.Unattributed++
						} else {
							found.add(bug.ID, shard*per+seq-1)
						}
					}
				}); err != nil {
				conn.Close()
				return nil, fmt.Errorf("%s shard %d: %w", name, shard, err)
			}
			iter++
		}
		conn.Close()
		l.Found = found.sorted()
		out.Legs = append(out.Legs, l)
	}
	return out, nil
}

func tally(l *leg, v core.Verdict) {
	switch v {
	case core.VerdictPass:
		l.Pass++
	case core.VerdictLogicBug:
		l.Logic++
	case core.VerdictErrorBug:
		l.Error++
	default:
		l.Skip++
	}
}

// replicateIteration is one runner iteration: generate and seal a graph,
// load it, then for each ground truth synthesize, prepare, execute and
// compare. report sees each case's sequence number, verdict and the
// fault the connector attributes it to.
func replicateIteration(conn gdb.Connector, cfg core.RunnerConfig, shardSeed int64, case0 int,
	rec *recorder, c *counters, report func(seq int, v core.Verdict, bug *faults.Bug)) error {
	r := rand.New(rand.NewSource(shardSeed))
	sp := rec.begin(spanGenerate)
	g, schema := graph.Generate(r, cfg.Graph)
	rec.end(sp)
	c.graphs++
	c.nodes += g.NumNodes()
	c.rels += g.NumRels()
	sp = rec.begin(spanSeal)
	snap := g.Seal()
	rec.end(sp)
	reset := func() error {
		sp := rec.begin(spanReset)
		err := conn.ResetSnapshot(snap, schema)
		rec.end(sp)
		c.resets++
		return err
	}
	if err := reset(); err != nil {
		return err
	}

	synthCfg := cfg.Synth
	synthCfg.RelUniqueness = conn.RelUniqueness()
	synthCfg.ProvidesDBLabels = conn.ProvidesDBLabels()
	syn := core.NewSynthesizer(r, g, schema, synthCfg)
	seq := 0
	for q := 0; q < cfg.QueriesPerGraph; q++ {
		rec.at(rec.iter, -1)
		sp := rec.begin(spanGroundTruth)
		gt := core.SelectGroundTruth(r, g, cfg.Plan().MaxResultSet)
		rec.end(sp)
		for k := 0; k < cfg.QueriesPerGT; k++ {
			seq++
			rec.at(rec.iter, case0+seq-1)
			v, recover := replicateCase(conn, syn, gt, rec, c)
			var bug *faults.Bug
			if v == core.VerdictLogicBug || v == core.VerdictErrorBug {
				bug = conn.TriggeredBug()
			}
			report(seq, v, bug)
			// Like the runner, restart only after the attribution is read.
			if recover {
				if err := reset(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// replicateCase is the runner's runOne without the watchdog goroutine:
// the same calls and the same verdict rules. recover reports a crash or
// hang that makes the runner restart the instance.
func replicateCase(conn gdb.Connector, syn *core.Synthesizer, gt *core.GroundTruth,
	rec *recorder, c *counters) (v core.Verdict, recover bool) {
	sp := rec.begin(spanSynthesize)
	sq, err := syn.Synthesize(gt)
	rec.end(sp)
	c.synths++
	if err != nil {
		c.synthFailures++
		return core.VerdictSkip, false
	}
	c.steps += sq.Steps
	c.queryBytes += len(sq.Text)

	sp = rec.begin(spanPrepare)
	pq := engine.PrepareAST(sq.Query, sq.Text)
	rec.end(sp)
	c.prepared++
	if pq.Planned() {
		c.planned++
	}

	sp = rec.begin(spanExec)
	res, err := conn.ExecutePrepared(context.Background(), pq)
	rec.end(sp)
	c.execs++
	if err != nil {
		c.execErrors++
		return classify(err)
	}
	c.rows += res.Len()
	sp = rec.begin(spanCompare)
	eq := sq.Expected.Equal(res)
	rec.end(sp)
	if eq {
		return core.VerdictPass, false
	}
	return core.VerdictLogicBug, false
}

// classify applies the runner's rules to an execution error: a canceled
// query is a timeout, an error-bug only when a fault caused it; resource
// limits and transient errors are skips; anything else is an error-bug,
// and a crash or hang fault restarts the instance.
func classify(err error) (core.Verdict, bool) {
	var bugErr interface{ BugID() string }
	attributed := errors.As(err, &bugErr)
	if errors.Is(err, engine.ErrCanceled) {
		if attributed {
			return core.VerdictErrorBug, true
		}
		return core.VerdictSkip, false
	}
	var lim *engine.ErrResourceLimit
	var tr interface{ Transient() bool }
	if errors.As(err, &lim) || (errors.As(err, &tr) && tr.Transient()) {
		return core.VerdictSkip, false
	}
	var kind interface{ FaultKind() string }
	if errors.As(err, &kind) {
		k := kind.FaultKind()
		return core.VerdictErrorBug, k == "crash" || k == "hang"
	}
	return core.VerdictErrorBug, false
}

// tracedTarget is the core.Target handed to a baseline tester: it times
// every call, records the faults the executed queries trigger (as the
// campaign's recording target does), and times a parse of each executed
// text outside the execution span.
type tracedTarget struct {
	sim  *gdb.Sim
	rec  *recorder
	c    *counters
	bugs map[string]*faults.Bug
}

func newTracedTarget(sim *gdb.Sim, rec *recorder, c *counters) *tracedTarget {
	return &tracedTarget{sim: sim, rec: rec, c: c, bugs: map[string]*faults.Bug{}}
}

func (t *tracedTarget) Name() string           { return t.sim.Name() }
func (t *tracedTarget) RelUniqueness() bool    { return t.sim.RelUniqueness() }
func (t *tracedTarget) ProvidesDBLabels() bool { return t.sim.ProvidesDBLabels() }

func (t *tracedTarget) Reset(g *graph.Graph, schema *graph.Schema) error {
	sp := t.rec.begin(spanReset)
	err := t.sim.Reset(g, schema)
	t.rec.end(sp)
	t.c.resets++
	return err
}

func (t *tracedTarget) Execute(q string) (*engine.Result, error) {
	return t.ExecuteCtx(context.Background(), q)
}

func (t *tracedTarget) ExecuteCtx(ctx context.Context, q string) (*engine.Result, error) {
	sp := t.rec.begin(spanTextExec)
	res, err := t.sim.ExecuteCtx(ctx, q)
	t.rec.end(sp)
	t.c.execs++
	if err != nil {
		t.c.execErrors++
	} else {
		t.c.rows += res.Len()
	}
	if b := t.sim.TriggeredBug(); b != nil {
		t.bugs[b.ID] = b
	}
	sp = t.rec.begin(spanParse)
	parser.Parse(q) //nolint:errcheck // timed only; the execution above already reported any parse error
	t.rec.end(sp)
	return res, err
}

// drain returns the faults triggered since the last drain, by ID.
func (t *tracedTarget) drain() []*faults.Bug {
	out := make([]*faults.Bug, 0, len(t.bugs))
	for _, b := range t.bugs {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	clear(t.bugs)
	return out
}

// replicateBaselines replays every tester × GDB campaign the way
// experiments.RunBaselineCampaign runs it, with the tester's target and
// GDsmith's peer wrapped in tracedTarget.
func replicateBaselines(rounds int, seed int64, rec *recorder, c *counters) (*outcome, error) {
	out := &outcome{}
	iter, round0 := 0, 0
	for _, t := range baselines.All() {
		for _, gname := range baselineGDBs {
			if !t.Supports(gname) {
				continue
			}
			l, err := replicateBaselineCampaign(t, gname, rounds, seed, rec, c, &iter, round0)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", t.Name(), gname, err)
			}
			out.Legs = append(out.Legs, l)
			round0 += rounds
		}
	}
	return out, nil
}

func replicateBaselineCampaign(t baselines.Tester, gname string, rounds int, seed int64,
	rec *recorder, c *counters, iter *int, round0 int) (leg, error) {
	sim, err := gdb.ByName(gname)
	if err != nil {
		return leg{}, err
	}
	r := rand.New(rand.NewSource(seed))
	target := newTracedTarget(sim, rec, c)
	var peer *tracedTarget
	if gds, ok := t.(*baselines.GDsmith); ok {
		peerName := "memgraph"
		if gname == "memgraph" {
			peerName = "falkordb"
		}
		peerSim, err := gdb.ByName(peerName)
		if err != nil {
			return leg{}, err
		}
		peer = newTracedTarget(peerSim, rec, c)
		gds.Peers = []core.Target{peer}
		defer func() { gds.Peers = nil }()
	}

	l := leg{Name: t.Name() + "/" + gname, Rounds: rounds}
	found := foundSet{}
	var g *graph.Graph
	var schema *graph.Schema
	for round := 0; round < rounds; round++ {
		if round%baselineGraphEvery == 0 {
			rec.at(*iter, -1)
			*iter++
			sp := rec.begin(spanGenerate)
			g, schema = graph.Generate(r, baselineGraph)
			rec.end(sp)
			c.graphs++
			c.nodes += g.NumNodes()
			c.rels += g.NumRels()
			if err := target.Reset(g, schema); err != nil {
				return leg{}, fmt.Errorf("reset %s: %w", target.Name(), err)
			}
			if peer != nil {
				if err := peer.Reset(g, schema); err != nil {
					return leg{}, fmt.Errorf("reset peer %s: %w", peer.Name(), err)
				}
			}
		}
		rec.at(*iter-1, round0+round)
		sp := rec.begin(spanOracle)
		rep := t.Test(r, target, g, schema)
		rec.end(sp)
		triggered := target.drain()
		if peer != nil {
			peer.drain()
		}
		if !rep.Violated && !hasBugError(rep.Err) {
			continue
		}
		own := 0
		for _, b := range triggered {
			if b.GDB == gname {
				own++
				found.add(b.ID, round)
			}
		}
		if own == 0 {
			l.FalsePositives++
		}
	}
	l.Found = found.sorted()
	return l, nil
}

// hasBugError reports whether the error's Unwrap chain carries fault
// attribution, following the same single-error chain the baseline
// campaign walks.
func hasBugError(err error) bool {
	for err != nil {
		if _, ok := err.(interface{ BugID() string }); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
