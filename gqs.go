// Package gqs is the public API of this repository: a Go reproduction of
// "Testing Graph Databases with Synthesized Queries" (SIGMOD 2025).
//
// The package offers three entry points:
//
//   - An embeddable in-memory Cypher graph database: NewDB. It supports
//     the openCypher 9 data-retrieval clauses (MATCH, OPTIONAL MATCH,
//     UNWIND, WITH, RETURN, UNION, CALL and the WHERE/ORDER BY/SKIP/LIMIT
//     subclauses) plus the update clauses (CREATE, SET, MERGE, DELETE,
//     DETACH DELETE, REMOVE), 61 functions, and aggregation.
//
//   - The GQS tester: NewTester runs ground-truth-based logic-bug testing
//     against any Target — one of the bundled simulated GDBs (OpenSim) or
//     a user-provided connector.
//
//   - The experiment harness (internal/experiments, driven by the
//     cmd/gqs-bench command), which regenerates the paper's tables and
//     figures against the simulated GDBs.
//
// See README.md for a walkthrough and DESIGN.md for the architecture.
package gqs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// DB is an embeddable in-memory Cypher graph database.
type DB struct {
	eng *engine.Engine
}

// NewDB opens an empty in-memory database with reference Cypher
// semantics.
func NewDB() *DB {
	return &DB{eng: engine.NewReference()}
}

// Execute runs one Cypher query and returns its result.
func (db *DB) Execute(query string) (*Result, error) {
	return db.eng.Execute(query)
}

// MustExecute runs a query and panics on error; intended for examples and
// fixtures.
func (db *DB) MustExecute(query string) *Result {
	r, err := db.eng.Execute(query)
	if err != nil {
		panic(fmt.Sprintf("gqs: %v", err))
	}
	return r
}

// Result is a query result: named columns and rows of Cypher values.
type Result = engine.Result

// PreparedQuery is a query parsed and analyzed exactly once, executable
// any number of times — concurrently, on any number of databases or
// targets — without re-parsing. Its AST and feature analysis are
// immutable after Prepare; all per-execution state lives in the executor.
type PreparedQuery = engine.PreparedQuery

// Prepare parses and analyzes a query once for repeated execution; see
// DB.ExecutePrepared and PreparedTarget.
func Prepare(text string) (*PreparedQuery, error) { return engine.Prepare(text) }

// ExecutePrepared runs a prepared query, sharing its AST with any other
// in-flight executions of the same PreparedQuery on other databases.
// Queries covered by the plan compiler execute their compiled physical
// plan (slot frames, pushed-down predicates — see SetPlanExecution);
// everything else runs on the AST interpreter with identical behaviour.
func (db *DB) ExecutePrepared(pq *PreparedQuery) (*Result, error) {
	return db.eng.ExecutePrepared(context.Background(), pq)
}

// SetPlanExecution toggles compiled-plan execution of prepared queries
// (on by default). Plans and the interpreter are behaviour-identical by
// contract; turning plans off exists for differential debugging, like
// the gqs command's -no-plan flag.
func (db *DB) SetPlanExecution(enabled bool) {
	db.eng.SetPlanExecution(enabled)
}

// PreparedTarget is the optional prepared-execution extension of Target:
// connectors that implement it are handed each synthesized query parsed
// and analyzed once (one parse per oracle check instead of one per call),
// with transient-error retries reusing the same PreparedQuery. The
// bundled simulated GDBs implement it; text-only targets keep working
// unchanged.
type PreparedTarget = core.PreparedTarget

// SnapshotTarget is the optional copy-on-write restart extension of
// Target: connectors that implement it share one immutable sealed
// snapshot of each generated graph across every restart of an
// iteration, so restoring state between oracle checks is O(1) for
// read-only workloads and O(entries written) otherwise. Behaviour must
// be indistinguishable from Reset with the same graph; the bundled
// simulated GDBs implement it, and targets without it keep the
// deep-clone Reset path.
type SnapshotTarget = core.SnapshotTarget

// Snapshot is an immutable, shareable view of one graph state; see
// SnapshotTarget and DESIGN.md §9.
type Snapshot = graph.Snapshot

// Value is a Cypher runtime value.
type Value = value.Value

// Target is the connector interface the tester drives: any Cypher
// database exposing reset-and-execute semantics can be tested.
type Target = core.Target

// Stats summarizes a testing campaign.
type Stats = core.Stats

// RobustnessConfig bounds the tester's resilience layer: per-query
// timeouts, transient-error retries, restart backoff, and the per-target
// circuit breaker. The zero value selects defaults.
type RobustnessConfig = core.RobustnessConfig

// RobustnessStats counts what the resilience layer absorbed during a
// campaign (Stats.Robust).
type RobustnessStats = core.RobustnessStats

// TestCase is one synthesized query with its verdict.
type TestCase = core.TestCase

// Verdict values re-exported for switch statements on TestCase.Verdict.
const (
	VerdictPass     = core.VerdictPass
	VerdictLogicBug = core.VerdictLogicBug
	VerdictErrorBug = core.VerdictErrorBug
	VerdictSkip     = core.VerdictSkip
)

// OpenSim opens one of the bundled simulated GDBs: "neo4j", "memgraph",
// "kuzu", "falkordb" (each the reference engine plus that system's
// dialect quirks and injected-fault catalog), or "reference" (no faults).
func OpenSim(name string) (*gdb.Sim, error) { return gdb.ByName(name) }

// Tester runs the GQS workflow — generate graph, select ground truth,
// synthesize query, validate — against a target.
type Tester struct {
	runner  *core.Runner
	target  Target
	factory TargetFactory
	cfg     testerConfig
}

// testerConfig is the option-accumulation state behind TesterOption:
// the runner configuration plus tester-level knobs that have no home in
// core.RunnerConfig (the worker-pool size and the checkpoint journal).
type testerConfig struct {
	runner   core.RunnerConfig
	workers  int
	batch    int
	ckPath   string
	ckEvery  int
	ckResume bool
}

// resolvedBatch is the effective work-unit size (see WithBatch); 0
// keeps units at one iteration each.
func (c testerConfig) resolvedBatch() int {
	if c.batch > 0 {
		return c.batch
	}
	return 1
}

// TesterOption customizes a Tester.
type TesterOption func(*testerConfig)

// WithSeed fixes the random seed (campaigns are fully deterministic per
// seed).
func WithSeed(seed int64) TesterOption {
	return func(c *testerConfig) { c.runner.Seed = seed }
}

// WithGraphSize bounds the generated graphs.
func WithGraphSize(maxNodes, maxRels int) TesterOption {
	return func(c *testerConfig) {
		c.runner.Graph.MaxNodes = maxNodes
		c.runner.Graph.MaxRels = maxRels
	}
}

// WithMaxSteps bounds the synthesis steps per query (the paper uses up
// to 9).
func WithMaxSteps(steps int) TesterOption {
	return func(c *testerConfig) { c.runner.Synth.MaxSteps = steps }
}

// WithQueriesPerGraph sets how many ground truths are drawn per graph.
func WithQueriesPerGraph(n int) TesterOption {
	return func(c *testerConfig) { c.runner.QueriesPerGraph = n }
}

// WithTimeout sets the per-query wall-clock deadline. A query exceeding
// it is canceled: an error-bug when a fault hung the target, a skip
// otherwise. Negative disables the watchdog.
func WithTimeout(d time.Duration) TesterOption {
	return func(c *testerConfig) { c.runner.Robust.Timeout = d }
}

// WithRetries sets how many times a transient connector error (an error
// exposing `Transient() bool`) is retried before the query is skipped.
// Negative disables retries.
func WithRetries(n int) TesterOption {
	return func(c *testerConfig) { c.runner.Robust.Retries = n }
}

// WithRobustness replaces the whole resilience configuration: timeouts,
// retry and restart backoff, and the circuit-breaker threshold.
func WithRobustness(rc RobustnessConfig) TesterOption {
	return func(c *testerConfig) { c.runner.Robust = rc }
}

// WithWorkers sets the worker-pool size of a sharded tester
// (NewShardedTester); <= 0 selects GOMAXPROCS. The merged Stats are
// identical for every worker count at the same seed — only wall-clock
// time changes. Ignored by NewTester, whose single target cannot be
// driven concurrently: its RunContext always uses one worker.
func WithWorkers(n int) TesterOption {
	return func(c *testerConfig) { c.workers = n }
}

// WithBatch sets the work-unit size of a sharded tester: each unit a
// worker drains is n contiguous logical iterations, amortizing per-unit
// scheduling and checkpoint costs. The merged Stats are identical for
// every batch size at the same seed — batching changes scheduling, not
// results. <= 0 (the default) keeps one iteration per unit. Plain Run
// on a NewTester ignores it.
func WithBatch(n int) TesterOption {
	return func(c *testerConfig) { c.batch = n }
}

// WithCheckpoint journals completed work units (WithBatch contiguous
// iterations each, one by default) to a crash-safe append-only file,
// flushing a snapshot every `every` completed units (<= 0 means every
// unit). A RunContext canceled mid-campaign leaves the journal
// resumable; see WithResume. Only RunContext honors the journal — plain
// Run ignores it.
func WithCheckpoint(path string, every int) TesterOption {
	return func(c *testerConfig) { c.ckPath, c.ckEvery = path, every }
}

// WithResume makes RunContext resume the campaign recorded in the
// WithCheckpoint journal: completed units are skipped and their recorded
// stats fold into the returned Stats (their test cases are not
// re-reported). Every iteration draws from its own seed, derived from
// (WithSeed, iteration index), so the combined outcome is identical to
// an uninterrupted run. Resume is refused with ErrFingerprintMismatch if
// the tester configuration, iteration count, worker count or batch size
// changed since the journal was written.
func WithResume() TesterOption {
	return func(c *testerConfig) { c.ckResume = true }
}

// ErrFingerprintMismatch is returned by RunContext when WithResume finds
// a journal written under a different configuration.
var ErrFingerprintMismatch = core.ErrFingerprintMismatch

// TargetFactory builds one independent target per shard for a sharded
// tester; see core.TargetFactory for the isolation contract.
type TargetFactory = core.TargetFactory

// NewTester creates a tester for the target.
func NewTester(target Target, opts ...TesterOption) *Tester {
	cfg := testerConfig{runner: core.DefaultRunnerConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	return &Tester{runner: core.NewRunner(target, cfg.runner), target: target, cfg: cfg}
}

// NewShardedTester creates a tester that fans its iterations across a
// worker pool (WithWorkers, default GOMAXPROCS). Each of Run's n
// iterations becomes a logical shard with a seed derived from
// (WithSeed, shard index) and a fresh target from the factory, so the
// merged stats do not depend on the worker count.
func NewShardedTester(factory TargetFactory, opts ...TesterOption) *Tester {
	cfg := testerConfig{runner: core.DefaultRunnerConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	return &Tester{factory: factory, cfg: cfg}
}

// Run performs n full workflow iterations (one generated graph each),
// invoking report for every synthesized test case. On a sharded tester
// the iterations run across the worker pool and report is serialized
// (never called concurrently), but cases from different shards may
// interleave; use TestCase fields, not call order, to correlate.
func (t *Tester) Run(n int, report func(*TestCase)) (Stats, error) {
	if t.factory == nil {
		return t.runner.Run(n, report)
	}
	pcfg := core.ParallelConfig{
		Workers: t.cfg.workers, Iterations: n,
		Batch: t.cfg.resolvedBatch(), Runner: t.cfg.runner,
	}
	ps := core.RunParallel(pcfg, t.factory, serialized(report))
	return ps.Stats, nil
}

// serialized adapts a report callback to the executor's observer,
// serializing calls from concurrent shards; nil stays nil.
func serialized(report func(*TestCase)) func(int, core.Target, *core.TestCase) {
	if report == nil {
		return nil
	}
	var mu sync.Mutex
	return func(_ int, _ core.Target, tc *core.TestCase) {
		mu.Lock()
		defer mu.Unlock()
		report(tc)
	}
}

// RunContext is Run under a cancelable context and the WithCheckpoint /
// WithResume options. It always runs on the sharded executor: iteration
// i draws from a seed derived from (WithSeed, i), the determinism a
// resumable journal requires. So unlike Run — which on a NewTester
// continues the same runner state across calls — RunContext executes a
// self-contained campaign of n iterations. A NewTester's target runs
// every iteration on one worker and is left open. Cancellation stops
// between work units, flushes a final checkpoint, and returns the
// partial Stats with a nil error; resuming later completes the campaign
// as if it had never been interrupted.
func (t *Tester) RunContext(ctx context.Context, n int, report func(*TestCase)) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pcfg := core.ParallelConfig{
		Workers: t.cfg.workers, Iterations: n,
		Batch: t.cfg.resolvedBatch(), Runner: t.cfg.runner,
	}
	if t.factory == nil {
		pcfg.Workers = 1
	}
	var ck *core.Checkpointer
	if t.cfg.ckPath != "" {
		fp := core.CampaignFingerprint("sharded", "user-target", "", pcfg.Workers, pcfg.Batch, n, t.cfg.runner)
		var err error
		ck, err = core.OpenCheckpoint(core.CheckpointConfig{
			Path: t.cfg.ckPath, Every: t.cfg.ckEvery, Resume: t.cfg.ckResume,
		}, fp)
		if err != nil {
			return Stats{}, err
		}
		defer ck.Close()
	}
	var ps *core.ParallelStats
	if t.factory == nil {
		ps = core.RunCheckpointedOn(ctx, pcfg, "target", t.target, serialized(report), ck, core.DurableHooks{})
	} else {
		ps = core.RunCheckpointedParallel(ctx, pcfg, "target", t.factory, serialized(report), ck, core.DurableHooks{})
	}
	stats := ps.Stats
	if ck != nil {
		if err := ck.Flush(); err != nil {
			return stats, fmt.Errorf("gqs: checkpoint journal: %w", err)
		}
		ck.ApplyTo(&stats.Robust)
	}
	return stats, nil
}

// Synthesize builds a single ground-truth/query pair over a given graph,
// exposing the synthesizer directly for tooling.
func Synthesize(seed int64, maxNodes, maxRels int) (query string, expected *Result, err error) {
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: maxNodes, MaxRels: maxRels})
	syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
	gt := core.SelectGroundTruth(r, g, 6)
	sq, err := syn.Synthesize(gt)
	if err != nil {
		return "", nil, err
	}
	return sq.Text, sq.Expected, nil
}

// LoadExample loads the Figure 2 movie graph into a database; used by the
// quickstart example and tests.
func LoadExample(db *DB) {
	db.MustExecute(`CREATE
		(alice:USER {name: 'Alice'}),
		(bob:USER {name: 'Bob'}),
		(heat:MOVIE {name: 'Heat', year: 1995, genre: ['Drama', 'Crime']}),
		(up:MOVIE {name: 'Up', year: 2009, genre: ['Animation']}),
		(alice)-[:LIKE {rating: 10}]->(heat),
		(alice)-[:LIKE {rating: 7}]->(up),
		(bob)-[:LIKE {rating: 9}]->(up)`)
}
