// Command gqs is the GQS testing tool: it fuzzes a (simulated) graph
// database with ground-truth-synthesized Cypher queries and reports every
// discrepancy, reproducing the workflow of Figure 3 of the paper.
//
// Usage:
//
//	gqs -gdb falkordb -iterations 50 -seed 7
//	gqs -gdb all -iterations 30 -v
//	gqs -gdb memgraph -live -flaky 0.1 -timeout 5s -retries 3
//	gqs -gdb all -checkpoint run.journal -checkpoint-every 5   # durable
//	gqs -gdb all -checkpoint run.journal -resume               # after a kill
//
// With -checkpoint the campaign journals completed work units to a
// crash-safe file; SIGINT/SIGTERM drain in-flight work, write a final
// checkpoint, and exit 0, and -resume skips everything already
// completed — to the byte-identical results an uninterrupted run would
// have produced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gqs/internal/core"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// options carries the flag values into each per-GDB run.
type options struct {
	seed       int64
	iterations int
	maxNodes   int
	maxRels    int
	maxSteps   int
	resultSet  int
	graphScale int
	verbose    bool
	reportDir  string
	timeout    time.Duration
	retries    int
	flaky      float64
	live       bool
	noPlan     bool
	workers    int
	batch      int
	ckEvery    int
}

// validate rejects option values the campaign cannot run with. It
// checks only the numeric flags whose bad values would otherwise panic
// or silently do nothing useful.
func validate(o options) error {
	switch {
	case o.iterations < 0:
		return fmt.Errorf("-iterations must be >= 0, got %d", o.iterations)
	case o.workers < 1:
		return fmt.Errorf("-workers must be >= 1, got %d", o.workers)
	case o.batch < 0:
		return fmt.Errorf("-batch must be >= 0 (0 = automatic), got %d", o.batch)
	case o.maxNodes < 0:
		return fmt.Errorf("-max-nodes must be >= 0 (0 = default), got %d", o.maxNodes)
	case o.maxRels < 0:
		return fmt.Errorf("-max-rels must be >= 0 (0 = default), got %d", o.maxRels)
	case o.maxSteps < 0:
		return fmt.Errorf("-max-steps must be >= 0 (0 = default), got %d", o.maxSteps)
	case o.resultSet < 0:
		return fmt.Errorf("-max-result-set must be >= 0 (0 = default), got %d", o.resultSet)
	case o.graphScale < 0:
		return fmt.Errorf("-graph-scale must be >= 0 (0 = small-graph generator), got %d", o.graphScale)
	case o.ckEvery < 1:
		return fmt.Errorf("-checkpoint-every must be >= 1, got %d", o.ckEvery)
	case math.IsNaN(o.flaky) || o.flaky < 0 || o.flaky > 1:
		return fmt.Errorf("-flaky must be in [0, 1], got %g", o.flaky)
	}
	return nil
}

// resolvedBatch is the effective work-unit size: -batch when given, else
// core.AutoBatch. A pure function of the options — it feeds the
// checkpoint fingerprint, which must not depend on the machine.
func (o options) resolvedBatch() int {
	if o.batch > 0 {
		return o.batch
	}
	return core.AutoBatch(o.iterations, o.workers)
}

func main() {
	var (
		gdbName    = flag.String("gdb", "all", "GDB under test: neo4j, memgraph, kuzu, falkordb, reference, or all")
		seed       = flag.Int64("seed", 1, "random seed (campaigns are deterministic per seed)")
		iterations = flag.Int("iterations", 30, "workflow iterations (one generated graph each)")
		maxNodes   = flag.Int("max-nodes", 13, "maximum nodes per generated graph (0 = default)")
		maxRels    = flag.Int("max-rels", 60, "maximum relationships per generated graph (0 = default)")
		maxSteps   = flag.Int("max-steps", 9, "maximum synthesis steps per query (0 = default)")
		resultSet  = flag.Int("max-result-set", 6, "maximum expected-result-set size (0 = default)")
		graphScale = flag.Int("graph-scale", 0, "bulk-generate power-law graphs of exactly this many nodes (0 = the paper's small-graph generator); large graphs pair well with low -iterations")
		verbose    = flag.Bool("v", false, "print every failing query")
		reportDir  = flag.String("reports", "", "directory to write reproducible bug reports into (one .md per distinct bug)")
		timeout    = flag.Duration("timeout", 20*time.Second, "per-query wall-clock deadline (negative disables the watchdog)")
		retries    = flag.Int("retries", 2, "retries for transient connector errors (negative disables)")
		flaky      = flag.Float64("flaky", 0, "inject transient connector errors at this rate (0..1) to exercise the retry machinery")
		live       = flag.Bool("live", false, "manifest injected faults live: hangs block until the deadline, crashes panic in the connector")
		noPlan     = flag.Bool("no-plan", false, "execute prepared queries on the interpreter instead of compiled plans (differential debugging; the bug set is identical either way)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size (>= 1); the reported bug set is identical for every value at the same seed")
		batchSize  = flag.Int("batch", 0, "iterations per work unit (0 = automatic, ~4 units per worker); the reported bug set is identical for every value")
		checkpoint = flag.String("checkpoint", "", "journal completed work units to this file for crash-safe resume")
		ckEvery    = flag.Int("checkpoint-every", 10, "flush a checkpoint snapshot every N completed work units")
		resume     = flag.Bool("resume", false, "resume the campaign recorded in -checkpoint (refused if the configuration changed)")
	)
	flag.Parse()
	opts := options{
		seed: *seed, iterations: *iterations,
		maxNodes: *maxNodes, maxRels: *maxRels,
		maxSteps: *maxSteps, resultSet: *resultSet,
		graphScale: *graphScale,
		verbose:    *verbose, reportDir: *reportDir,
		timeout: *timeout, retries: *retries,
		flaky: *flaky, live: *live, noPlan: *noPlan,
		workers: *workers, batch: *batchSize, ckEvery: *ckEvery,
	}
	if err := validate(opts); err != nil {
		fmt.Fprintf(os.Stderr, "gqs: %v\n", err)
		os.Exit(2)
	}
	if *reportDir != "" {
		if err := os.MkdirAll(*reportDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "gqs: %v\n", err)
			os.Exit(1)
		}
	}

	names := []string{*gdbName}
	if *gdbName == "all" {
		names = []string{"neo4j", "memgraph", "kuzu", "falkordb"}
	}

	// SIGINT/SIGTERM cancel the campaign context: the executors drain
	// in-flight work and stop between units, the final checkpoint below
	// flushes, and a second signal kills outright (stop() restores the
	// default handlers once we're past the graceful window).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ck *core.Checkpointer
	if *checkpoint != "" {
		var err error
		ck, err = core.OpenCheckpoint(core.CheckpointConfig{
			Path: *checkpoint, Every: *ckEvery, Resume: *resume,
		}, fingerprint(names, opts))
		if err != nil {
			fmt.Fprintf(os.Stderr, "gqs: %v\n", err)
			os.Exit(1)
		}
		if n := ck.Stats().ResumedUnits; n > 0 {
			fmt.Printf("resuming from %s: %d completed units restored\n", *checkpoint, n)
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "gqs: -resume requires -checkpoint")
		os.Exit(1)
	}

	exit := 0
	for _, name := range names {
		if ctx.Err() != nil {
			break
		}
		if err := testGDB(ctx, name, opts, ck); err != nil {
			fmt.Fprintf(os.Stderr, "gqs: %s: %v\n", name, err)
			exit = 1
		}
	}
	if ck != nil {
		if err := ck.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "gqs: checkpoint journal degraded (campaign results unaffected): %v\n", err)
			exit = 1
		}
		cs := ck.Stats()
		fmt.Printf("checkpoint: %d snapshots journaled (%d bytes) to %s\n", cs.Written, cs.Bytes, *checkpoint)
		ck.Close()
	}
	if ctx.Err() != nil {
		stop()
		if ck != nil {
			fmt.Printf("interrupted: progress checkpointed; rerun with -resume -checkpoint %s to continue\n", *checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "gqs: interrupted")
			exit = 130
		}
	}
	os.Exit(exit)
}

// fingerprint renders the campaign identity the checkpoint journal is
// bound to; see core.CampaignFingerprint. The output options (-v,
// -reports) are deliberately excluded — they do not affect the
// deterministic stream. -no-plan is excluded too: compiled plans and the
// interpreter are behaviour-identical by contract (the plandiff gate
// enforces it), so a campaign checkpointed under one may resume under
// the other.
func fingerprint(names []string, o options) string {
	targets := strings.Join(names, ",")
	if o.live {
		targets += " live"
	}
	if o.flaky > 0 {
		targets += fmt.Sprintf(" flaky=%g", o.flaky)
	}
	return core.CampaignFingerprint("sharded", targets, faults.CatalogFingerprint(),
		o.workers, o.resolvedBatch(), o.iterations, runnerConfig(o))
}

// runnerConfig translates the flags into the runner configuration.
func runnerConfig(o options) core.RunnerConfig {
	cfg := core.DefaultRunnerConfig()
	cfg.Seed = o.seed
	cfg.Graph = graph.GenConfig{MaxNodes: o.maxNodes, MaxRels: o.maxRels, Scale: o.graphScale}
	cfg.Synth.MaxSteps = o.maxSteps
	cfg.Synth.Plan.MaxResultSet = o.resultSet
	cfg.Robust.Timeout = o.timeout
	cfg.Robust.Retries = o.retries
	return cfg
}

// cmdDetection is one logic- or error-bug detection, prerendered so the
// checkpoint journal can replay a restored unit's output (and report
// file) exactly as the original run printed it.
type cmdDetection struct {
	Bug     string `json:"bug,omitempty"` // catalog ID; "" = unattributed
	Desc    string `json:"desc,omitempty"`
	Verdict string `json:"verdict"`
	Seq     int    `json:"seq"`
	Steps   int    `json:"steps"`
	Query   string `json:"query,omitempty"`
	Detail  string `json:"detail,omitempty"` // expected/actual or error lines
	Report  string `json:"report,omitempty"` // reproducible bug report (md)
}

// captureDetection renders a failing test case into its durable form;
// ok is false for passes and skips.
func captureDetection(name string, target core.Target, tc *core.TestCase, reportDir string) (cmdDetection, bool) {
	if tc.Verdict != core.VerdictLogicBug && tc.Verdict != core.VerdictErrorBug {
		return cmdDetection{}, false
	}
	d := cmdDetection{Verdict: tc.Verdict.String(), Seq: tc.Seq, Steps: tc.Steps, Query: tc.Query}
	if tb, ok := target.(interface{ TriggeredBug() *faults.Bug }); ok {
		if b := tb.TriggeredBug(); b != nil {
			d.Bug, d.Desc = b.ID, b.Description
			if reportDir != "" {
				d.Report = tc.Report(name)
			}
		}
	}
	if tc.Verdict == core.VerdictLogicBug {
		d.Detail = fmt.Sprintf("  expected: %v\n  actual:   %v", tc.Expected.Canonical(), tc.Actual.Canonical())
	} else {
		d.Detail = fmt.Sprintf("  error: %v", tc.Err)
	}
	return d, true
}

// emitDetection prints one detection (live or restored) and writes its
// report file on first sight of the bug.
func emitDetection(name string, shard int, d cmdDetection, o options, found map[string]bool) {
	tag := "UNATTRIBUTED"
	fresh := true
	if d.Bug != "" {
		tag = d.Bug
		fresh = !found[tag]
		found[tag] = true
	}
	if fresh && o.reportDir != "" && d.Bug != "" && d.Report != "" {
		path := o.reportDir + "/" + name + "-" + d.Bug + ".md"
		if werr := os.WriteFile(path, []byte(d.Report), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "gqs: write report: %v\n", werr)
		}
	}
	if !fresh && !o.verbose {
		return
	}
	fmt.Printf("[%s] %s (shard %d, query #%d, %d steps)\n", d.Verdict, tag, shard, d.Seq, d.Steps)
	if d.Desc != "" {
		fmt.Printf("  %s\n", d.Desc)
	}
	if o.verbose {
		fmt.Printf("  query: %s\n", d.Query)
		fmt.Printf("%s\n", d.Detail)
	}
}

// encodeDetectionUnits / decodeDetectionUnits are the work-unit payload
// codec: one detection list per logical shard in the unit's range.
// decode always returns exactly count lists (corrupt payload ⇒ empty).
func encodeDetectionUnits(units [][]cmdDetection) json.RawMessage {
	p, err := json.Marshal(units)
	if err != nil {
		return nil
	}
	return p
}

func decodeDetectionUnits(data json.RawMessage, count int) [][]cmdDetection {
	out := make([][]cmdDetection, count)
	var units [][]cmdDetection
	if len(data) > 0 {
		json.Unmarshal(data, &units) //nolint:errcheck // corrupt payload ⇒ no replayed output
	}
	copy(out, units)
	return out
}

// testGDB tests one GDB on the sharded executor: iterations fan out
// across a worker pool, detections are buffered per shard, and the
// output is printed in canonical shard order — so it is identical for
// every worker count at the same seed, and across kill/resume
// boundaries.
func testGDB(ctx context.Context, name string, o options, ck *core.Checkpointer) error {
	if _, err := gdb.ByName(name); err != nil {
		return err // reject unknown names before spinning up a pool
	}
	connect := gdb.NewFactory(gdb.FactoryConfig{
		GDB: name, Live: o.live, FlakyRate: o.flaky, Seed: o.seed, NoPlan: o.noPlan,
	})
	pcfg := core.ParallelConfig{
		Workers:    o.workers,
		Iterations: o.iterations,
		Batch:      o.resolvedBatch(),
		Runner:     runnerConfig(o),
	}
	fmt.Printf("=== testing %s (seed %d, %d iterations, %d workers, batch %d) ===\n",
		name, o.seed, o.iterations, o.workers, pcfg.Batch)

	// Detections are buffered per shard (the observer runs concurrently
	// across shards, sequentially within one — disjoint slots need no
	// lock) and rendered after the pool drains, in shard order. The
	// checkpoint hooks use the same slots at unit granularity: Payload
	// seals a finished unit's range of buffers into its journal record,
	// Restore refills a skipped unit's slots from the journal.
	logs := make([][]cmdDetection, o.iterations)
	meter := metrics.NewMeter()
	ckBefore := ck.Stats().Written
	hooks := core.DurableHooks{
		Payload: func(_ string, start, count int) json.RawMessage {
			return encodeDetectionUnits(logs[start : start+count])
		},
		Restore: func(u core.UnitRecord) {
			count := u.UnitCount()
			if u.Shard >= 0 && u.Shard+count <= len(logs) {
				copy(logs[u.Shard:u.Shard+count], decodeDetectionUnits(u.Payload, count))
			}
		},
	}
	ps := core.RunCheckpointedParallel(ctx, pcfg, name,
		func(shard int) (core.Target, error) { return connect(shard) },
		func(shard int, target core.Target, tc *core.TestCase) {
			meter.AddQuery()
			if d, ok := captureDetection(name, target, tc, o.reportDir); ok {
				logs[shard] = append(logs[shard], d)
			}
		}, ck, hooks)
	// Only iterations that actually ran count toward live throughput;
	// restored units were another run's work.
	meter.AddIterations(ps.Ran)
	meter.AddCheckpoints(ck.Stats().Written - ckBefore)

	found := map[string]bool{}
	for shard, dets := range logs {
		for _, d := range dets {
			emitDetection(name, shard, d, o, found)
		}
	}
	for range found {
		meter.AddBug()
	}
	stats := ps.Stats
	printSummary(name, stats, len(found))
	// The busy/wall ratio is the parallelism actually achieved: per-shard
	// busy time sums in stats.Elapsed while Wall is the pool's clock.
	parallelism := 0.0
	if ps.Wall > 0 {
		parallelism = stats.Elapsed.Seconds() / ps.Wall.Seconds()
	}
	fmt.Printf("%s: throughput: %s; %d workers, %.2fx parallelism\n",
		name, meter.Snapshot(), ps.Workers, parallelism)
	return nil
}

// printSummary renders the per-GDB closing lines.
func printSummary(name string, stats core.Stats, distinct int) {
	fmt.Printf("%s: %d queries, %d passed, %d logic-bug reports, %d error reports, %d skipped; %d distinct bugs; %.1fs\n",
		name, stats.Queries, stats.Passes, stats.LogicBugs, stats.ErrorBugs, stats.Skips,
		distinct, stats.Elapsed.Seconds())
	rb := stats.Robust
	// The checkpoint counters get their own line; blank them before the
	// zero-comparison so a clean durable run doesn't print an all-zero
	// resilience line.
	ckWritten, ckBytes, ckFF := rb.CheckpointsWritten, rb.CheckpointBytes, rb.ResumeFastForwarded
	rb.CheckpointsWritten, rb.CheckpointBytes, rb.LastCheckpointAge, rb.ResumeFastForwarded = 0, 0, 0, 0
	if rb != (core.RobustnessStats{}) {
		fmt.Printf("%s: resilience: %d timeouts, %d retries (%d transient, %d give-ups), %d panics recovered, %d restarts (%d failed), %d breaker trips, %d abandoned graphs, %v downtime\n",
			name, rb.Timeouts, rb.Retries, rb.TransientErrors, rb.TransientGiveUps,
			rb.PanicsRecovered, rb.Restarts, rb.RestartFailures, rb.BreakerTrips,
			rb.AbandonedGraphs, rb.Downtime.Round(time.Millisecond))
	}
	if ckWritten > 0 || ckFF > 0 {
		fmt.Printf("%s: checkpoint: %d snapshots (%d bytes), %d iterations restored on resume\n",
			name, ckWritten, ckBytes, ckFF)
	}
}
