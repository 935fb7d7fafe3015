package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"gqs/internal/baselines"
	"gqs/internal/core"
	"gqs/internal/experiments"
	"gqs/internal/faults"
	"gqs/internal/functions"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// workload is one named set of inputs. A GQS workload runs the sharded
// campaign executor the way cmd/gqs does; the baselines workload runs
// the Table 6 campaigns the way cmd/gqs-bench does.
type workload struct {
	name string
	// campaigns is how many whole campaigns one unit of work runs, back
	// to back, at the seeds campaignSeed derives from the workload seed.
	campaigns int
	gqs       *gqsSpec // nil for the baselines workload
	// rounds is the oracle rounds per tester × GDB campaign (baselines).
	rounds int
}

// gqsSpec fixes one GQS campaign: the cmd/gqs defaults except for the
// targets, the iteration count, the graph scale and the journal.
type gqsSpec struct {
	targets    []string
	iterations int
	scale      int  // graph.GenConfig.Scale; 0 = the paper's small graphs
	journal    bool // crash-safe checkpoint journal at the CLI's default interval
}

// baselineGDBs are the systems the Table 6 comparison covers.
var baselineGDBs = []string{"neo4j", "memgraph", "falkordb"}

// baselineGraph is the Table 6 generator setting.
var baselineGraph = graph.GenConfig{MaxNodes: 10, MaxRels: 30}

// baselineGraphEvery is how many oracle rounds share one graph in
// experiments.RunBaselineCampaign.
const baselineGraphEvery = 10

// checkpointEvery is cmd/gqs's -checkpoint-every default.
const checkpointEvery = 10

var workloads = []workload{
	{name: "paper-small", campaigns: 12, gqs: &gqsSpec{
		targets: []string{"neo4j", "memgraph", "kuzu", "falkordb"}, iterations: 100, journal: true,
	}},
	{name: "scale-10k", campaigns: 4, gqs: &gqsSpec{
		targets: []string{"reference"}, iterations: 16, scale: 10000,
	}},
	// The Table 6 comparison at 300 rounds per tester × GDB. It is not in
	// BENCHMARK.json: see README.md for why it is not steady enough.
	{name: "baselines", campaigns: 1, rounds: 300},
}

// campaignSeed is the seed of campaign k of a unit: the workload seed
// itself for the first, so that it is the campaign cmd/gqs runs with
// -seed, and a splitmix64 derivation for the rest.
func campaignSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return functions.DeriveSeed(seed, int64(k))
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// env is what every run of a workload shares.
type env struct {
	seed    int64 // the workload seed
	workers int
	// workDir holds the checkpoint journal while a unit runs.
	workDir string
}

// unitStats is untraced work: one campaign, or a unit of several.
type unitStats struct {
	out *outcome
	// first is the outcome of the unit's first campaign, the one the
	// traced run replays.
	first *outcome
	wall  time.Duration
	cpu   time.Duration
	// setups are the times from each campaign's start to its first
	// verdict (GQS only: the baseline campaign has no per-round hook).
	setups []time.Duration
	// rates and cpus are each campaign's cases per wall-clock second and
	// CPU microseconds per case.
	rates, cpus []float64
	// busy and capacity give the executor's busy share: summed shard time
	// over wall time × workers, across the GQS legs.
	busy, capacity time.Duration
	// opFailures counts iterations the executor could not run (factory or
	// restart failures); a healthy run has none.
	opFailures int
	journal    core.CheckpointStats
	iterations int // logical iterations over all legs
}

// runnerConfig is cmd/gqs's runnerConfig with the flag defaults.
func (s *gqsSpec) runnerConfig(seed int64) core.RunnerConfig {
	cfg := core.DefaultRunnerConfig()
	cfg.Seed = seed
	cfg.Graph = graph.GenConfig{MaxNodes: 13, MaxRels: 60, Scale: s.scale}
	cfg.Synth.MaxSteps = 9
	cfg.Synth.Plan.MaxResultSet = 6
	cfg.Robust.Timeout = 20 * time.Second
	cfg.Robust.Retries = 2
	return cfg
}

// batch is cmd/gqs's automatic work-unit size: about four units per
// worker, clamped to [1, 16].
func (s *gqsSpec) batch(workers int) int {
	return min(max(s.iterations/(workers*4), 1), 16)
}

// casesPerIteration is the number of test cases one iteration runs.
func casesPerIteration(cfg core.RunnerConfig) int {
	return cfg.QueriesPerGraph * cfg.QueriesPerGT
}

// detection is one logic or error report, in the shape cmd/gqs journals
// it with each completed work unit.
type detection struct {
	Bug     string `json:"bug,omitempty"` // catalog ID; "" = unattributed
	Desc    string `json:"desc,omitempty"`
	Verdict string `json:"verdict"`
	Seq     int    `json:"seq"`
	Steps   int    `json:"steps"`
	Query   string `json:"query,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// capture renders a failing test case the way cmd/gqs does; ok is false
// for passes and skips.
func capture(target core.Target, tc *core.TestCase) (detection, bool) {
	if tc.Verdict != core.VerdictLogicBug && tc.Verdict != core.VerdictErrorBug {
		return detection{}, false
	}
	d := detection{Verdict: tc.Verdict.String(), Seq: tc.Seq, Steps: tc.Steps, Query: tc.Query}
	if tb, ok := target.(interface{ TriggeredBug() *faults.Bug }); ok {
		if b := tb.TriggeredBug(); b != nil {
			d.Bug, d.Desc = b.ID, b.Description
		}
	}
	if tc.Verdict == core.VerdictLogicBug {
		d.Detail = fmt.Sprintf("  expected: %v\n  actual:   %v", tc.Expected.Canonical(), tc.Actual.Canonical())
	} else {
		d.Detail = fmt.Sprintf("  error: %v", tc.Err)
	}
	return d, true
}

// openJournal opens a fresh checkpoint journal for the campaign, bound
// to the same fingerprint cmd/gqs would compute.
func (s *gqsSpec) openJournal(e env, seed int64) (*core.Checkpointer, string, error) {
	path := filepath.Join(e.workDir, fmt.Sprintf("perfbench-%d.journal", os.Getpid()))
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, "", err
	}
	fp := core.CampaignFingerprint("sharded", strings.Join(s.targets, ","), faults.CatalogFingerprint(),
		e.workers, s.batch(e.workers), s.iterations, s.runnerConfig(seed))
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: checkpointEvery}, fp)
	if err != nil {
		return nil, "", fmt.Errorf("open journal: %w", err)
	}
	return ck, path, nil
}

// runGQS runs the campaign over every target in turn, as cmd/gqs does
// for -gdb all. With probe set it stops at the first verdict of the
// first target and returns only the set-up time.
func runGQS(s *gqsSpec, e env, seed int64, probe bool) (*unitStats, error) {
	start := time.Now()
	cpu0 := cpuTime()
	var ck *core.Checkpointer
	if s.journal {
		var path string
		var err error
		if ck, path, err = s.openJournal(e, seed); err != nil {
			return nil, err
		}
		defer os.Remove(path)
		defer ck.Close() // error paths only; the success path checks Close
	}
	rcfg := s.runnerConfig(seed)
	per := casesPerIteration(rcfg)
	u := &unitStats{out: &outcome{}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firstOnce sync.Once
	var setup time.Duration

	for _, name := range s.targets {
		connect := gdb.NewFactory(gdb.FactoryConfig{GDB: name, Seed: seed})
		pcfg := core.ParallelConfig{
			Workers:    e.workers,
			Iterations: s.iterations,
			Batch:      s.batch(e.workers),
			Runner:     rcfg,
		}
		// One detection slot per shard: the observer runs concurrently
		// across shards and sequentially within one.
		logs := make([][]detection, s.iterations)
		hooks := core.DurableHooks{
			Payload: func(_ string, start, count int) json.RawMessage {
				p, err := json.Marshal(logs[start : start+count])
				if err != nil {
					return nil
				}
				return p
			},
		}
		ps := core.RunCheckpointedParallel(ctx, pcfg, name,
			func(shard int) (core.Target, error) { return connect(shard) },
			func(shard int, target core.Target, tc *core.TestCase) {
				firstOnce.Do(func() {
					setup = time.Since(start)
					if probe {
						cancel()
					}
				})
				if d, ok := capture(target, tc); ok {
					logs[shard] = append(logs[shard], d)
				}
			}, ck, hooks)
		if probe {
			if setup == 0 {
				return nil, fmt.Errorf("%s: no verdict", name)
			}
			return &unitStats{setups: []time.Duration{setup}}, nil
		}
		l := leg{Name: name, Pass: ps.Passes, Logic: ps.LogicBugs, Error: ps.ErrorBugs, Skip: ps.Skips}
		found := foundSet{}
		for shard, dets := range logs {
			for _, d := range dets {
				if d.Bug == "" {
					l.Unattributed++
				} else {
					found.add(d.Bug, shard*per+d.Seq-1)
				}
			}
		}
		l.Found = found.sorted()
		u.out.Legs = append(u.out.Legs, l)
		u.busy += ps.Elapsed
		u.capacity += ps.Wall * time.Duration(ps.Workers)
		u.opFailures += ps.Robust.FailedIterations + ps.Robust.AbandonedGraphs
		u.iterations += s.iterations
	}
	if ck != nil {
		if err := ck.Close(); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		u.journal = ck.Stats()
	}
	u.wall = time.Since(start)
	u.cpu = cpuTime() - cpu0
	u.setups = []time.Duration{setup}
	return u, nil
}

// runBaselines runs every baseline tester on every GDB it supports, one
// experiments.RunBaselineCampaign each, single-threaded.
func runBaselines(rounds int, seed int64) (*unitStats, error) {
	start := time.Now()
	cpu0 := cpuTime()
	u := &unitStats{out: &outcome{}}
	for _, t := range baselines.All() {
		for _, g := range baselineGDBs {
			if !t.Supports(g) {
				continue
			}
			tc, err := experiments.RunBaselineCampaign(t, g, rounds, seed)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", t.Name(), g, err)
			}
			found := foundSet{}
			for _, ev := range tc.Events {
				found.add(ev.Bug.ID, ev.Round)
			}
			u.out.Legs = append(u.out.Legs, leg{
				Name: t.Name() + "/" + g, Rounds: tc.Rounds,
				FalsePositives: tc.FalsePositives, Found: found.sorted(),
			})
		}
	}
	u.wall = time.Since(start)
	u.cpu = cpuTime() - cpu0
	return u, nil
}

// runCampaign runs one untraced campaign of the workload.
func runCampaign(w workload, e env, seed int64) (*unitStats, error) {
	var u *unitStats
	var err error
	if w.gqs != nil {
		u, err = runGQS(w.gqs, e, seed, false)
	} else {
		u, err = runBaselines(w.rounds, seed)
	}
	if err != nil {
		return nil, err
	}
	u.first = u.out
	cases := float64(u.out.cases())
	u.rates = []float64{cases / u.wall.Seconds()}
	u.cpus = []float64{float64(u.cpu.Microseconds()) / cases}
	return u, nil
}

// runUnit runs the workload's campaigns back to back; the outcome lists
// every campaign's legs, prefixed with the campaign number.
func runUnit(w workload, e env) (*unitStats, error) {
	start := time.Now()
	cpu0 := cpuTime()
	u := &unitStats{out: &outcome{}}
	for k := 0; k < w.campaigns; k++ {
		c, err := runCampaign(w, e, campaignSeed(e.seed, k))
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", k, err)
		}
		if k == 0 {
			u.first = c.out
		}
		for _, l := range c.out.Legs {
			l.Name = fmt.Sprintf("%d/%s", k, l.Name)
			u.out.Legs = append(u.out.Legs, l)
		}
		u.setups = append(u.setups, c.setups...)
		u.rates = append(u.rates, c.rates...)
		u.cpus = append(u.cpus, c.cpus...)
		u.busy += c.busy
		u.capacity += c.capacity
		u.opFailures += c.opFailures
		u.journal.Written += c.journal.Written
		u.journal.Bytes += c.journal.Bytes
		u.iterations += c.iterations
	}
	u.wall = time.Since(start)
	u.cpu = cpuTime() - cpu0
	return u, nil
}

// probeSetup measures the time from the start of a workload run to its
// first verdict: building the first target and its fault catalog,
// opening the journal, and generating, sealing and indexing the first
// graph. For the baselines it is a one-round campaign of the first
// tester on the first GDB.
func probeSetup(w workload, e env) (time.Duration, error) {
	if w.gqs != nil {
		u, err := runGQS(w.gqs, e, e.seed, true)
		if err != nil {
			return 0, err
		}
		return u.setups[0], nil
	}
	start := time.Now()
	if _, err := experiments.RunBaselineCampaign(baselines.NewGDsmith(), baselineGDBs[0], 1, e.seed); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
