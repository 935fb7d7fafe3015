package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"gqs/internal/engine"
	"gqs/internal/graph"
)

// refTarget is an engine-backed target: the reference engine passes every
// synthesized query, so shard stats depend only on the shard seeds.
type refTarget struct {
	eng    *engine.Engine
	closed *atomic.Int64
}

func newRefTarget(closed *atomic.Int64) *refTarget {
	return &refTarget{eng: engine.NewReference(), closed: closed}
}

func (t *refTarget) Name() string { return "reference" }
func (t *refTarget) Reset(g *graph.Graph, s *graph.Schema) error {
	t.eng.LoadGraph(g, s)
	return nil
}
func (t *refTarget) Execute(q string) (*engine.Result, error) { return t.eng.Execute(q) }
func (t *refTarget) ExecuteCtx(ctx context.Context, q string) (*engine.Result, error) {
	return t.eng.ExecuteCtx(ctx, q)
}
func (t *refTarget) RelUniqueness() bool    { return true }
func (t *refTarget) ProvidesDBLabels() bool { return true }
func (t *refTarget) Close() error {
	if t.closed != nil {
		t.closed.Add(1)
	}
	return nil
}

func shardTestConfig() ParallelConfig {
	return ParallelConfig{
		Iterations: 6,
		Runner: RunnerConfig{
			Seed:            11,
			Graph:           graph.GenConfig{MaxNodes: 6, MaxRels: 12},
			Synth:           DefaultConfig(),
			QueriesPerGraph: 3,
			QueriesPerGT:    1,
		},
	}
}

// scrub zeroes the wall-clock-dependent fields so shard stats compare
// across runs.
func scrub(s Stats) Stats {
	s.Elapsed = 0
	s.Robust.Downtime = 0
	return s
}

func TestShardSeed(t *testing.T) {
	if ShardSeed(7, 3) != ShardSeed(7, 3) {
		t.Fatal("ShardSeed must be deterministic")
	}
	seen := map[int64]bool{}
	for shard := 0; shard < 64; shard++ {
		s := ShardSeed(1, shard)
		if seen[s] {
			t.Fatalf("shard %d reuses another shard's seed", shard)
		}
		seen[s] = true
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Fatal("different campaign seeds must shard differently")
	}
}

func TestRunParallelDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *ParallelStats {
		cfg := shardTestConfig()
		cfg.Workers = workers
		return RunParallel(cfg, func(int) (Target, error) { return newRefTarget(nil), nil }, nil)
	}
	one, four := run(1), run(4)
	if len(one.Shards) != len(four.Shards) {
		t.Fatalf("shard counts differ: %d vs %d", len(one.Shards), len(four.Shards))
	}
	for i := range one.Shards {
		a, b := scrub(one.Shards[i].Stats), scrub(four.Shards[i].Stats)
		if a != b {
			t.Errorf("shard %d stats differ across worker counts:\n  workers=1: %+v\n  workers=4: %+v", i, a, b)
		}
	}
	if scrub(one.Stats) != scrub(four.Stats) {
		t.Errorf("merged stats differ: %+v vs %+v", scrub(one.Stats), scrub(four.Stats))
	}
	if one.Stats.Queries == 0 {
		t.Fatal("campaign executed no queries")
	}
}

func TestRunParallelMergesShardTotals(t *testing.T) {
	var closed atomic.Int64
	cfg := shardTestConfig()
	cfg.Workers = 3
	ps := RunParallel(cfg, func(int) (Target, error) { return newRefTarget(&closed), nil }, nil)
	var sum Stats
	for _, sh := range ps.Shards {
		sum.Add(sh.Stats)
	}
	if sum != ps.Stats {
		t.Errorf("merged stats are not the shard sum: %+v vs %+v", ps.Stats, sum)
	}
	if got := closed.Load(); got != int64(cfg.Iterations) {
		t.Errorf("closed %d targets, want one per shard (%d)", got, cfg.Iterations)
	}
	if ps.Workers != 3 {
		t.Errorf("Workers = %d, want 3", ps.Workers)
	}
}

func TestRunParallelFactoryError(t *testing.T) {
	cfg := shardTestConfig()
	cfg.Workers = 2
	ps := RunParallel(cfg, func(int) (Target, error) { return nil, errors.New("refused") }, nil)
	if got := ps.Robust.FailedIterations; got != cfg.Iterations {
		t.Fatalf("FailedIterations = %d, want %d (one per shard, campaign survives)", got, cfg.Iterations)
	}
	if ps.Queries != 0 {
		t.Fatalf("no target, yet %d queries ran", ps.Queries)
	}
}

// TestRunParallelObserver checks the observer contract — every test case
// is reported with its shard index, concurrently across shards — and,
// under -race, that concurrent shards against the shared function and
// fault catalogs are clean.
func TestRunParallelObserver(t *testing.T) {
	cfg := shardTestConfig()
	cfg.Workers = 4
	var calls atomic.Int64
	perShard := make([]int, cfg.Iterations)
	ps := RunParallel(cfg, func(int) (Target, error) { return newRefTarget(nil), nil },
		func(shard int, target Target, tc *TestCase) {
			if shard < 0 || shard >= cfg.Iterations {
				t.Errorf("observer got shard %d out of range", shard)
				return
			}
			if target == nil || tc == nil {
				t.Error("observer got nil target or test case")
				return
			}
			perShard[shard]++ // shard slots are disjoint; no lock needed
			calls.Add(1)
		})
	if got := calls.Load(); got != int64(ps.Queries) {
		t.Errorf("observer saw %d cases, stats count %d", got, ps.Queries)
	}
	for i, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d reported no test cases", i)
		}
	}
}

func TestRunParallelZeroIterations(t *testing.T) {
	cfg := shardTestConfig()
	cfg.Iterations = 0
	ps := RunParallel(cfg, func(int) (Target, error) { return newRefTarget(nil), nil }, nil)
	if len(ps.Shards) != 0 || ps.Queries != 0 {
		t.Fatalf("zero iterations must be a no-op, got %+v", ps.Stats)
	}
}

// TestRunCheckpointedOnOwnTarget: a caller-owned target runs every shard
// on one worker, reports the same per-shard stats as fresh factory
// targets, and is never closed.
func TestRunCheckpointedOnOwnTarget(t *testing.T) {
	cfg := shardTestConfig()
	cfg.Workers = 4
	want := RunParallel(cfg, func(int) (Target, error) { return newRefTarget(nil), nil }, nil)

	var closed atomic.Int64
	own := newRefTarget(&closed)
	var seen []Target
	got := RunCheckpointedOn(context.Background(), cfg, "reference", own,
		func(_ int, target Target, _ *TestCase) { seen = append(seen, target) }, nil, DurableHooks{})
	if got.Workers != 1 {
		t.Errorf("Workers = %d, want 1: one target cannot be driven concurrently", got.Workers)
	}
	if n := closed.Load(); n != 0 {
		t.Errorf("closed the caller's target %d times", n)
	}
	if len(seen) == 0 {
		t.Fatal("observer saw no test cases")
	}
	for _, tg := range seen {
		if tg != Target(own) {
			t.Fatalf("observer saw target %T, want the caller's own instance", tg)
		}
	}
	for i := range want.Shards {
		if a, b := scrub(want.Shards[i].Stats), scrub(got.Shards[i].Stats); a != b {
			t.Errorf("shard %d: own-target stats %+v, factory stats %+v", i, b, a)
		}
	}
}

func TestAutoBatch(t *testing.T) {
	for _, tc := range []struct{ iterations, workers, want int }{
		{60, 0, 1}, {60, -2, 1}, // no configured pool: one iteration per unit
		{0, 4, 1}, {7, 4, 1}, // fewer iterations than 4 per worker
		{60, 1, 15}, {60, 2, 7}, {1000, 2, 16}, // ~4 units per worker, capped at 16
	} {
		if got := AutoBatch(tc.iterations, tc.workers); got != tc.want {
			t.Errorf("AutoBatch(%d, %d) = %d, want %d", tc.iterations, tc.workers, got, tc.want)
		}
	}
}
