package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gqs/internal/functions"
)

// This file is the campaign executor: every campaign, at any worker
// count, runs here. The paper's evaluation runs month-long
// fuzzing campaigns, and the workflow is embarrassingly parallel per
// iteration — every iteration generates its own graph, restarts its own
// instance, and synthesizes its own queries — so the executor fans
// iterations across a worker pool.
//
// The determinism contract: the unit of sharding is the LOGICAL
// iteration, not the worker and not the batch. Shard i derives its RNG
// seed from (campaign seed, i) alone and records its stats into slot i.
// Workers drain contiguous *ranges* of shards (work units of Batch
// iterations) to amortize per-shard setup, but a unit is nothing more
// than a loop over its shards — each one reseeded exactly as if it were
// enqueued alone. The work decomposition is therefore independent of
// both the worker count and the batch size, and a merged campaign at
// `seed S, workers 1, batch 1` reports the byte-identical bug set as
// `seed S, workers N, batch K` — only wall-clock time changes.

// ShardSeed derives the RNG seed of logical shard i from the campaign
// seed. Exposed so connector factories can derive matching per-shard
// streams (e.g. flaky-injection seeds) that stay independent of the
// worker count.
func ShardSeed(seed int64, shard int) int64 {
	return functions.DeriveSeed(seed, int64(shard))
}

// TargetFactory builds the connector for one shard. Every call must
// return an independent instance — its own engine, fault catalog, and
// flaky wrapper — because shards execute concurrently and connectors are
// not goroutine-safe.
type TargetFactory func(shard int) (Target, error)

// ShardSeeder is the optional connector-reuse extension of Target: a
// connector that can re-derive all its per-shard deterministic state
// (engine seed and execution counter, flaky-injection stream) for a new
// shard index. A worker reuses one such connector — and one Runner on
// top of it, reseeded per shard — across every shard it drains,
// skipping the per-shard engine and fault-catalog construction, under
// the contract that after SeedShard(i) the target behaves
// byte-identically to a freshly built factory(i) instance.
type ShardSeeder interface {
	SeedShard(shard int)
}

// ParallelConfig bounds one sharded campaign.
type ParallelConfig struct {
	// Workers is the worker-pool size; 0 selects GOMAXPROCS. The pool is
	// clamped to the number of pending work units (more workers than
	// units is waste).
	Workers int
	// Iterations is the number of logical shards, one workflow iteration
	// (graph generation + instance restart + query batch) each.
	Iterations int
	// Batch is the work-unit size: each unit a worker drains is a
	// contiguous range of Batch logical iterations (the tail unit may be
	// shorter). 0 or negative selects 1; AutoBatch is the usual explicit
	// choice. Batching amortizes per-unit scheduling and checkpoint
	// costs; it never changes what any shard computes, so results are
	// byte-identical across batch sizes.
	Batch int
	// Runner configures each shard's runner. Runner.Seed is the campaign
	// seed; shard i runs with ShardSeed(Runner.Seed, i).
	Runner RunnerConfig
	// Share, when set, dedups the per-iteration sealed snapshot (and the
	// graph + schema it was sealed from) across every executor pass that
	// runs the same logical shards — e.g. the per-GDB legs of a campaign,
	// whose shard-i graphs are identical by construction. The first pass
	// to reach shard i seals and publishes; later passes still burn the
	// generation draws (the RNG stream must advance) but reuse the
	// published triple, so the seal and the per-schema index build happen
	// once per shard instead of once per shard per target.
	Share *SnapshotShare
	// SkipUnit, when set, lets a resumed campaign skip already-completed
	// work units: return the unit's recorded stats (the sum over its
	// shards) and true to account for it without running it. Called once
	// per unit from the feed loop (a single goroutine), in ascending
	// start order, before anything is enqueued. Units are identified by
	// their (start, count) range, which is stable for a fixed
	// (Iterations, Batch) pair — the checkpoint fingerprint pins both.
	SkipUnit func(start, count int) (Stats, bool)
	// UnitDone observes each work unit that ran to completion, called
	// from the worker goroutine that ran it immediately afterwards with
	// the summed stats of its shards. It is not called for units skipped
	// via SkipUnit, for units still in flight when the context is
	// canceled — cancellation is monotonic, so a UnitDone call guarantees
	// the unit's full, uninterrupted stats — nor for units in which any
	// shard's target factory failed: a factory error is transient
	// infrastructure trouble, and recording the unit as complete would
	// make a resumed campaign skip (never retry) the failed shard.
	// Callers touching shared state must synchronize.
	UnitDone func(start, count int, s Stats)
}

// AutoBatch is the automatic work-unit size for a campaign of iterations
// shards on workers workers: about 4 units per worker — coarse enough to
// amortize per-unit scheduling and checkpoint costs, fine enough that a
// straggler unit cannot idle the pool — clamped to [1, 16]; workers < 1
// gives 1. A pure function of its arguments, never of the machine, so
// callers may feed it into the checkpoint fingerprint.
func AutoBatch(iterations, workers int) int {
	if workers < 1 {
		return 1
	}
	return min(max(iterations/(workers*4), 1), 16)
}

// workUnit is one contiguous range of logical shards drained by a
// single worker.
type workUnit struct {
	start, count int
}

// ShardStats is one shard's outcome.
type ShardStats struct {
	Shard int
	Stats Stats
}

// ParallelStats is the merged, order-independent outcome of a sharded
// campaign: per-field sums over the shards plus the pool's wall-clock
// time (the merged Stats.Elapsed sums per-shard busy time, so
// Elapsed/Wall approximates the achieved parallelism).
type ParallelStats struct {
	Stats
	Wall    time.Duration
	Workers int
	// Ran counts the logical iterations this run actually attempted
	// (including failed attempts); Restored counts the iterations
	// restored from a checkpoint without running. Ran+Restored ≤
	// Iterations, with the gap being canceled-before-start shards.
	Ran      int
	Restored int
	// RanQueries counts the queries executed live this run (restored
	// units' queries are in Stats.Queries but not here).
	RanQueries int
	Shards     []ShardStats // indexed by shard, always in shard order
}

// IterationsPerSec is the campaign's live wall-clock iteration
// throughput: only iterations that actually ran count — a resumed
// campaign must not claim its restored units as this run's speed.
func (p *ParallelStats) IterationsPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Ran) / p.Wall.Seconds()
}

// QueriesPerSec is the campaign's live wall-clock query throughput
// (restored units excluded, as in IterationsPerSec).
func (p *ParallelStats) QueriesPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.RanQueries) / p.Wall.Seconds()
}

// Add accumulates another stats block; the merge layer sums per-shard
// stats this way, so the totals are independent of completion order.
func (s *Stats) Add(o Stats) {
	s.Graphs += o.Graphs
	s.Queries += o.Queries
	s.Passes += o.Passes
	s.LogicBugs += o.LogicBugs
	s.ErrorBugs += o.ErrorBugs
	s.Skips += o.Skips
	s.Elapsed += o.Elapsed
	s.Robust.Add(o.Robust)
}

// RunParallel executes cfg.Iterations logical shards across a worker
// pool and merges the results. observe (optional) sees every test case
// together with its shard index and that shard's target (for fault
// attribution): calls for one shard are sequential, but calls for
// different shards arrive concurrently from different goroutines —
// observers touching shared state must synchronize.
//
// A factory error costs one failed iteration (recorded in the merged
// Stats.Robust), never the campaign — the same degraded-not-dead
// contract Runner.Run keeps.
func RunParallel(cfg ParallelConfig, factory TargetFactory, observe func(shard int, target Target, tc *TestCase)) *ParallelStats {
	return RunParallelCtx(context.Background(), cfg, factory, observe)
}

// RunParallelCtx is RunParallel under a cancelable context: once ctx is
// done the feed loop stops enqueueing units, idle workers drain the
// queue without running, and in-flight shards stop between queries. A
// canceled run still returns merged stats for whatever completed; the
// checkpoint layer's UnitDone hook sees exactly the units that ran to
// completion before cancellation.
func RunParallelCtx(ctx context.Context, cfg ParallelConfig, factory TargetFactory, observe func(shard int, target Target, tc *TestCase)) *ParallelStats {
	return runParallel(ctx, cfg, factory, nil, observe)
}

// runParallel is the executor behind RunParallelCtx and
// RunCheckpointedOn: with a nil own it builds targets through factory;
// otherwise one worker runs every shard on own and never closes it.
func runParallel(ctx context.Context, cfg ParallelConfig, factory TargetFactory, own Target, observe func(shard int, target Target, tc *TestCase)) *ParallelStats {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := cfg.Iterations
	if n < 0 {
		n = 0
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 1
	}
	perShard := make([]Stats, n)
	// Resume pass: already-completed units get their recorded stats and
	// never reach the queue. The feed loop below only sees the rest.
	// A restored unit's summed stats land in its start slot; the merged
	// totals are identical to per-shard placement.
	pending := make([]workUnit, 0, (n+batch-1)/batch)
	restored := 0
	for us := 0; us < n; us += batch {
		count := batch
		if us+count > n {
			count = n - us
		}
		if cfg.SkipUnit != nil {
			if s, ok := cfg.SkipUnit(us, count); ok {
				s.Robust.ResumeFastForwarded += count
				perShard[us] = s
				restored += count
				continue
			}
		}
		pending = append(pending, workUnit{start: us, count: count})
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if own != nil {
		workers = 1 // one target cannot be driven concurrently
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	var ran, ranQueries atomic.Int64
	jobs := make(chan workUnit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A connector that supports per-shard reseeding is built once
			// and reused — together with one Runner on top of it — for
			// every shard this worker drains; others are built and closed
			// per shard. A caller-owned target is reused the same way but
			// stays open. Reuse changes which instance runs a shard, never
			// what the shard computes: the shard's runner streams derive
			// from (campaign seed, shard) alone.
			var reused Target
			var rn *Runner
			if own != nil {
				reused = own
				rn = NewRunnerCtx(ctx, own, cfg.Runner)
			} else {
				defer closeTarget(&reused)
			}
			runShard := func(shard int) bool {
				if reused != nil {
					if s, ok := reused.(ShardSeeder); ok {
						s.SeedShard(shard)
					}
					rn.Reseed(ShardSeed(cfg.Runner.Seed, shard))
					rn.SetShare(cfg.Share, shard)
					perShard[shard] = runIterationOn(rn, shard, reused, observe)
					return true
				}
				target, err := factory(shard)
				if err != nil {
					var s Stats
					s.Robust.FailedIterations++
					perShard[shard] = s
					return false
				}
				if _, ok := target.(ShardSeeder); ok {
					// The factory seeds the instance for its shard index,
					// so the first shard needs no SeedShard/Reseed call.
					reused = target
					rcfg := cfg.Runner
					rcfg.Seed = ShardSeed(cfg.Runner.Seed, shard)
					rn = NewRunnerCtx(ctx, reused, rcfg)
					rn.SetShare(cfg.Share, shard)
					perShard[shard] = runIterationOn(rn, shard, reused, observe)
					return true
				}
				perShard[shard] = runShardOn(ctx, cfg, shard, target, observe)
				closeTarget(&target)
				return true
			}
			for u := range jobs {
				if ctx.Err() != nil {
					continue // canceled: drain the queue without running
				}
				complete := true
				for shard := u.start; shard < u.start+u.count; shard++ {
					if ctx.Err() != nil {
						complete = false
						break
					}
					ran.Add(1)
					if !runShard(shard) {
						// Keep running the unit's other shards — their work
						// is still valid — but the unit must not be
						// reported complete (see UnitDone).
						complete = false
						continue
					}
					ranQueries.Add(int64(perShard[shard].Queries))
				}
				// Cancellation is monotonic: a nil ctx.Err() here proves
				// the whole unit ran uninterrupted, so recording it as
				// complete is safe even though the check races the cancel.
				if complete && ctx.Err() == nil && cfg.UnitDone != nil {
					var sum Stats
					for shard := u.start; shard < u.start+u.count; shard++ {
						sum.Add(perShard[shard])
					}
					cfg.UnitDone(u.start, u.count, sum)
				}
			}
		}()
	}
feed:
	for _, u := range pending {
		select {
		case jobs <- u:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	ps := &ParallelStats{
		Workers:    workers,
		Wall:       time.Since(start),
		Ran:        int(ran.Load()),
		Restored:   restored,
		RanQueries: int(ranQueries.Load()),
	}
	ps.Shards = make([]ShardStats, n)
	for i := range perShard {
		ps.Shards[i] = ShardStats{Shard: i, Stats: perShard[i]}
		ps.Stats.Add(perShard[i])
	}
	return ps
}

// closeTarget closes a connector if it supports closing; the pointer
// form lets deferred worker cleanup see the final reused instance.
func closeTarget(t *Target) {
	if t == nil || *t == nil {
		return
	}
	if c, ok := (*t).(interface{ Close() error }); ok {
		c.Close()
	}
}

// runIterationOn executes one logical shard on an already-seeded runner:
// one workflow iteration, stats read back from the (freshly reseeded)
// runner.
func runIterationOn(rn *Runner, shard int, target Target, observe func(int, Target, *TestCase)) Stats {
	var report func(*TestCase)
	if observe != nil {
		report = func(tc *TestCase) { observe(shard, target, tc) }
	}
	rn.RunIteration(report)
	return rn.Stats()
}

// runShardOn executes one logical shard on an already-built connector
// that does not support reuse: fresh shard seed, fresh runner, one
// workflow iteration.
func runShardOn(ctx context.Context, cfg ParallelConfig, shard int, target Target, observe func(int, Target, *TestCase)) Stats {
	rcfg := cfg.Runner
	rcfg.Seed = ShardSeed(cfg.Runner.Seed, shard)
	rn := NewRunnerCtx(ctx, target, rcfg)
	rn.SetShare(cfg.Share, shard)
	return runIterationOn(rn, shard, target, observe)
}
