package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"gqs/internal/core"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// This file is the sharded campaign front-end: it fans the campaign's
// iterations across core.RunParallel and merges the per-shard
// detections into a canonical, order-independent report.
//
// The merge is the half of the determinism contract that lives above the
// executor. Work units complete in wall-clock order, which varies run to
// run; the merge therefore never looks at completion order. Detections
// are buffered per shard during the run and *streamed* into a dedicated
// merger goroutine as each unit completes: the merger holds completed
// ranges in a pending set and folds them strictly in ascending shard
// order, deduplicating against a campaign-wide seen-set. Folding unit [s, s+c) therefore always
// happens after every shard < s has been folded and before any shard
// ≥ s+c — the same total order the old end-of-run barrier produced,
// minus the barrier: early shards merge while late shards still run. A
// finding's canonical AtQuery index is its shard-local query index plus
// the query counts of every earlier shard — the index it would have had
// in a purely sequential replay of the shards — so `seed S, workers 1,
// batch 1` and `seed S, workers N, batch K` produce byte-identical
// CanonicalBugReport output.

// shardEvent is one shard-local bug detection, buffered until the merge.
type shardEvent struct {
	bug      *faults.Bug
	query    string
	features *metrics.Features // the vector the target's triggers saw
	steps    int
	atLocal  int // 1-based query index within the shard
	graph    *graph.Graph
	schema   *graph.Schema
	latency  time.Duration
}

// shardLog is everything one shard reports: its test-case tallies and
// its first-detection events, in shard-local execution order.
type shardLog struct {
	queries int
	skips   int
	events  []shardEvent
}

// runShardedCampaign runs the campaign on the sharded executor under a
// cancelable context and an optional checkpointer (nil ⇒ plain run):
// completed shards are journaled, restored shards are skipped, and
// cancellation stops between shards. A canceled campaign's merge covers
// only what completed — callers resuming later discard it.
func runShardedCampaign(ctx context.Context, cfg CampaignConfig, ck *core.Checkpointer) *Campaign {
	meter := metrics.NewMeter()
	c := &Campaign{Workers: cfg.Workers}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	seen := map[string]bool{}
	// One snapshot share for the whole campaign: shard i's generated
	// graph is identical in every per-GDB leg (its RNG seed depends only
	// on the campaign seed and i), so the seal and the snapshot's index
	// build happen once per shard instead of once per shard per GDB.
	share := core.NewSnapshotShare(cfg.Iterations, len(gdb.All()))
	for _, sim := range gdb.All() {
		if ctx.Err() != nil {
			break
		}
		runShardedOn(ctx, c, sim.Name(), cfg, seen, meter, ck, share)
	}
	for range c.Findings {
		meter.AddBug()
	}
	c.Throughput = meter.Snapshot()
	c.Wall = c.Throughput.Elapsed
	return c
}

// runShardedOn runs the sharded campaign against one GDB, streaming
// completed work units into the canonical ascending-shard merge.
func runShardedOn(ctx context.Context, c *Campaign, gdbName string, cfg CampaignConfig, seen map[string]bool, meter *metrics.Meter, ck *core.Checkpointer, share *core.SnapshotShare) {
	n := cfg.Iterations
	if n <= 0 {
		return
	}
	pcfg := core.ParallelConfig{
		Workers:    cfg.Workers,
		Iterations: n,
		Batch:      cfg.ResolvedBatch(),
		Runner:     campaignRunnerConfig(cfg),
		Share:      share,
	}
	connect := gdb.NewFactory(gdb.FactoryConfig{
		GDB:       gdbName,
		Live:      cfg.Live,
		FlakyRate: cfg.FlakyRate,
		Seed:      cfg.Seed,
	})
	factory := func(shard int) (core.Target, error) { return connect(shard) }

	// Shard slots are disjoint and observer calls per shard are
	// sequential, so the logs need no locking (see RunParallel's
	// observer contract). The checkpoint hooks obey the same slotting:
	// Payload runs on the worker that just finished the unit, Restore on
	// the single-threaded feed loop before any worker starts.
	logs := make([]shardLog, n)

	// The streaming merge: completed unit ranges arrive on a channel (a
	// restored unit's range from the feed loop, a live unit's from the
	// worker that ran it — both after the unit's log slots are final, so
	// the channel send orders the slot writes before the merger's reads)
	// and the merger folds them strictly in ascending shard order,
	// holding out-of-order ranges in a pending set. Only the merger
	// goroutine touches c and seen until it is joined below. Units
	// canceled mid-flight are never announced and never merged — exactly
	// the units a resume discards and re-runs.
	type unitRange struct{ start, count int }
	merge := make(chan unitRange, 64)
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		pending := make(map[int]int)
		next := 0
		for u := range merge {
			pending[u.start] = u.count
			for {
				count, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				mergeShardLogs(c, gdbName, logs[next:next+count], seen, next)
				next += count
			}
		}
	}()

	hooks := core.DurableHooks{
		Payload: func(_ string, start, count int) json.RawMessage {
			return encodeShardLogs(logs[start : start+count])
		},
		Restore: func(u core.UnitRecord) {
			count := u.UnitCount()
			if u.Shard >= 0 && u.Shard+count <= n {
				copy(logs[u.Shard:u.Shard+count], decodeShardLogs(gdbName, u.Payload, count))
				merge <- unitRange{start: u.Shard, count: count}
			}
		},
	}
	pcfg.UnitDone = func(start, count int, _ core.Stats) {
		merge <- unitRange{start: start, count: count}
	}
	start := time.Now()
	ps := core.RunCheckpointedParallel(ctx, pcfg, gdbName, factory, func(shard int, target core.Target, tc *core.TestCase) {
		log := &logs[shard]
		log.queries++
		meter.AddQuery()
		switch tc.Verdict {
		case core.VerdictSkip:
			log.skips++
			return
		case core.VerdictPass:
			return
		}
		tb, ok := target.(interface{ TriggeredBug() *faults.Bug })
		if !ok {
			return
		}
		b := tb.TriggeredBug()
		if b == nil {
			return
		}
		// Shard-local first-detection filter; the cross-shard (and
		// cross-GDB) dedup happens at merge time against `seen`.
		for _, ev := range log.events {
			if ev.bug.ID == b.ID {
				return
			}
		}
		log.events = append(log.events, shardEvent{
			bug:      b,
			query:    tc.Query,
			features: featuresOf(tc),
			steps:    tc.Steps,
			atLocal:  log.queries,
			graph:    tc.Graph,
			schema:   tc.Schema,
			latency:  time.Since(start),
		})
	}, ck, hooks)
	close(merge)
	<-merged
	// Only iterations that actually ran count toward live throughput; a
	// resumed campaign's restored units were another run's work.
	meter.AddIterations(ps.Ran)
	c.Robust.Add(ps.Robust)
}

// mergeShardLogs folds buffered per-shard detections into the campaign
// in canonical order: ascending shard index, AtQuery = campaign queries
// so far + earlier shards' query counts + the shard-local index. The
// merger streams contiguous ranges through here in ascending order;
// startShard is the range's first logical shard.
func mergeShardLogs(c *Campaign, gdbName string, logs []shardLog, seen map[string]bool, startShard int) {
	base := c.Queries
	for i := range logs {
		log := logs[i]
		for _, ev := range log.events {
			if seen[ev.bug.ID] {
				continue
			}
			seen[ev.bug.ID] = true
			c.Findings = append(c.Findings, &Finding{
				Bug:      ev.bug,
				GDB:      gdbName,
				Query:    ev.query,
				Features: ev.features,
				Steps:    ev.steps,
				AtQuery:  base + ev.atLocal,
				Graph:    ev.graph,
				Schema:   ev.schema,
				Shard:    startShard + i,
				Latency:  ev.latency,
			})
		}
		base += log.queries
		c.Skips += log.skips
	}
	c.Queries = base
}

// CanonicalBugReport renders the campaign's merged outcome with every
// hardware-dependent field (wall time, latency, throughput) stripped:
// two campaigns at the same seed must produce byte-identical reports
// regardless of worker count. The determinism tests and the bench's
// identical_bug_sets check compare exactly this string.
func (c *Campaign) CanonicalBugReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries=%d skips=%d findings=%d\n", c.Queries, c.Skips, len(c.Findings))
	for _, f := range c.Findings {
		fmt.Fprintf(&b, "%s %s kind=%v manifest=%v shard=%d at=%d steps=%d query=%s\n",
			f.GDB, f.Bug.ID, f.Bug.Kind, f.Bug.Manifest, f.Shard, f.AtQuery, f.Steps, f.Query)
	}
	return b.String()
}
