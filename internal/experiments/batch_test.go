package experiments

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gqs/internal/core"
	"gqs/internal/gdb"
)

// TestBatchDeterminismDifferential is the batching acceptance test: the
// canonical bug report is a pure function of the seed — not of the
// worker count and not of the work-unit size. "Sequential" here is the
// executor's serial order (workers=1, batch=1).
func TestBatchDeterminismDifferential(t *testing.T) {
	run := func(workers, batch int) *Campaign {
		cfg := shardedTestConfig(workers)
		cfg.Batch = batch
		return RunGQSCampaign(cfg)
	}
	want := reportDigest(run(1, 1))
	for _, leg := range []struct{ workers, batch int }{
		{4, 1}, {4, 3}, {2, 100}, // batch > Iterations: one unit per GDB
	} {
		c := run(leg.workers, leg.batch)
		if got := reportDigest(c); got != want {
			t.Errorf("workers=%d batch=%d: digest %s != sequential %s\n%s",
				leg.workers, leg.batch, got, want, c.CanonicalBugReport())
		}
		if len(c.Findings) == 0 {
			t.Fatalf("workers=%d batch=%d found no bugs; the differential is vacuous",
				leg.workers, leg.batch)
		}
	}

	// The kill/resume leg: a batched campaign canceled mid-flight — after
	// its second unit checkpoint, with other units still mid-batch on the
	// second worker — must resume into the byte-identical report. Partial
	// units are never journaled, so the resume re-runs them whole.
	cfg := shardedTestConfig(2)
	cfg.Batch = 3
	fp := CampaignFingerprint(cfg)
	path := filepath.Join(t.TempDir(), "campaign.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flushes atomic.Int32 // OnFlush runs on the workers, outside the lock
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1,
		OnFlush: func(int) {
			if flushes.Add(1) == 2 {
				cancel()
			}
		}}, fp)
	if err != nil {
		t.Fatal(err)
	}
	RunGQSCampaignDurable(ctx, cfg, ck)
	ck.Close()

	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if re.Stats().ResumedUnits == 0 {
		t.Fatal("kill point left nothing to resume")
	}
	resumed := RunGQSCampaignDurable(context.Background(), cfg, re)
	re.Close()
	if resumed.Robust.ResumeFastForwarded == 0 {
		t.Fatal("resume re-ran the whole campaign from scratch")
	}
	if got := reportDigest(resumed); got != want {
		t.Errorf("mid-batch kill/resume diverged: %s != %s\n%s",
			got, want, resumed.CanonicalBugReport())
	}
}

// TestResumedCampaignThroughputExcludesRestored is the throughput
// regression test: a resumed campaign's iteration rate must count only
// the iterations this run executed — restoring a finished campaign and
// claiming its shards as live speed inflated IterationsPerSec by the
// whole restored prefix.
func TestResumedCampaignThroughputExcludesRestored(t *testing.T) {
	cfg := shardedTestConfig(2)
	cfg.Batch = 2
	fp := CampaignFingerprint(cfg)
	path := filepath.Join(t.TempDir(), "campaign.journal")
	perGDB := len(gdb.All())

	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1}, fp)
	if err != nil {
		t.Fatal(err)
	}
	first := RunGQSCampaignDurable(context.Background(), cfg, ck)
	ck.Close()
	if got, want := first.Throughput.Iterations, int64(cfg.Iterations*perGDB); got != want {
		t.Fatalf("uninterrupted campaign metered %d iterations, want %d", got, want)
	}

	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	resumed := RunGQSCampaignDurable(context.Background(), cfg, re)
	if got, want := resumed.Robust.ResumeFastForwarded, cfg.Iterations*perGDB; got != want {
		t.Fatalf("resume fast-forwarded %d iterations, want %d (everything)", got, want)
	}
	if resumed.Throughput.Iterations != 0 {
		t.Fatalf("fully-restored resume claims %d live iterations (inflated throughput)",
			resumed.Throughput.Iterations)
	}
	if got, want := reportDigest(resumed), reportDigest(first); got != want {
		t.Fatalf("restored report diverged: %s != %s", got, want)
	}
}
