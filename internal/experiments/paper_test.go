package experiments

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"gqs/internal/core"
)

// The paper campaign's pinned outcome and cost, measured with go1.24.0
// on linux/amd64 at commit b0758e9. The digest and finding count are
// exact; the cost figures are deterministic counts (heap allocations,
// journal records and bytes), not timings, so they can be bounded
// without tripping on host noise.
const (
	paperCampaignDigest   = "0bae9bd11b8716ef"
	paperCampaignFindings = 35
	// paperAllocsPerIteration is heap allocations per meter iteration of
	// the 1-worker plain leg (the meter counts one iteration per GDB
	// shard, four per campaign iteration).
	paperAllocsPerIteration = 18704
	// paperJournalSnapshots and paperJournalBytes are the durable leg's
	// journal records and framed bytes at Every 100.
	paperJournalSnapshots = 1
	paperJournalBytes     = 517153
	// paperCostSlack bounds how far the cost figures may grow.
	paperCostSlack = 1.10
)

// TestPaperCampaignDigest pins the Table 3 campaign (DefaultCampaignConfig,
// seed 1, 20 iterations) on the three paths a campaign can take: the
// plain executor at 1 and 2 workers and the checkpointed executor at 1
// worker. Every leg must report the same 35 findings; the 1-worker plain
// leg also bounds allocations per iteration, and the durable leg the
// journal it writes.
func TestPaperCampaignDigest(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Seed = 1
	cfg.Iterations = 20

	check := func(leg string, c *Campaign) {
		t.Helper()
		if got := len(c.Findings); got != paperCampaignFindings {
			t.Errorf("%s: %d findings, want %d", leg, got, paperCampaignFindings)
		}
		if got := reportDigest(c); got != paperCampaignDigest {
			t.Errorf("%s: bug report digest %s, want %s", leg, got, paperCampaignDigest)
		}
	}

	one := cfg
	one.Workers = 1
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	c := RunGQSCampaign(one)
	runtime.ReadMemStats(&ms)
	check("plain, 1 worker", c)
	perIter := float64(ms.Mallocs-mallocs) / float64(c.Throughput.Iterations)
	t.Logf("plain, 1 worker: %.0f allocs/iteration (%d iterations)", perIter, c.Throughput.Iterations)
	if limit := paperAllocsPerIteration * paperCostSlack; !raceEnabled && perIter > limit {
		t.Errorf("plain, 1 worker: %.0f allocs/iteration, above %.0f (%.2f× the recorded %d)",
			perIter, limit, paperCostSlack, paperAllocsPerIteration)
	}

	two := cfg
	two.Workers = 2
	check("plain, 2 workers", RunGQSCampaign(two))

	ck, err := core.OpenCheckpoint(core.CheckpointConfig{
		Path: filepath.Join(t.TempDir(), "campaign.journal"), Every: 100,
	}, CampaignFingerprint(one))
	if err != nil {
		t.Fatal(err)
	}
	durable := RunGQSCampaignDurable(context.Background(), one, ck)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	check("durable, 1 worker", durable)
	st := ck.Stats()
	t.Logf("durable, 1 worker: %d journal snapshots, %d bytes", st.Written, st.Bytes)
	if st.Failures != 0 {
		t.Errorf("durable: %d journal flushes failed", st.Failures)
	}
	if st.Written != paperJournalSnapshots {
		t.Errorf("durable: %d journal snapshots, want %d", st.Written, paperJournalSnapshots)
	}
	if limit := paperJournalBytes * paperCostSlack; float64(st.Bytes) > limit {
		t.Errorf("durable: %d journal bytes, above %.0f (%.2f× the recorded %d)",
			st.Bytes, limit, paperCostSlack, paperJournalBytes)
	}
}
