package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"gqs/internal/core"
	"gqs/internal/journal"
)

func reportDigest(c *Campaign) string {
	h := fnv.New64a()
	h.Write([]byte(c.CanonicalBugReport()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// killResumeConfig sizes a campaign small enough for -race yet long
// enough to hold several kill points, with the flaky injector on (its
// per-shard streams reseed deterministically on resume).
func killResumeConfig(workers int) CampaignConfig {
	cfg := DefaultCampaignConfig()
	cfg.Iterations = 6
	cfg.Workers = workers
	cfg.FlakyRate = 0.05
	return cfg
}

// TestKillResumeDifferential is the tentpole's proof obligation: a
// campaign killed at a checkpoint boundary — with the journal tail torn
// on top — resumes into the byte-identical canonical bug report of an
// uninterrupted run, at the default worker count (Workers 0 ⇒
// GOMAXPROCS, auto batch 1), at 1 worker (auto batch) and at GOMAXPROCS
// workers.
func TestKillResumeDifferential(t *testing.T) {
	legs := []struct {
		name      string
		workers   int
		killAfter int // cancel at this checkpoint flush
	}{
		{"workers0", 0, 5},
		{"workers1", 1, 3},
		{"workersN", runtime.GOMAXPROCS(0), 7},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			cfg := killResumeConfig(leg.workers)
			fp := CampaignFingerprint(cfg)
			want := reportDigest(RunGQSCampaign(cfg))
			path := filepath.Join(t.TempDir(), "campaign.journal")

			// The interrupted run: canceled at the killAfter-th flush and
			// abandoned without a final flush or close — the hard-kill
			// shape. Its partial campaign result is discarded, like a
			// killed process's memory.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// OnFlush runs outside the checkpoint lock, on whichever
			// worker completed the unit, so the count is atomic.
			var flushes atomic.Int32
			ck, err := core.OpenCheckpoint(core.CheckpointConfig{
				Path: path, Every: 1,
				OnFlush: func(int) {
					if flushes.Add(1) == int32(leg.killAfter) {
						cancel()
					}
				},
			}, fp)
			if err != nil {
				t.Fatal(err)
			}
			RunGQSCampaignDurable(ctx, cfg, ck)

			// A kill can also land mid-append: tear the journal tail and
			// let the recovery scan absorb it.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xba, 0xad}) //nolint:errcheck
			f.Close()

			re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
			if err != nil {
				t.Fatal(err)
			}
			if re.Stats().ResumedUnits == 0 {
				t.Fatalf("kill point left nothing to resume (flushes=%d)", flushes.Load())
			}
			resumed := RunGQSCampaignDurable(context.Background(), cfg, re)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if resumed.Robust.ResumeFastForwarded == 0 {
				t.Fatal("resume re-ran the whole campaign from scratch")
			}
			if got := reportDigest(resumed); got != want {
				t.Errorf("resumed digest %s != uninterrupted %s\nresumed report:\n%s",
					got, want, resumed.CanonicalBugReport())
			}
		})
	}
}

// TestMidWriteKillResume kills the journal — not the campaign — midway
// through an append (fault-injected torn write). The campaign must
// finish unperturbed, and a later resume from the torn journal must
// restore the valid prefix and converge on the same report.
func TestMidWriteKillResume(t *testing.T) {
	cfg := killResumeConfig(1)
	fp := CampaignFingerprint(cfg)
	want := reportDigest(RunGQSCampaign(cfg))
	path := filepath.Join(t.TempDir(), "campaign.journal")

	first := true
	opts := journal.Options{OpenFile: func(p string) (journal.File, error) {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		if !first {
			return f, nil
		}
		first = false
		// Big enough that the first few snapshot records (fingerprint +
		// unit stats + query-text payloads) land durably, small enough to
		// die long before the campaign's ~24 units finish.
		return journal.NewFaultFile(f, journal.FaultConfig{KillAfterBytes: 48 << 10}), nil
	}}
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Journal: opts}, fp)
	if err != nil {
		t.Fatal(err)
	}
	got := RunGQSCampaignDurable(context.Background(), cfg, ck)
	if d := reportDigest(got); d != want {
		t.Errorf("a dying journal perturbed the campaign: %s != %s", d, want)
	}
	if st := ck.Stats(); st.Failures == 0 {
		t.Fatalf("the mid-write kill never fired: %+v", st)
	}
	// No Close: the handle died mid-write. Resume from the torn file.
	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if re.Stats().ResumedUnits == 0 {
		t.Fatal("no valid snapshot survived the torn write")
	}
	resumed := RunGQSCampaignDurable(context.Background(), cfg, re)
	re.Close()
	if d := reportDigest(resumed); d != want {
		t.Errorf("resume from torn journal diverged: %s != %s\n%s", d, want, resumed.CanonicalBugReport())
	}
}

// TestResumeRefusesChangedConfig: the fingerprint guard — resuming under
// any configuration change that alters the deterministic stream must be
// refused, not spliced.
func TestResumeRefusesChangedConfig(t *testing.T) {
	cfg := killResumeConfig(0)
	cfg.Iterations = 2
	path := filepath.Join(t.TempDir(), "campaign.journal")
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1}, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	RunGQSCampaignDurable(context.Background(), cfg, ck)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	changed := cfg
	changed.Seed++
	_, err = core.OpenCheckpoint(core.CheckpointConfig{Path: path, Resume: true}, CampaignFingerprint(changed))
	if !errors.Is(err, core.ErrFingerprintMismatch) {
		t.Fatalf("resume with a changed seed: err = %v, want ErrFingerprintMismatch", err)
	}
	// Same config resumes fine (a completed campaign simply has nothing
	// left to run).
	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Resume: true}, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	done := RunGQSCampaignDurable(context.Background(), cfg, re)
	if done.Robust.ResumeFastForwarded == 0 || done.Queries == 0 {
		t.Fatalf("completed campaign did not restore: %+v", done.Robust)
	}
}
