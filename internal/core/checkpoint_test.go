package core

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"gqs/internal/gdb"
)

func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

// scrubCk additionally zeroes the checkpoint-layer fields that
// legitimately differ between a resumed run and an uninterrupted one.
func scrubCk(s Stats) Stats {
	s = scrub(s)
	s.Robust.ResumeFastForwarded = 0
	s.Robust.CheckpointsWritten = 0
	s.Robust.CheckpointBytes = 0
	s.Robust.LastCheckpointAge = 0
	return s
}

func TestCheckpointerBatchFlushAndResume(t *testing.T) {
	path := ckPath(t)
	fp := "fp-batch"
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 2}, fp)
	if err != nil {
		t.Fatal(err)
	}
	unit := func(shard, queries int) UnitRecord {
		var s Stats
		s.Queries = queries
		return UnitRecord{Target: "a", Shard: shard, Queries: queries, Stats: s}
	}
	ck.Record(unit(0, 3))
	if st := ck.Stats(); st.Written != 0 {
		t.Fatalf("flushed before Every units: %+v", st)
	}
	ck.Record(unit(1, 4))
	if st := ck.Stats(); st.Written != 1 || st.Bytes == 0 {
		t.Fatalf("batch of 2 did not flush once: %+v", st)
	}
	ck.Record(unit(2, 5)) // dirty: only Close's flush persists it
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.ResumedUnits != 3 {
		t.Fatalf("ResumedUnits = %d, want 3", st.ResumedUnits)
	}
	u, ok := re.Completed("a", 2)
	if !ok || u.Queries != 5 || u.Stats.Queries != 5 {
		t.Fatalf("unit 2 not restored: %+v ok=%v", u, ok)
	}
	if _, ok := re.Completed("a", 3); ok {
		t.Fatal("phantom unit restored")
	}
	if _, ok := re.Completed("b", 0); ok {
		t.Fatal("unit restored under the wrong target")
	}
}

func TestCheckpointRefusesNonEmptyWithoutResume(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path}, "fp")
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(UnitRecord{Target: "a", Shard: 0})
	ck.Close()

	if _, err := OpenCheckpoint(CheckpointConfig{Path: path}, "fp"); err == nil {
		t.Fatal("reopening a non-empty journal without Resume must fail")
	}
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path}, "fp-old")
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(UnitRecord{Target: "a", Shard: 0})
	ck.Close()

	_, err = OpenCheckpoint(CheckpointConfig{Path: path, Resume: true}, "fp-new")
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	if err == nil || !strings.Contains(err.Error(), "fp-old") || !strings.Contains(err.Error(), "fp-new") {
		t.Fatalf("mismatch error must show both fingerprints: %v", err)
	}
}

func TestCheckpointCompactionBoundsJournal(t *testing.T) {
	path := ckPath(t)
	fp := "fp-compact"
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, CompactBytes: 512}, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ck.Record(UnitRecord{Target: "a", Shard: i, Queries: i})
	}
	ck.Close()

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.ResumedUnits != 50 {
		t.Fatalf("compaction lost units: %+v", st)
	}
}

func TestCampaignFingerprintSensitivity(t *testing.T) {
	cfg := tinyRunnerConfig()
	base := CampaignFingerprint("sharded", "reference", "cat", 1, 1, 10, cfg)
	if base != CampaignFingerprint("sharded", "reference", "cat", 1, 1, 10, cfg) {
		t.Fatal("fingerprint not deterministic")
	}
	cfg2 := cfg
	cfg2.Seed++
	for name, other := range map[string]string{
		"seed":       CampaignFingerprint("sharded", "reference", "cat", 1, 1, 10, cfg2),
		"mode":       CampaignFingerprint("other", "reference", "cat", 1, 1, 10, cfg),
		"targets":    CampaignFingerprint("sharded", "memgraph", "cat", 1, 1, 10, cfg),
		"catalog":    CampaignFingerprint("sharded", "reference", "cat2", 1, 1, 10, cfg),
		"workers":    CampaignFingerprint("sharded", "reference", "cat", 2, 1, 10, cfg),
		"iterations": CampaignFingerprint("sharded", "reference", "cat", 1, 1, 11, cfg),
		"batch":      CampaignFingerprint("sharded", "reference", "cat", 1, 4, 10, cfg),
	} {
		if other == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
}

// TestCheckpointedParallelResume: a sharded campaign canceled after some
// checkpoints resumes to the same merged stats, skipping completed
// shards.
func TestCheckpointedParallelResume(t *testing.T) {
	pcfg := shardTestConfig()
	pcfg.Workers = 1 // deterministic completion order for the kill point
	fp := CampaignFingerprint("sharded", "reference", "", pcfg.Workers, 1, pcfg.Iterations, pcfg.Runner)
	factory := func(int) (Target, error) { return newRefTarget(nil), nil }

	baseline := RunParallel(pcfg, factory, nil)

	path := ckPath(t)
	var canceled context.CancelFunc
	flushes := 0
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1,
		OnFlush: func(int) {
			if flushes++; flushes == 3 {
				canceled()
			}
		}}, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceled = cancel
	defer cancel()
	RunCheckpointedParallel(ctx, pcfg, "reference", factory, nil, ck, DurableHooks{})
	ck.Close()

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.ResumedUnits == 0 || st.ResumedUnits >= pcfg.Iterations {
		t.Fatalf("kill point restored %d units, want a partial campaign", st.ResumedUnits)
	}
	skipped := 0
	resumed := RunCheckpointedParallel(context.Background(), pcfg, "reference", factory, nil,
		re, DurableHooks{Restore: func(UnitRecord) { skipped++ }})
	re.Close()

	if skipped == 0 {
		t.Fatal("resume ran every shard from scratch")
	}
	if resumed.Robust.ResumeFastForwarded != skipped {
		t.Fatalf("ResumeFastForwarded = %d, want %d", resumed.Robust.ResumeFastForwarded, skipped)
	}
	if scrubCk(resumed.Stats) != scrubCk(baseline.Stats) {
		t.Fatalf("resumed merged stats diverge:\n  baseline: %+v\n  resumed:  %+v",
			scrubCk(baseline.Stats), scrubCk(resumed.Stats))
	}
	for i := range baseline.Shards {
		a, b := scrubCk(baseline.Shards[i].Stats), scrubCk(resumed.Shards[i].Stats)
		if a != b {
			t.Errorf("shard %d stats diverge after resume:\n  baseline: %+v\n  resumed:  %+v", i, a, b)
		}
	}
}

// TestCheckpointedParallelResumeThroughOutage: shards whose target never
// comes up (failed restart sequences, FailedIterations) are journaled
// like any other unit; a campaign killed after a flush inside the outage resumes into
// the merged stats of an uninterrupted run. Every shard builds a fresh
// runner, so no breaker state has to cross the kill.
func TestCheckpointedParallelResumeThroughOutage(t *testing.T) {
	pcfg := ParallelConfig{Workers: 1, Iterations: 8, Runner: tinyRunnerConfig()}
	pcfg.Runner.Seed = 17
	const downShards = 4 // shards [0, 4) never come up; the rest are healthy
	fp := CampaignFingerprint("sharded", "flaky", "", pcfg.Workers, 1, pcfg.Iterations, pcfg.Runner)
	factory := func(shard int) (Target, error) {
		return &flakyReset{Target: gdb.NewReference(), down: shard < downShards}, nil
	}

	base := RunParallel(pcfg, factory, nil)
	if base.Robust.FailedIterations != downShards || base.Robust.RestartFailures == 0 || base.Graphs == 0 {
		t.Fatalf("baseline scenario did not fail and heal: %+v", base.Robust)
	}

	// Durable run killed after the third flush: inside the outage.
	path := ckPath(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flushes := 0
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1,
		OnFlush: func(int) {
			if flushes++; flushes == 3 {
				cancel()
			}
		}}, fp)
	if err != nil {
		t.Fatal(err)
	}
	RunCheckpointedParallel(ctx, pcfg, "flaky", factory, nil, ck, DurableHooks{})
	ck.Close()

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	u, ok := re.Completed("flaky", 0)
	if !ok || u.Stats.Robust.FailedIterations != 1 || u.Queries != 0 {
		t.Fatalf("outage unit not recorded as a failed iteration with zero queries: %+v ok=%v", u, ok)
	}
	restored := 0
	resumed := RunCheckpointedParallel(context.Background(), pcfg, "flaky", factory, nil, re,
		DurableHooks{Restore: func(UnitRecord) { restored++ }})
	if restored != 3 {
		t.Fatalf("restored %d units, want 3", restored)
	}
	if got, want := scrubCk(resumed.Stats), scrubCk(base.Stats); got != want {
		t.Fatalf("stats diverge:\n  baseline: %+v\n  resumed:  %+v", want, got)
	}
}
