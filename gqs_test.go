package gqs

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestDBQuickstart(t *testing.T) {
	db := NewDB()
	LoadExample(db)
	r := db.MustExecute(`MATCH (p:USER)-[l:LIKE]->(m:MOVIE)
		WHERE p.name = 'Alice' AND l.rating >= 8
		RETURN m.name AS name, m.year AS year`)
	if r.Len() != 1 || r.Rows[0][0].AsString() != "Heat" {
		t.Fatalf("quickstart query: %v", r)
	}
	if _, err := db.Execute(`THIS IS NOT CYPHER`); err == nil {
		t.Error("bad query must error")
	}
}

func TestMustExecutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExecute must panic on error")
		}
	}()
	NewDB().MustExecute(`(`)
}

func TestOpenSim(t *testing.T) {
	for _, name := range []string{"neo4j", "memgraph", "kuzu", "falkordb", "reference"} {
		if _, err := OpenSim(name); err != nil {
			t.Errorf("OpenSim(%s): %v", name, err)
		}
	}
	if _, err := OpenSim("sqlite"); err == nil {
		t.Error("unknown sim must error")
	}
}

func TestTesterEndToEnd(t *testing.T) {
	sim, err := OpenSim("falkordb")
	if err != nil {
		t.Fatal(err)
	}
	tester := NewTester(sim,
		WithSeed(3),
		WithGraphSize(10, 30),
		WithMaxSteps(7),
		WithQueriesPerGraph(5),
	)
	bugs := 0
	stats, err := tester.Run(10, func(tc *TestCase) {
		if tc.Verdict == VerdictLogicBug || tc.Verdict == VerdictErrorBug {
			bugs++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries ran")
	}
	if bugs == 0 {
		t.Error("the falkordb sim should yield bugs")
	}
}

// TestShardedTesterEndToEnd: the public sharded API fans iterations
// across a worker pool, and the merged stats match a one-worker run of
// the same seed (wall-clock fields aside).
func TestShardedTesterEndToEnd(t *testing.T) {
	factory := func(shard int) (Target, error) { return OpenSim("falkordb") }
	run := func(workers int) Stats {
		t.Helper()
		tester := NewShardedTester(factory,
			WithSeed(3),
			WithGraphSize(10, 30),
			WithMaxSteps(7),
			WithQueriesPerGraph(5),
			WithWorkers(workers),
		)
		cases := 0
		stats, err := tester.Run(8, func(tc *TestCase) { cases++ })
		if err != nil {
			t.Fatal(err)
		}
		if cases != stats.Queries {
			t.Fatalf("report saw %d cases, stats count %d", cases, stats.Queries)
		}
		stats.Elapsed = 0
		stats.Robust.Downtime = 0
		return stats
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("sharded stats differ across worker counts:\n  workers=1: %+v\n  workers=4: %+v", one, four)
	}
	if one.Queries == 0 {
		t.Fatal("no queries ran")
	}
}

// TestTesterResilienceOptions: the public API drives the hardened runner
// against live faults — the campaign survives real hangs and reports what
// the resilience layer absorbed.
func TestTesterResilienceOptions(t *testing.T) {
	sim, err := OpenSim("falkordb")
	if err != nil {
		t.Fatal(err)
	}
	sim.SetLiveFaults(true)
	tester := NewTester(sim,
		WithSeed(3),
		WithGraphSize(10, 30),
		WithTimeout(25*time.Millisecond),
		WithRetries(1),
	)
	stats, err := tester.Run(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries ran")
	}
	if stats.Robust.Timeouts == 0 && stats.Robust.PanicsRecovered == 0 {
		t.Errorf("live falkordb faults should exercise the resilience layer: %+v", stats.Robust)
	}
}

func TestSynthesize(t *testing.T) {
	q, expected, err := Synthesize(42, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if q == "" || expected == nil || len(expected.Columns) == 0 {
		t.Fatalf("Synthesize returned %q / %v", q, expected)
	}
	// Determinism.
	q2, _, _ := Synthesize(42, 10, 30)
	if q != q2 {
		t.Error("Synthesize must be deterministic per seed")
	}
}

// ckStatsScrub zeroes the wall-clock and checkpoint-accounting fields so
// durable and plain campaign stats can be compared for equality.
func ckStatsScrub(s Stats) Stats {
	s.Elapsed = 0
	s.Robust.Downtime = 0
	s.Robust.ResumeFastForwarded = 0
	s.Robust.CheckpointsWritten = 0
	s.Robust.CheckpointBytes = 0
	s.Robust.LastCheckpointAge = 0
	return s
}

// TestTesterRunContextCheckpointResume: the public checkpoint API — a
// campaign canceled mid-run resumes from its journal and converges on
// the stats an uninterrupted run produces, on both tester shapes. A
// NewTester target runs on the sharded executor at one worker; it must
// keep its prepared-execution extension (TestCase.Features is set only
// on the prepared path) and stay open for Run afterwards.
func TestTesterRunContextCheckpointResume(t *testing.T) {
	const iters = 6
	shapes := []struct {
		name string
		make func(opts ...TesterOption) *Tester
	}{
		{"target", func(opts ...TesterOption) *Tester {
			sim, err := OpenSim("falkordb")
			if err != nil {
				t.Fatal(err)
			}
			return NewTester(sim, opts...)
		}},
		{"sharded", func(opts ...TesterOption) *Tester {
			factory := func(shard int) (Target, error) { return OpenSim("falkordb") }
			return NewShardedTester(factory, append(opts, WithWorkers(2))...)
		}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			base := []TesterOption{WithSeed(3), WithGraphSize(10, 30), WithMaxSteps(7), WithQueriesPerGraph(5)}
			want, err := shape.make(base...).RunContext(context.Background(), iters, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Cancel half-way through the case stream: late enough that some
			// work units have completed (and flushed, with Every=1), early
			// enough that queued units are still pending.
			cancelAt := want.Queries / 2
			want = ckStatsScrub(want)

			path := filepath.Join(t.TempDir(), "tester.journal")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cases, prepared := 0, 0
			durable := append(append([]TesterOption{}, base...), WithCheckpoint(path, 1))
			partial, err := shape.make(durable...).RunContext(ctx, iters, func(tc *TestCase) {
				if tc.Features != nil {
					prepared++
				}
				if cases++; cases == cancelAt {
					cancel()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if partial.Queries >= want.Queries {
				t.Fatalf("cancellation did not interrupt: partial ran %d of %d queries", partial.Queries, want.Queries)
			}
			if prepared == 0 {
				t.Error("no test case took the prepared path: the target's extensions were hidden")
			}

			tester := shape.make(append(durable, WithResume())...)
			resumed, err := tester.RunContext(context.Background(), iters, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Robust.ResumeFastForwarded == 0 {
				t.Error("resume restored nothing")
			}
			if got := ckStatsScrub(resumed); got != want {
				t.Errorf("resumed stats diverge:\n  resumed: %+v\n  want:    %+v", got, want)
			}
			after, err := tester.Run(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if after.Passes == 0 || after.Robust.FailedIterations != 0 {
				t.Errorf("Run after RunContext passed %d queries with %d failed iterations: the target was closed",
					after.Passes, after.Robust.FailedIterations)
			}
		})
	}
}

// TestTesterResumeRefusesChangedSeed: WithResume under a changed
// configuration is refused with ErrFingerprintMismatch.
func TestTesterResumeRefusesChangedSeed(t *testing.T) {
	sim, err := OpenSim("reference")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tester.journal")
	if _, err := NewTester(sim, WithSeed(3), WithCheckpoint(path, 1)).RunContext(context.Background(), 2, nil); err != nil {
		t.Fatal(err)
	}
	_, err = NewTester(sim, WithSeed(4), WithCheckpoint(path, 1), WithResume()).RunContext(context.Background(), 2, nil)
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("resume with a changed seed: err = %v, want ErrFingerprintMismatch", err)
	}
}
