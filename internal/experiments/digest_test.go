package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"
	"time"

	"gqs/internal/core"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// bulkCampaignDigest and scaleCampaignDigest are the FNV-64a of every
// case of the reference bulk campaigns below, in (shard, seq) order:
// 1000-node graphs for 8 iterations and 10k-node graphs for 2.
// Synthesis, graph-layout and executor changes must leave them
// unchanged: a different value means a query text, an RNG draw or a
// verdict moved.
const (
	bulkCampaignDigest  = "27ed95f09c49641c"
	scaleCampaignDigest = "d3db204ee978b37d"
)

// bulkCase is one test case of the reference bulk campaign.
type bulkCase struct {
	shard, seq     int
	query, verdict string
}

// runBulkCampaign runs GQS on the fault-free reference target over bulk
// graphs of the given scale — the scale-10k campaign shape — and returns
// every case sorted by (shard, seq). Nearly every case
// is a logic-bug verdict today: bulk relationships carry no `id`
// property, so a pin on one compares with null. The digest pins those
// verdicts as they stand.
func runBulkCampaign(workers, scale, iterations int) []bulkCase {
	const seed = 1
	cfg := core.DefaultRunnerConfig()
	cfg.Seed = seed
	cfg.Graph = graph.GenConfig{MaxNodes: 13, MaxRels: 60, Scale: scale}
	cfg.Synth.MaxSteps = 9
	cfg.Synth.Plan.MaxResultSet = 6
	cfg.Robust.Timeout = 20 * time.Second
	cfg.Robust.Retries = 2
	connect := gdb.NewFactory(gdb.FactoryConfig{GDB: "reference", Seed: seed})
	var mu sync.Mutex
	var cases []bulkCase
	pcfg := core.ParallelConfig{Workers: workers, Iterations: iterations, Batch: 1, Runner: cfg}
	core.RunCheckpointedParallel(context.Background(), pcfg, "reference",
		func(shard int) (core.Target, error) { return connect(shard) },
		func(shard int, _ core.Target, tc *core.TestCase) {
			mu.Lock()
			cases = append(cases, bulkCase{shard, tc.Seq, tc.Query, tc.Verdict.String()})
			mu.Unlock()
		}, nil, core.DurableHooks{})
	slices.SortFunc(cases, func(a, b bulkCase) int {
		if a.shard != b.shard {
			return a.shard - b.shard
		}
		return a.seq - b.seq
	})
	return cases
}

func digestCases(cases []bulkCase) string {
	h := fnv.New64a()
	for _, c := range cases {
		fmt.Fprintf(h, "%d\x00%d\x00%s\x00%s\n", c.shard, c.seq, c.query, c.verdict)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBulkCampaignDigest pins the per-case outcome of bulk-graph
// campaigns at two scales: every query text and verdict at one worker
// hashes to the recorded digest, and two workers produce the same cases.
func TestBulkCampaignDigest(t *testing.T) {
	for _, leg := range []struct {
		scale, iterations int
		digest            string
		// somePass requires a passing case. The 10k leg's two
		// iterations happen to have none: as above, nearly every bulk
		// case is a logic-bug verdict.
		somePass bool
	}{
		{1000, 8, bulkCampaignDigest, true},
		{10000, 2, scaleCampaignDigest, false},
	} {
		t.Run(fmt.Sprintf("scale%d", leg.scale), func(t *testing.T) {
			one := runBulkCampaign(1, leg.scale, leg.iterations)
			if want := leg.iterations * core.DefaultRunnerConfig().QueriesPerGraph * core.DefaultRunnerConfig().QueriesPerGT; len(one) != want {
				t.Fatalf("%d cases, want %d", len(one), want)
			}
			pass := 0
			for _, c := range one {
				if c.verdict == core.VerdictPass.String() {
					pass++
				}
			}
			if leg.somePass && pass == 0 {
				t.Fatal("no case passed: the campaign synthesized nothing checkable")
			}
			if got := digestCases(one); got != leg.digest {
				t.Fatalf("digest %s, want %s (%d cases, %d pass)", got, leg.digest, len(one), pass)
			}
			if two := runBulkCampaign(2, leg.scale, leg.iterations); !slices.Equal(one, two) {
				t.Fatal("1 and 2 workers produced different cases")
			}
		})
	}
}
