// Command perfbench is the repository benchmark. It drives the GQS
// campaign executor and the baseline testers through the same public
// entry points cmd/gqs and cmd/gqs-bench call, and prints one JSON
// result line:
//
//	perfbench --workload paper-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload's unit of work for about
// --seconds and reports the end-to-end metrics (medians over campaigns).
// With --trace 1 it runs the unit's first campaign untraced and then a
// traced replica of it, checks that both reached the same verdicts, and
// reports the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupProbes is how many times a run measures set-up time before its
// units; each campaign of a GQS unit adds one more sample.
const setupProbes = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "paper-small", "workload: paper-small, scale-10k or baselines")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "how long the untraced run measures")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	stateDir := fl.String("state-dir", "", "directory for the span dump and the cross-run record of outcome digests and exact counters (none when empty)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	workDir := *stateDir
	if workDir == "" {
		workDir = os.TempDir()
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := env{seed: *seed, workers: runtime.NumCPU(), workDir: workDir}

	var res *result
	if *trace == 1 {
		res, err = traced(w, e, *stateDir, stderr)
	} else {
		res, err = measure(w, e, time.Duration(*seconds*float64(time.Second)), *stateDir, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure is the untraced run: set-up probes, then whole units of work
// until the next one would overrun the budget (at least one). Every unit
// must reach the same outcome. Rates are medians over campaigns, so a
// burst of load from elsewhere on the host that slows one campaign does
// not move them.
func measure(w workload, e env, budget time.Duration, stateDir string, log io.Writer) (*result, error) {
	start := time.Now()
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeSetup(w, e)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var first *unitStats
	var rates, cpus []float64
	units := 0
	res := &result{Correct: true}
	for {
		u, err := runUnit(w, e)
		if err != nil {
			return nil, err
		}
		units++
		if first == nil {
			first = u
		} else if d := diff(first.out, u.out); d != "" {
			return nil, fmt.Errorf("unit %d outcome differs from unit 1: %s", units, d)
		} else if u.journal.Written != first.journal.Written {
			return nil, fmt.Errorf("unit %d journaled %d snapshots, unit 1 %d", units, u.journal.Written, first.journal.Written)
		}
		for _, d := range u.setups {
			setups = append(setups, d.Seconds())
		}
		cases := u.out.cases()
		res.Attempted += cases
		res.Failed += u.opFailures
		rates = append(rates, u.rates...)
		cpus = append(cpus, u.cpus...)
		fmt.Fprintf(log, "unit %d: %d cases in %v, %v cpu, digest %s; per campaign: cases/s %.4g, cpu us/case %.4g\n",
			units, cases, u.wall.Round(time.Millisecond), u.cpu.Round(time.Millisecond), u.out.digest(), u.rates, u.cpus)
		if time.Since(start)+u.wall > budget {
			break
		}
	}
	digests := map[string]string{"unit": first.out.digest(), "campaign0": first.first.digest()}
	exact := map[string]float64{"unit.journal.snapshots": float64(first.journal.Written)}
	if err := checkRecord(stateDir, w.name, e.seed, digests, exact); err != nil {
		return nil, err
	}
	res.Metrics = metricValues(endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"cases_per_s":     median(rates),
		"cpu_us_per_case": median(cpus),
		"findings":        findingsMetric(first.out),
		"failed_share":    failedShare(first.out),
		"peak_rss_mb":     peakRSSMB(),
	})
	return res, nil
}

// traced runs the unit's first campaign untraced, then its traced
// replica, and fails unless both reach the same outcome.
func traced(w workload, e env, stateDir string, log io.Writer) (*result, error) {
	u, err := runCampaign(w, e, e.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rec := newRecorder()
	var c counters
	var out *outcome
	if w.gqs != nil {
		out, err = replicateGQS(w.gqs, e.seed, rec, &c)
	} else {
		out, err = replicateBaselines(w.rounds, e.seed, rec, &c)
	}
	wall := rec.wall()
	if err != nil {
		return nil, fmt.Errorf("traced replica: %w", err)
	}
	if d := diff(u.out, out); d != "" {
		return nil, fmt.Errorf("traced replica differs from the untraced run: %s", d)
	}
	fmt.Fprintf(log, "traced %d cases in %v (untraced %v wall, %v cpu), %d spans, digest %s\n",
		out.cases(), wall.Round(time.Millisecond), u.wall.Round(time.Millisecond), u.cpu.Round(time.Millisecond), len(rec.spans), out.digest())
	m := layerMetrics(rec, wall, &c, out, u)
	exact := map[string]float64{}
	for _, k := range exactLayer {
		exact[k] = m[k]
	}
	if err := checkRecord(stateDir, w.name, e.seed, map[string]string{"campaign0": out.digest()}, exact); err != nil {
		return nil, err
	}
	if stateDir != "" {
		path := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", w.name, e.seed))
		if err := rec.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	defs := perLayer
	if w.gqs == nil {
		defs = concat(perLayer, baselineLayer)
	}
	return &result{Correct: true, Attempted: out.cases(), Failed: u.opFailures, Metrics: metricValues(defs, m)}, nil
}

func metricValues(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// runRecord is what every run of a workload at one seed leaves behind
// for the next: the outcome digests (of the whole unit and of its first
// campaign, which traced runs replay) and the exact counters seen so far.
type runRecord struct {
	Digests map[string]string  `json:"digests"`
	Exact   map[string]float64 `json:"exact"`
}

// checkRecord compares the run's outcome digests and exact counters with
// those earlier runs of the same build recorded for the workload and
// seed, and records any not seen before. The record is keyed by a hash
// of the running executable, so a rebuilt program starts afresh.
func checkRecord(dir, workload string, seed int64, digests map[string]string, exact map[string]float64) error {
	if dir == "" {
		return nil
	}
	build, err := executableHash()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("record-%s-%s-seed%d.json", build, workload, seed))
	rec := runRecord{Digests: map[string]string{}, Exact: map[string]float64{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for k, d := range digests {
		if old, ok := rec.Digests[k]; ok && old != d {
			return fmt.Errorf("%s outcome digest %s differs from an earlier run's %s at seed %d", k, d, old, seed)
		}
		rec.Digests[k] = d
	}
	for k, v := range exact {
		if old, ok := rec.Exact[k]; ok && old != v {
			return fmt.Errorf("exact counter %s = %v differs from an earlier run's %v at seed %d", k, v, old, seed)
		}
		rec.Exact[k] = v
	}
	data, err = json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
