package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // 10 samples above the 990th
		{999, 95},  // p99 leaves 9
		{200, 95},
		{199, 90}, // p95 leaves 9
		{100, 90},
		{99, 0}, // even p90 leaves 9
		{0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	ds := make([]float64, 200)
	for i := range ds {
		ds[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	tm := summarize(ds)
	if tm.p50 != 100 || tm.tailPct != 95 || tm.tail != 190 || tm.n != 200 {
		t.Errorf("summarize = %+v, want p50 100, p95 190, n 200", tm)
	}
	if tm := summarize(ds[:50]); tm.tailPct != 0 || tm.tail != 0 {
		t.Errorf("summarize of 50 samples reports tail p%v = %v, want none", tm.tailPct, tm.tail)
	}
}

func TestFailedShareAccounting(t *testing.T) {
	o := &outcome{Legs: []leg{
		// 10 GQS cases: one skip and one report no fault explains fail;
		// the attributed reports do not.
		{Name: "neo4j", Pass: 6, Logic: 2, Error: 1, Skip: 1, Unattributed: 1,
			Found: []finding{{ID: "N4J-1", First: 3}}},
		// 5 baseline rounds, one of them a false positive.
		{Name: "grev/neo4j", Rounds: 5, FalsePositives: 1,
			Found: []finding{{ID: "N4J-2", First: 0}, {ID: "N4J-3", First: 4}}},
	}}
	if got := o.cases(); got != 15 {
		t.Errorf("cases = %d, want 15", got)
	}
	if got := o.failedCases(); got != 3 {
		t.Errorf("failed cases = %d, want 3", got)
	}
	if got := failedShare(o); got != 4.0/16 {
		t.Errorf("failed_share = %v, want 4/16", got)
	}
	if got := findingsMetric(o); got != 4 {
		t.Errorf("findings = %v, want 3 + 1", got)
	}
	clean := &outcome{Legs: []leg{{Name: "neo4j", Pass: 99}}}
	if got := failedShare(clean); got != 1.0/100 {
		t.Errorf("clean failed_share = %v, want 1/100", got)
	}
	allBad := &outcome{Legs: []leg{{Name: "reference", Logic: 9, Unattributed: 9}}}
	if got := failedShare(allBad); got != 1 {
		t.Errorf("all-failing failed_share = %v, want 1", got)
	}
	if got := findingsMetric(allBad); got != 1 {
		t.Errorf("fault-free findings = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "outer", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},      // overlaps the first child
		{Name: "child", Start: 90, End: 120, Parent: 0},     // runs past the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1}, // counted against its parent only
	}
	lt := selfTimes(spans)
	// outer: 100 minus the union [10,50) ∪ [90,100) = 50.
	if got := lt.self["outer"]; got != 50 {
		t.Errorf("outer self = %v, want 50", got)
	}
	// children: 20-6 + 30 + 30.
	if got := lt.self["child"]; got != 74 {
		t.Errorf("child self = %v, want 74", got)
	}
	if got := lt.self["grandchild"]; got != 6 {
		t.Errorf("grandchild self = %v, want 6", got)
	}
	if got := len(lt.durations["child"]); got != 3 {
		t.Errorf("child durations = %d, want 3", got)
	}

	rec := newRecorder()
	a := rec.begin("a")
	b := rec.begin("b")
	rec.end(b)
	rec.end(a)
	c := rec.begin("c")
	rec.end(c)
	if rec.spans[b].Parent != a || rec.spans[c].Parent != -1 {
		t.Errorf("parents = %d, %d; want %d, -1", rec.spans[b].Parent, rec.spans[c].Parent, a)
	}
}

func TestCheckRecordRejectsChanges(t *testing.T) {
	dir := t.TempDir()
	d := func(kv ...string) map[string]string { return map[string]string{kv[0]: kv[1]} }
	if err := checkRecord(dir, "w", 1, d("unit", "aaaa"), map[string]float64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := checkRecord(dir, "w", 1, d("campaign0", "cccc"), map[string]float64{"x": 1, "y": 2}); err != nil {
		t.Fatalf("same outcome, new digest and counter: %v", err)
	}
	if err := checkRecord(dir, "w", 1, d("unit", "bbbb"), nil); err == nil {
		t.Error("a different digest at the same seed was accepted")
	}
	if err := checkRecord(dir, "w", 1, d("campaign0", "cccc"), map[string]float64{"y": 3}); err == nil {
		t.Error("a changed exact counter was accepted")
	}
	if err := checkRecord(dir, "w", 2, d("unit", "bbbb"), nil); err != nil {
		t.Errorf("another seed: %v", err)
	}
}

// shrink returns the workload with a few iterations or rounds, for a
// smoke run.
func shrink(w workload) workload {
	if w.gqs != nil {
		s := *w.gqs
		s.iterations = 3
		if s.scale > 0 {
			s.iterations = 1
		}
		w.gqs = &s
		w.campaigns = 2
	} else {
		w.rounds = 20
	}
	return w
}

// TestSmoke runs each workload shrunk, untraced and traced: both must
// pass the output check and report every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, full := range workloads {
		w := shrink(full)
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			e := env{seed: 3, workers: 2, workDir: dir}
			res, err := measure(w, e, 0, dir, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			tr, err := traced(w, e, dir, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			defs := perLayer
			if w.gqs == nil {
				defs = concat(perLayer, baselineLayer)
			}
			checkResult(t, tr, defs)
			if tr.Attempted*w.campaigns != res.Attempted {
				t.Errorf("traced %d cases of one campaign, untraced %d of %d", tr.Attempted, res.Attempted, w.campaigns)
			}
		})
	}
}

func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v, ok=%v", d.Name, m, ok)
		}
	}
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.Name]; ok && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Workloads {
		if _, err := workloadByName(b.Workloads[i].Name); err != nil {
			t.Error(err)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, name := range exactLayer {
		found := false
		for _, d := range concat(perLayer, baselineLayer) {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("exact counter %s is not a per-layer metric", name)
		}
	}
}
