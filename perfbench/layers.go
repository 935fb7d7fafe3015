package main

import "time"

// metricDef names one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of the untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cases_per_s", "1/s", "higher"},
	{"cpu_us_per_case", "us", "lower"},
	{"findings", "count", "higher"},
	{"failed_share", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// timed expands a layer timing into its p50, tail, tail percentile and
// sample count metrics.
func timed(prefix string) []metricDef {
	return []metricDef{
		{prefix + ".p50_us", "us", "lower"},
		{prefix + ".tail_us", "us", "lower"},
		{prefix + ".tail_pct", "pct", "higher"},
		{prefix + ".samples", "count", "higher"},
		{prefix + ".share", "ratio", "lower"},
	}
}

// perLayer are the metrics of the traced runs, in BENCHMARK.json order.
// baselineLayer lists the ones only the baselines workload exercises;
// it is not in BENCHMARK.json, so its traced runs report them in
// addition.
var perLayer = concat(
	[]metricDef{
		{"graph.generate.ms", "ms", "lower"},
		{"graph.seal.ms", "ms", "lower"},
		{"graph.nodes", "count", "higher"},
		{"graph.rels", "count", "higher"},
		{"gdb.reset.us", "us", "lower"},
		{"gdb.resets", "count", "lower"},
	},
	timed("gdb.exec"),
	[]metricDef{
		{"gdb.exec.error_share", "ratio", "lower"},
		{"gdb.rows_mean", "count", "higher"},
		{"core.ground_truth.us", "us", "lower"},
		{"core.ground_truth.share", "ratio", "lower"},
	},
	timed("core.synthesize"),
	[]metricDef{
		{"core.synthesize.failure_share", "ratio", "lower"},
		{"core.query.steps_mean", "count", "higher"},
		{"core.query.bytes_mean", "bytes", "higher"},
	},
	timed("engine.prepare"),
	[]metricDef{
		{"engine.planned_share", "ratio", "higher"},
		{"core.compare.us", "us", "lower"},
		{"core.compare.share", "ratio", "lower"},
		{"core.verdicts.pass", "count", "higher"},
		{"core.verdicts.logic", "count", "higher"},
		{"core.verdicts.error", "count", "higher"},
		{"core.verdicts.skip", "count", "lower"},
		{"core.executor.busy_share", "ratio", "higher"},
		{"journal.snapshots", "count", "lower"},
		{"journal.bytes_per_iteration", "bytes", "lower"},
		{"trace.overhead_share", "ratio", "lower"},
	},
)

var baselineLayer = concat(
	timed("engine.text_exec"),
	[]metricDef{
		{"cypher.parse.p50_us", "us", "lower"},
		{"cypher.parse.share", "ratio", "lower"},
		{"baselines.oracle.share", "ratio", "lower"},
		{"baselines.false_positive_share", "ratio", "lower"},
	},
)

// exactLayer are the per-layer counters that must repeat exactly from
// run to run at one seed.
var exactLayer = []string{
	"graph.nodes", "graph.rels", "gdb.resets",
	"gdb.exec.error_share", "gdb.rows_mean",
	"core.synthesize.failure_share", "core.query.steps_mean", "core.query.bytes_mean",
	"engine.planned_share",
	"core.verdicts.pass", "core.verdicts.logic", "core.verdicts.error", "core.verdicts.skip",
	"baselines.false_positive_share",
	"gdb.exec.samples", "core.synthesize.samples", "engine.prepare.samples", "engine.text_exec.samples",
}

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// layerMetrics turns a traced replica's spans and counters, and the
// untraced unit it replayed, into the per-layer metrics.
func layerMetrics(rec *recorder, wall time.Duration, c *counters, out *outcome, u *unitStats) map[string]float64 {
	lt := selfTimes(rec.spans)
	w := float64(wall)
	m := map[string]float64{}
	addTimed := func(prefix, span string) {
		t := summarize(lt.durations[span])
		m[prefix+".p50_us"] = t.p50 / 1e3
		m[prefix+".tail_us"] = t.tail / 1e3
		m[prefix+".tail_pct"] = t.tailPct
		m[prefix+".samples"] = float64(t.n)
		m[prefix+".share"] = lt.self[span] / w
	}
	m["graph.generate.ms"] = mean(lt.durations[spanGenerate]) / 1e6
	m["graph.seal.ms"] = mean(lt.durations[spanSeal]) / 1e6
	m["graph.nodes"] = ratio(float64(c.nodes), float64(c.graphs))
	m["graph.rels"] = ratio(float64(c.rels), float64(c.graphs))
	m["gdb.reset.us"] = mean(lt.durations[spanReset]) / 1e3
	m["gdb.resets"] = float64(c.resets)
	addTimed("gdb.exec", spanExec)
	m["gdb.exec.error_share"] = ratio(float64(c.execErrors), float64(c.execs))
	m["gdb.rows_mean"] = ratio(float64(c.rows), float64(c.execs-c.execErrors))
	m["core.ground_truth.us"] = mean(lt.durations[spanGroundTruth]) / 1e3
	m["core.ground_truth.share"] = lt.self[spanGroundTruth] / w
	addTimed("core.synthesize", spanSynthesize)
	m["core.synthesize.failure_share"] = ratio(float64(c.synthFailures), float64(c.synths))
	m["core.query.steps_mean"] = ratio(float64(c.steps), float64(c.synths-c.synthFailures))
	m["core.query.bytes_mean"] = ratio(float64(c.queryBytes), float64(c.synths-c.synthFailures))
	addTimed("engine.prepare", spanPrepare)
	m["engine.planned_share"] = ratio(float64(c.planned), float64(c.prepared))
	addTimed("engine.text_exec", spanTextExec)
	m["cypher.parse.p50_us"] = summarize(lt.durations[spanParse]).p50 / 1e3
	m["cypher.parse.share"] = lt.self[spanParse] / w
	m["core.compare.us"] = mean(lt.durations[spanCompare]) / 1e3
	m["core.compare.share"] = lt.self[spanCompare] / w
	var pass, logic, errs, skip, rounds, fps int
	for _, l := range out.Legs {
		pass, logic, errs, skip = pass+l.Pass, logic+l.Logic, errs+l.Error, skip+l.Skip
		rounds, fps = rounds+l.Rounds, fps+l.FalsePositives
	}
	m["core.verdicts.pass"] = float64(pass)
	m["core.verdicts.logic"] = float64(logic)
	m["core.verdicts.error"] = float64(errs)
	m["core.verdicts.skip"] = float64(skip)
	m["baselines.oracle.share"] = lt.self[spanOracle] / w
	m["baselines.false_positive_share"] = ratio(float64(fps), float64(rounds))
	m["core.executor.busy_share"] = ratio(float64(u.busy), float64(u.capacity))
	m["journal.snapshots"] = float64(u.journal.Written)
	m["journal.bytes_per_iteration"] = ratio(float64(u.journal.Bytes), float64(u.iterations))
	m["trace.overhead_share"] = ratio(w, float64(u.cpu)) - 1
	return m
}
