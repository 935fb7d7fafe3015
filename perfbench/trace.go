package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// Layer spans recorded by the traced replicas, one per call into a
// layer's public function.
const (
	spanGenerate    = "graph.generate"
	spanSeal        = "graph.seal"
	spanReset       = "gdb.reset"
	spanGroundTruth = "core.ground_truth"
	spanSynthesize  = "core.synthesize"
	spanPrepare     = "engine.prepare"
	spanExec        = "gdb.exec"
	spanCompare     = "core.compare"
	spanOracle      = "baselines.oracle"
	spanTextExec    = "engine.text_exec"
	spanParse       = "cypher.parse"
)

// span is one timed call. Start and End are nanoseconds since the
// recorder started; Parent is the index of the enclosing span (-1 at top
// level). Iter is the iteration (GQS) or graph round (baselines) the call
// served and Case the test case or oracle round, -1 for calls that serve
// a whole iteration.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Case   int    `json:"case"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine: the traced replicas are sequential.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of unfinished spans
	iter  int   // iteration the next spans belong to
	cas   int   // case the next spans belong to, -1 for none
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// at tags the spans that follow with an iteration and a case (-1 for
// calls that serve the whole iteration).
func (r *recorder) at(iter, cas int) { r.iter, r.cas = iter, cas }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Iter: r.iter, Case: r.cas})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	r.spans[i].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// wall is the time from the recorder's start to now.
func (r *recorder) wall() time.Duration { return time.Since(r.t0) }

// writeJSONL writes one span per line, gzip-compressed.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes groups the spans of each name: their durations and self
// times in nanoseconds, in recording order.
type layerTimes struct {
	durations map[string][]float64
	self      map[string]float64
}

// selfTimes computes, for every span name, the list of span durations
// and the summed self time: a span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) layerTimes {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	lt := layerTimes{durations: map[string][]float64{}, self: map[string]float64{}}
	for i, s := range spans {
		d := s.End - s.Start
		lt.durations[s.Name] = append(lt.durations[s.Name], float64(d))
		lt.self[s.Name] += float64(d - covered(s.Start, s.End, children[i]))
	}
	return lt
}

// covered returns how much of [start, end) the union of the intervals
// covers, clipping each interval to the window.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailPercentile picks the highest of p99, p95 and p90 that leaves at
// least ten samples above its nearest-rank position; 0 when even p90
// has fewer than ten beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if n-(rankIndex(p, n)+1) >= 10 {
			return p
		}
	}
	return 0
}

// timing summarises one layer's span durations.
type timing struct {
	p50, tail, tailPct float64 // nanoseconds; tailPct 0 = too few samples
	n                  int
}

func summarize(ds []float64) timing {
	t := timing{n: len(ds)}
	if len(ds) == 0 {
		return t
	}
	s := append([]float64(nil), ds...)
	sort.Float64s(s)
	t.p50 = s[rankIndex(50, len(s))]
	if p := tailPercentile(len(s)); p > 0 {
		t.tailPct, t.tail = p, s[rankIndex(p, len(s))]
	}
	return t
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
