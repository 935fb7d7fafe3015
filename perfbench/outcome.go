package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
)

// leg is the canonical, timing-free outcome of one target (GQS) or one
// tester × GDB campaign (baselines). It is what the output check
// compares between runs and between the untraced and traced runs.
type leg struct {
	Name string `json:"name"`
	// GQS verdict tallies, as the runner's Stats counts them.
	Pass  int `json:"pass,omitempty"`
	Logic int `json:"logic,omitempty"`
	Error int `json:"error,omitempty"`
	Skip  int `json:"skip,omitempty"`
	// Unattributed counts logic and error reports that no injected fault
	// explains (the CLI's UNATTRIBUTED).
	Unattributed int `json:"unattributed,omitempty"`
	// Rounds and FalsePositives are the baseline campaign's oracle
	// rounds and the rounds it flagged without triggering a fault of the
	// GDB under test.
	Rounds         int `json:"rounds,omitempty"`
	FalsePositives int `json:"false_positives,omitempty"`
	// Found lists the distinct injected faults detected, by ID, with the
	// index of the case that first detected each.
	Found []finding `json:"found"`
}

type finding struct {
	ID    string `json:"id"`
	First int    `json:"first"`
}

// outcome is the canonical result of one unit of work.
type outcome struct {
	Legs []leg `json:"legs"`
}

// cases is the number of verdicts: GQS test cases, or baseline oracle
// rounds.
func (o *outcome) cases() int {
	n := 0
	for _, l := range o.Legs {
		n += l.Pass + l.Logic + l.Error + l.Skip + l.Rounds
	}
	return n
}

// failedCases counts cases without a usable, explained verdict: skips
// (synthesis failure, resource limit, timeout, transient give-up),
// reports no injected fault explains, and baseline false positives.
func (o *outcome) failedCases() int {
	n := 0
	for _, l := range o.Legs {
		n += l.Skip + l.Unattributed + l.FalsePositives
	}
	return n
}

// findings is the number of distinct injected faults detected in any
// leg. Fault IDs are unique across the GDB catalogs.
func (o *outcome) findings() int {
	ids := map[string]bool{}
	for _, l := range o.Legs {
		for _, f := range l.Found {
			ids[f.ID] = true
		}
	}
	return len(ids)
}

// failedShare is (failed + 1) / (cases + 1): the share of failed cases
// with one added to each side, so that it is never 0 on a clean campaign
// and reads exactly 1 when every case fails.
func failedShare(o *outcome) float64 {
	return float64(o.failedCases()+1) / float64(o.cases()+1)
}

// findingsMetric is the distinct faults detected plus one, so that the
// fault-free reference target reads 1 rather than 0.
func findingsMetric(o *outcome) float64 { return float64(o.findings() + 1) }

// digest is the FNV-64a hash of the outcome's canonical JSON.
func (o *outcome) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // plain structs of ints and strings always marshal
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// foundSet accumulates the first detection of each fault.
type foundSet map[string]int

func (f foundSet) add(id string, index int) {
	if first, ok := f[id]; !ok || index < first {
		f[id] = index
	}
}

func (f foundSet) sorted() []finding {
	out := make([]finding, 0, len(f))
	for id, first := range f {
		out = append(out, finding{ID: id, First: first})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// diff describes the first difference between two outcomes, "" when
// they are equal.
func diff(want, got *outcome) string {
	if len(want.Legs) != len(got.Legs) {
		return fmt.Sprintf("%d legs, want %d", len(got.Legs), len(want.Legs))
	}
	for i := range want.Legs {
		a, _ := json.Marshal(want.Legs[i])
		b, _ := json.Marshal(got.Legs[i])
		if string(a) != string(b) {
			return fmt.Sprintf("leg %s: got %s, want %s", want.Legs[i].Name, b, a)
		}
	}
	return ""
}
