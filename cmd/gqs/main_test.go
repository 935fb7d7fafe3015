package main

import (
	"math"
	"strings"
	"testing"
)

// validOptions mirrors the flag defaults.
func validOptions() options {
	return options{
		seed: 1, iterations: 30, maxNodes: 13, maxRels: 60, maxSteps: 9,
		resultSet: 6, retries: 2, workers: 2, ckEvery: 10,
	}
}

func TestValidateAcceptsBoundaries(t *testing.T) {
	for name, mut := range map[string]func(*options){
		"defaults":       func(*options) {},
		"zero iters":     func(o *options) { o.iterations = 0 },
		"one worker":     func(o *options) { o.workers = 1 },
		"auto batch":     func(o *options) { o.batch = 0 },
		"explicit batch": func(o *options) { o.batch = 7 },
		"graph scale":    func(o *options) { o.graphScale = 10000 },
		"every unit":     func(o *options) { o.ckEvery = 1 },
		"flaky 0":        func(o *options) { o.flaky = 0 },
		"flaky 1":        func(o *options) { o.flaky = 1 },
		"default sizes": func(o *options) {
			o.maxNodes, o.maxRels, o.maxSteps, o.resultSet = 0, 0, 0, 0
		},
	} {
		o := validOptions()
		mut(&o)
		if err := validate(o); err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		flag string
		mut  func(*options)
	}{
		{"-iterations", func(o *options) { o.iterations = -3 }},
		{"-workers", func(o *options) { o.workers = 0 }},
		{"-workers", func(o *options) { o.workers = -1 }},
		{"-batch", func(o *options) { o.batch = -1 }},
		{"-graph-scale", func(o *options) { o.graphScale = -5 }},
		{"-max-nodes", func(o *options) { o.maxNodes = -1 }},
		{"-max-rels", func(o *options) { o.maxRels = -2 }},
		{"-max-steps", func(o *options) { o.maxSteps = -1 }},
		{"-max-result-set", func(o *options) { o.resultSet = -3 }},
		{"-checkpoint-every", func(o *options) { o.ckEvery = 0 }},
		{"-flaky", func(o *options) { o.flaky = 2 }},
		{"-flaky", func(o *options) { o.flaky = -0.1 }},
		{"-flaky", func(o *options) { o.flaky = math.NaN() }},
	} {
		o := validOptions()
		tc.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("%s: bad value %+v accepted", tc.flag, o)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, tc.flag+" ") || strings.Contains(msg, "\n") {
			t.Errorf("%s: message %q is not a one-line message naming the flag", tc.flag, msg)
		}
	}
}
