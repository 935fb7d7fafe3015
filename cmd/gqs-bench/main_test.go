package main

import (
	"strings"
	"testing"
)

func TestValidateExpAcceptsKnownNames(t *testing.T) {
	for _, name := range experimentNames {
		if err := validateExp(name); err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}

func TestValidateExpRejectsUnknownNames(t *testing.T) {
	for _, name := range []string{"fig99", "bench", "bench-regress", "", "Table3", "table3 "} {
		err := validateExp(name)
		if err == nil {
			t.Errorf("%q: accepted", name)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "-exp ") || strings.Contains(msg, "\n") {
			t.Errorf("%q: message %q is not a one-line message naming the flag", name, msg)
		}
	}
}

func TestValidateCounts(t *testing.T) {
	for _, tc := range []struct {
		iterations, n, rounds int
		flag                  string // "" when the counts are valid
	}{
		{60, 2000, 400, ""},
		{0, 0, 0, ""},
		{-1, 2000, 400, "-iterations"},
		{60, -1, 400, "-n"},
		{60, 2000, -1, "-rounds"},
		{-5, -5, -5, "-iterations"},
	} {
		err := validateCounts(tc.iterations, tc.n, tc.rounds)
		if tc.flag == "" {
			if err != nil {
				t.Errorf("%+v: unexpected error %v", tc, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%+v: accepted", tc)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, tc.flag+" must be >= 0") || strings.Contains(msg, "\n") {
			t.Errorf("%+v: message %q is not a one-line message naming %s", tc, msg, tc.flag)
		}
	}
}
