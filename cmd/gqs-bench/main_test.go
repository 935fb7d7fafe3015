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
