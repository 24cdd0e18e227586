package main

import (
	"errors"
	"strings"
	"testing"
)

// TestParseSweepFlags covers every sweep command line parseSweepFlags
// refuses, plus the accepted shapes next to them, so a refusal never
// spreads to a valid one.
func TestParseSweepFlags(t *testing.T) {
	const url = "http://localhost:8080"
	for _, tc := range []struct {
		name string
		argv []string
		want string // substring of the error; "" means accepted
	}{
		{"local", []string{"-local", "-results-only", "-cells", "c.json"}, ""},
		{"local with workers and logging", []string{"-local", "-workers", "2", "-log-level", "info", "-log-format", "json"}, ""},
		{"backends", []string{"-backends", url, "-seed", "3", "-timeout", "1m", "-v"}, ""},
		{"backends with store", []string{"-backends", url, "-store", "ckpt", "-resume"}, ""},
		{"local with backends", []string{"-local", "-backends", url}, "-backends"},
		{"local with store", []string{"-local", "-store", "ckpt"}, "-store"},
		{"local with resume", []string{"-local", "-resume"}, "-resume"},
		{"local with seed", []string{"-local", "-seed", "1"}, "-seed"},
		{"local with timeout", []string{"-local", "-timeout", "1m"}, "-timeout"},
		{"local with v", []string{"-local", "-v"}, "-v"},
		{"neither local nor backends", []string{"-results-only"}, "-backends"},
		{"resume without store", []string{"-backends", url, "-resume"}, "-store"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseSweepFlags(tc.argv)
			var ue usageError
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want == "":
			case err == nil:
				t.Fatalf("accepted, want an error mentioning %s", tc.want)
			case !errors.As(err, &ue):
				t.Fatalf("error %q is not a usage error (exit 2)", err)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %s", err, tc.want)
			}
		})
	}
}
