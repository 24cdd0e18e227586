package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"visasim/internal/core"
	"visasim/internal/workload"
)

// TestTopCoversTagMismatches lists every tagged PC with -top and checks
// the report against the cached profile: the listed mismatches sum to its
// TagMismatches, and they alone give the printed tag accuracy.
func TestTopCoversTagMismatches(t *testing.T) {
	const n, window = 30_000, 2000
	var out bytes.Buffer
	args := []string{"-benchmark", "gcc", "-n", fmt.Sprint(n), "-window", fmt.Sprint(window), "-top", "1000000"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileFor(workload.MustGet("gcc"), n, window)
	if err != nil {
		t.Fatal(err)
	}

	var sum, rows uint64
	var accuracy string
	for _, line := range strings.Split(out.String(), "\n") {
		var mis uint64
		if _, err := fmt.Sscanf(line, "  %d mismatches", &mis); err == nil {
			sum += mis
			rows++
		}
		if rest, ok := strings.CutPrefix(line, "tag accuracy"); ok {
			accuracy = strings.Fields(rest)[0]
		}
	}
	if tagged := prof.Tag.Count(prof.Tag.Len()); rows != tagged {
		t.Fatalf("-top listed %d PCs, profile tags %d", rows, tagged)
	}
	if sum != prof.TagMismatches {
		t.Fatalf("listed mismatches sum to %d, profile has %d", sum, prof.TagMismatches)
	}
	if want := fmt.Sprintf("%.3f", 1-float64(sum)/float64(prof.DynInstrs)); accuracy != want {
		t.Fatalf("printed accuracy %q, listed mismatches give %s", accuracy, want)
	}
}
