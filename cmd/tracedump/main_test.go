package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/pipeline"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

// TestUsageExits2 checks that command lines which cannot run as given exit
// 2 before doing any work, and that a valid replay of the same trace exits
// 0: a negative -counterfactual-k is refused, not run as an untouched
// replay.
func TestUsageExits2(t *testing.T) {
	_, tr, err := core.RunTraced(core.Config{
		Benchmarks:      []string{"mcf", "equake", "vpr", "swim"},
		Scheme:          core.SchemeVISAOpt2,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: 20_000,
	}, core.RunOptions{TraceLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell.ndjson.gz")
	if err := decision.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"nonesuch"}, 2},
		{[]string{"ace", "-bogus"}, 2},
		{[]string{"profile", "-top", "-1"}, 2},
		{[]string{"diff", path}, 2},
		{[]string{"show"}, 2},
		{[]string{"replay", "-counterfactual-k", "-1", path}, 2},
		{[]string{"replay", path}, 0},
		{[]string{"profile", "-benchmark", "nonesuch"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("tracedump %q exited %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
		}
	}
}

// TestACEColumnsMatchProfile checks the ace window's truth and tag columns
// against the cached profile the subcommand reads, instruction by
// instruction.
func TestACEColumnsMatchProfile(t *testing.T) {
	const skip, n = 1000, 40
	var out, stderr bytes.Buffer
	if code := run([]string{"ace", "-benchmark", "gcc", "-skip", fmt.Sprint(skip), "-n", fmt.Sprint(n)}, &out, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b := workload.MustGet("gcc")
	prof, err := core.ProfileFor(b, skip+n+aceTail, ace.DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.ProgramFor(b)
	if err != nil {
		t.Fatal(err)
	}
	exec := trace.NewExecutor(prog, b.Params.Seed, 0)
	var d trace.DynInst
	for i := 0; i < skip; i++ {
		exec.Next(&d)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != n+1 {
		t.Fatalf("%d lines, want a header and %d rows", len(lines), n)
	}
	label := map[bool][2]string{false: {"unACE", "-"}, true: {"ACE", "ACE"}}
	for i, line := range lines[1:] {
		exec.Next(&d)
		f := strings.Fields(line)
		seq, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil || seq != d.Seq {
			t.Fatalf("row %d: seq %q, want %d", i, f[0], d.Seq)
		}
		if want := label[prof.Bits.Get(d.Seq)][0]; f[1] != want {
			t.Errorf("seq %d: truth %s, profile says %s", d.Seq, f[1], want)
		}
		if want := label[prof.Tag.Get(uint64(prog.IndexOf(d.Static.PC)))][1]; f[2] != want {
			t.Errorf("seq %d: tag %s, profile says %s", d.Seq, f[2], want)
		}
	}
}

// TestTopCoversTagMismatches lists every tagged PC with -top and checks
// the report against the cached profile: the listed mismatches sum to its
// TagMismatches, and they alone give the printed tag accuracy. The
// per-kind rows partition the profile's instance, ACE and mismatch counts.
func TestTopCoversTagMismatches(t *testing.T) {
	const n = 30_000
	var out, stderr bytes.Buffer
	if code := run([]string{"profile", "-benchmark", "gcc", "-n", fmt.Sprint(n), "-top", "1000000"}, &out, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b := workload.MustGet("gcc")
	prof, err := core.ProfileFor(b, n, ace.DefaultWindow)
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

	prog, err := core.ProgramFor(b)
	if err != nil {
		t.Fatal(err)
	}
	instances, aceInstances := ace.PCCounts(prog, b.Params.Seed, 0, prof)
	var total kindCounts
	for _, c := range byKind(prog, prof.Tag, instances, aceInstances) {
		total.static += c.static
		total.tagged += c.tagged
		total.instances += c.instances
		total.ace += c.ace
		total.mismatch += c.mismatch
	}
	want := kindCounts{
		static:    prog.Len(),
		tagged:    int(prof.Tag.Count(prof.Tag.Len())),
		instances: prof.DynInstrs,
		ace:       prof.DynACE,
		mismatch:  prof.TagMismatches,
	}
	if total != want {
		t.Fatalf("per-kind rows sum to %+v, profile has %+v", total, want)
	}
}
