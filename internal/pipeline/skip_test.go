package pipeline_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"visasim/internal/pipeline"
)

// TestSkipAheadPastParkedLoads pins the dead test's reading of the ready
// list: in a cycle whose only ready uops are loads parked behind unissued
// stores, and where no other stage has work, issue idles too, so skip-ahead
// must advance the clock. A run that takes such a skip and then finishes
// must equal a run stepped cycle by cycle.
func TestSkipAheadPastParkedLoads(t *testing.T) {
	const budget = 20_000
	proc := newProc(t, memMix, func(p *pipeline.Params) { p.MaxInstructions = budget })
	skipped := false
	for proc.TotalCommits() < budget && !skipped {
		proc.Step()
		c := proc.IQ().Census()
		if c.Ready == 0 || proc.IQ().Selectable() != 0 {
			continue
		}
		now := proc.Cycle()
		if skipped = proc.SkipAhead(now + 1<<20); skipped {
			if proc.Cycle() <= now {
				t.Fatalf("skip-ahead reported a skip at cycle %d but the clock reads %d", now, proc.Cycle())
			}
			if got := proc.IQ().Census(); got != c {
				t.Fatalf("skipped span changed the census: %+v, was %+v", got, c)
			}
		}
	}
	if !skipped {
		t.Fatal("skip-ahead never advanced past a cycle whose only ready uops were parked loads")
	}
	fast := proc.Run()
	slow := newProc(t, memMix, func(p *pipeline.Params) {
		p.MaxInstructions = budget
		p.DisableSkipAhead = true
	}).Run()
	fast.SkippedCycles = 0
	a, err := json.Marshal(fast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("results differ after a skip past parked loads\nskip: %s\nstep: %s", a, b)
	}
}
