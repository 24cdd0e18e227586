package pipeline_test

import (
	"runtime"
	"testing"

	"visasim/internal/pipeline"
)

// maxRunBytesPerInstr bounds the heap a memory-bound cell's core loop
// allocates per committed instruction. A 200k-instruction MEM-A run with a
// 50k warmup allocates about 2.9 B/instr, nearly all of it fixed per run
// (result assembly); the limit is twice that. A per-cell structure that
// grows with the cell's memory footprint breaks it: the per-cache MSHR hash
// map the caches once kept took the same run to about 11 B/instr.
const maxRunBytesPerInstr = 6

func TestRunAllocationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-instruction MEM-A run")
	}
	const budget = 200_000
	proc := newProc(t, memMix, func(p *pipeline.Params) {
		p.Streams = buildStreams(t, memMix, budget+budget/4)
		p.MaxInstructions = budget
		p.WarmupInstructions = budget / 4
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := proc.Run()
	runtime.ReadMemStats(&after)
	n := res.TotalCommits()
	if n < budget {
		t.Fatalf("committed %d of %d", n, budget)
	}
	perInstr := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("Run allocated %.2f B per committed instruction", perInstr)
	if perInstr > maxRunBytesPerInstr {
		t.Fatalf("Run allocated %.2f B per committed instruction, limit %d", perInstr, maxRunBytesPerInstr)
	}
}
