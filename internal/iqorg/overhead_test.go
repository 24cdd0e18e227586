package iqorg

import (
	"runtime"
	"testing"
	"time"

	"visasim/internal/isa"
	"visasim/internal/trace"
	"visasim/internal/uarch"
)

// overheadPool builds a pool of synthetic uops across four threads, one
// per queue slot, odd-indexed uops arriving with a pending source.
func overheadPool(n int) []*uarch.Uop {
	in := &isa.Inst{Kind: isa.IntALU, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	pool := make([]*uarch.Uop, n)
	for i := range pool {
		pool[i] = &uarch.Uop{Dyn: trace.DynInst{Static: in}, Thread: int32(i % 4), IQSlot: -1, LSQSlot: -1}
	}
	return pool
}

// overheadPass is one fill/wake/drain op mix shaped like the pipeline's
// hot path: storage operations (Insert, Wake, Remove) always go straight
// to the shared queue; the policy decisions (CanAccept, Select, EndCycle)
// dispatch through the Organization interface when org is non-nil and are
// hand-inlined to the unified-AGE behaviour when it is nil — reproducing
// the seed's pre-extraction loop.
func overheadPass(org Organization, q *uarch.IQ, pool []*uarch.Uop, age uint64) uint64 {
	const issueWidth = 8
	for i, u := range pool {
		u.Age = age + uint64(i)
		u.SrcPending = int8(i & 1)
		if org != nil && !org.CanAccept(int(u.Thread)) {
			u.SrcPending = 0
			continue
		}
		q.Insert(u)
	}
	for _, u := range pool {
		if u.IQSlot >= 0 && u.SrcPending != 0 {
			u.SrcPending = 0
			q.Wake(u)
		}
	}
	cycles := uint64(0)
	for q.Len() > 0 {
		var sel []int32
		if org != nil {
			sel = org.Select(uarch.SchedOldestFirst)
		} else {
			sel = q.ReadyCandidates(uarch.SchedOldestFirst)
		}
		if len(sel) > issueWidth {
			sel = sel[:issueWidth]
		}
		for _, slot := range sel {
			q.Remove(q.At(int(slot)))
		}
		if org != nil {
			org.EndCycle(age + cycles)
		}
		cycles++
	}
	return cycles
}

// newOrgOpaque launders the constructor through a package-level variable so
// the compiler cannot devirtualize the interface calls under test.
var newOrgOpaque = func(q *uarch.IQ) Organization { return NewUnified(q) }

// TestInterfaceOverhead pins the tentpole's performance bar: routing the
// issue-queue policy seam (CanAccept, Select, EndCycle) through the
// Organization interface must cost less than 5% over the seed's direct
// unified-AGE loop on the bare *uarch.IQ. Paired best-of-N ratio timing
// over the test thread's own CPU time keeps the comparison robust to
// scheduler noise and machine load.
func TestInterfaceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short mode")
	}
	const (
		iqSize   = 96
		passes   = 1000 // ~5ms per trial: large enough to time reliably
		trials   = 12
		attempts = 5 // re-measure on a miss; fail only if consistently over
	)
	pool := overheadPool(iqSize)

	// Warm both paths once so neither trial set pays first-touch costs.
	qDirect := uarch.NewIQ(iqSize)
	org := newOrgOpaque(uarch.NewIQ(iqSize))
	overheadPass(nil, qDirect, pool, 0)
	overheadPass(org, org.Queue(), pool, uint64(iqSize)+1)

	// The estimator targets the *intrinsic* overhead, so it must survive
	// the suite running packages in parallel, where contention inflates
	// indirect calls beyond their quiet-machine cost. Each block is timed
	// by the CPU time of the OS thread the test holds, not wall time, so
	// the cycles other processes take while it waits are not charged to
	// whichever variant happened to be running. Variants alternate
	// trial by trial and each takes its minimum block time across the
	// attempt — its quietest window — so a load spike has to cover every
	// window of one variant to skew the ratio; re-measuring on a miss
	// (attempts) rides out sustained spikes. The attempts' ratios are
	// logged (go test -v); perfbench's iqorg.self_share tracks the layer's
	// cost inside whole simulations.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	measure := func() float64 {
		direct, viaOrg := time.Duration(1<<62), time.Duration(1<<62)
		for trial := 0; trial < trials; trial++ {
			age := uint64(0)
			t0 := threadCPU()
			for p := 0; p < passes; p++ {
				age += uint64(iqSize) + overheadPass(nil, qDirect, pool, age)
			}
			if d := threadCPU() - t0; d < direct {
				direct = d
			}
			t0 = threadCPU()
			for p := 0; p < passes; p++ {
				age += uint64(iqSize) + overheadPass(org, org.Queue(), pool, age)
			}
			if d := threadCPU() - t0; d < viaOrg {
				viaOrg = d
			}
		}
		return float64(viaOrg)/float64(direct) - 1
	}

	var overhead float64
	for attempt := 1; attempt <= attempts; attempt++ {
		overhead = measure()
		t.Logf("attempt %d: interface overhead %+.2f%% (per-variant best of %d trials)",
			attempt, 100*overhead, trials)
		if overhead < 0.05 {
			return
		}
	}
	t.Errorf("Organization interface overhead %.2f%% >= 5%% on %d consecutive measurements",
		100*overhead, attempts)
}
