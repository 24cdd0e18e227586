package pipeline

import (
	"visasim/internal/isa"
	"visasim/internal/stats"
)

// Results summarises one simulation.
type Results struct {
	Cycles     uint64
	NumThreads int
	// Commits holds per-thread committed instruction counts.
	Commits []uint64

	ThroughputIPC float64
	HarmonicIPC   float64

	// Whole-run AVFs (ground truth unless noted).
	IQAVF        float64
	IQAVFTagged  float64 // tag-estimated (what DVM's counter hardware sees)
	ROBAVF       float64
	ROBAVFTagged float64
	RFAVF        float64
	FUAVF        float64

	// MaxIQAVF is the largest 10K-cycle interval IQ AVF (the paper's
	// MaxIQ_AVF reference for DVM thresholds); MaxROBAVF is the ROB
	// analogue used by the ROB-DVM extension.
	MaxIQAVF  float64
	MaxROBAVF float64

	Intervals []stats.Interval
	RQHist    *stats.RQHistogram

	// SkippedCycles counts measured-region cycles jumped by dead-cycle
	// skip-ahead while no uop was ready, parked loads counted as ready.
	// Skipped spans whose only ready uops are parked loads are not
	// counted. Every skipped cycle is included in Cycles and in every
	// per-cycle statistic; this is throughput telemetry only.
	SkippedCycles uint64

	// Event counts.
	L2Misses         uint64
	Mispredicts      uint64
	Fetched          uint64
	WrongPathFetched uint64
	Squashed         uint64
	Flushes          uint64

	// Per-stage telemetry (whole run; the per-interval series lives in
	// Intervals). PolicySwitches counts controller-driven fetch-policy
	// mode changes (FLUSH engaging or disengaging); DVMTriggers counts
	// waiting-queue throttle engagements; IQHighWater is the peak issue-
	// queue occupancy in the measured region.
	PolicySwitches uint64
	DVMTriggers    uint64
	IQHighWater    int

	// Diagnostics.
	L1IMissRate     float64
	L1DMissRate     float64
	L2MissRate      float64
	DTLBMissRate    float64
	MispredictRate  float64 // per conditional-direction lookup
	MeanIQOccupancy float64
	MeanReadyLen    float64

	// Mean dispatch→issue residency (cycles) by ACE tag, sampled on
	// integer-ALU instructions — the quantity VISA issue reduces for
	// vulnerable instructions.
	MeanResidencyTagged   float64
	MeanResidencyUntagged float64
	// Mean ready→issue wait by ACE tag (integer-ALU class): the portion
	// of residency the scheduler controls.
	MeanReadyWaitTagged   float64
	MeanReadyWaitUntagged float64

	// IQThreadShare attributes the IQ's ACE-bit-cycles to the thread
	// that contributed them (sums to 1 when the IQ saw any ACE bits):
	// on MIX workloads the memory-bound threads dominate, which is why
	// the paper's mechanisms target dispatch.
	IQThreadShare []float64

	// Squashed-instruction tag statistics: squashed instructions are
	// un-ACE, so tagged ones are false positives.
	SquashedTotal  uint64
	SquashedTagged uint64
}

// PVE returns the fraction of intervals whose IQ AVF exceeded threshold.
func (r *Results) PVE(threshold float64) float64 {
	return stats.PVE(r.Intervals, threshold)
}

// PVEROB returns the fraction of intervals whose ROB AVF exceeded
// threshold (the ROB-DVM extension's emergency metric).
func (r *Results) PVEROB(threshold float64) float64 {
	if len(r.Intervals) == 0 {
		return 0
	}
	n := 0
	for _, iv := range r.Intervals {
		if iv.ROBAVF > threshold {
			n++
		}
	}
	return float64(n) / float64(len(r.Intervals))
}

// TotalCommits returns the summed per-thread commits.
func (r *Results) TotalCommits() uint64 {
	var n uint64
	for _, c := range r.Commits {
		n += c
	}
	return n
}

// results finalises the run.
func (p *Processor) results() *Results {
	// Bring the lazily settled statistics up to date through the final
	// simulated cycle.
	p.settleAccounting(p.cycle)
	// Close a meaningful partial final interval (short runs would
	// otherwise record no intervals at all).
	if p.iqTrue.Cycles()-p.ivStartCycle >= p.intervalCycles/10 {
		p.closeInterval()
	}
	// Close register-file spans still open at the end of the run.
	for _, t := range p.threads {
		for r := 0; r < isa.NumRegs; r++ {
			p.closeRegSpan(t, isa.Reg(r))
			t.regs[r].valid = false
		}
	}

	cycles := p.cycle - p.statsCycle0
	r := &Results{
		Cycles:        cycles,
		NumThreads:    p.n,
		Commits:       make([]uint64, p.n),
		SkippedCycles: p.skippedCycles,

		// Whole-run IQ AVFs report the residual vulnerability after the
		// protection mode's mitigation (identity for the unprotected
		// default); interval AVFs were scaled the same way at close.
		IQAVF:        p.protAVF(p.iqTrue.AVF()),
		IQAVFTagged:  p.protAVF(p.iqTag.AVF()),
		ROBAVF:       p.robAcc.AVF(),
		ROBAVFTagged: p.robTag.AVF(),
		RFAVF:        p.rfAcc.AVF(),

		Intervals: p.intervals,
		RQHist:    p.rqHist,

		L2Misses:       p.mem.L2MissCount,
		Mispredicts:    p.bp.Mispredicts,
		SquashedTotal:  p.squashedTotal,
		SquashedTagged: p.squashedTagged,

		PolicySwitches: p.policySwitches,
		DVMTriggers:    p.dvmTriggers,
		IQHighWater:    p.iq.HighWater(),
	}
	for i, t := range p.threads {
		r.Commits[i] = t.commits
		r.Fetched += t.fetched
		r.WrongPathFetched += t.wrongFetched
		r.Squashed += t.squashed
		r.Flushes += t.flushes
	}
	r.ThroughputIPC = stats.ThroughputIPC(r.Commits, cycles)
	r.HarmonicIPC = stats.HarmonicIPC(r.Commits, cycles)
	r.MaxIQAVF = stats.MaxIQAVF(p.intervals)
	for _, iv := range p.intervals {
		if iv.ROBAVF > r.MaxROBAVF {
			r.MaxROBAVF = iv.ROBAVF
		}
	}

	// FU AVF: every unit's latch bits are vulnerable while it executes
	// an ACE instruction.
	var busyACE uint64
	for c := 0; c < int(isa.NumFUClasses); c++ {
		busyACE += p.fus.BusyCyclesACE[c]
	}
	if units := p.fus.TotalUnits(); units > 0 && cycles > 0 {
		r.FUAVF = float64(busyACE) / (float64(units) * float64(cycles))
	}

	r.IQThreadShare = make([]float64, p.n)
	if total := p.iqTrue.Sum(); total > 0 {
		for i := 0; i < p.n; i++ {
			r.IQThreadShare[i] = float64(p.iqThreadSum[i]) / float64(total)
		}
	}
	r.L1IMissRate = p.mem.L1I.MissRate()
	r.L1DMissRate = p.mem.L1D.MissRate()
	r.L2MissRate = p.mem.L2.MissRate()
	r.DTLBMissRate = p.mem.DTLB.MissRate()
	r.MispredictRate = p.bp.MispredictRate()
	if cycles > 0 {
		r.MeanIQOccupancy = float64(p.occSum) / float64(cycles)
	}
	r.MeanReadyLen = p.rqHist.MeanLen()
	if p.resTaggedCount > 0 {
		r.MeanResidencyTagged = float64(p.resTaggedSum) / float64(p.resTaggedCount)
		r.MeanReadyWaitTagged = float64(p.waitTaggedSum) / float64(p.resTaggedCount)
	}
	if p.resUntaggedCount > 0 {
		r.MeanResidencyUntagged = float64(p.resUntaggedSum) / float64(p.resUntaggedCount)
		r.MeanReadyWaitUntagged = float64(p.waitUntaggedSum) / float64(p.resUntaggedCount)
	}
	return r
}
