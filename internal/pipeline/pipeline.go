// Package pipeline implements the cycle-driven 8-wide SMT processor model:
// fetch (ICOUNT-family policies), decode, rename, dispatch into a shared
// issue queue, schedule (baseline or VISA), execute on Table 2's function
// units against a realistic memory hierarchy, and in-order per-thread
// commit — with branch misprediction and wrong-path execution, FLUSH-style
// thread squashing, and bit-level AVF accounting for the issue queue,
// reorder buffer, register file and function units.
//
// Stages are evaluated in reverse order each cycle (commit → writeback →
// issue → dispatch → fetch), so results complete before consumers are
// selected (modelling bypass) and a uop moves at most one stage per cycle.
package pipeline

import (
	"fmt"

	"visasim/internal/avf"
	"visasim/internal/branch"
	"visasim/internal/cache"
	"visasim/internal/config"
	"visasim/internal/decision"
	"visasim/internal/iqorg"
	"visasim/internal/program"
	"visasim/internal/stats"
	"visasim/internal/trace"
	"visasim/internal/uarch"
)

// wheelSize is the completion wheel capacity; it must exceed the largest
// possible completion latency (TLB miss + L2 + memory ≈ 420 cycles).
const wheelSize = 1024

// Params configures one simulation.
type Params struct {
	Machine   config.Machine
	Scheduler uarch.Scheduler
	Policy    FetchPolicyKind
	// Controller implements dynamic IQ allocation or DVM; nil runs the
	// unmanaged machine.
	Controller Controller
	// Streams supplies one oracle stream per thread (1..MaxThreads).
	Streams []*trace.Stream
	// MaxInstructions stops the run once total commits reach it
	// (counted after warmup).
	MaxInstructions uint64
	// MaxCycles is the safety stop (0 selects 64×MaxInstructions),
	// counted after warmup.
	MaxCycles uint64
	// WarmupInstructions are committed before statistics collection
	// begins, letting caches and predictors reach steady state (the
	// paper fast-forwards to SimPoint regions for the same reason).
	WarmupInstructions uint64
	// OracleTags replaces the profiled per-PC ACE tags with perfect
	// per-instance ACE-ness at fetch (ablation: how much do profiling
	// false positives cost the VISA mechanisms?).
	OracleTags bool
	// IntervalCycles overrides the statistics/controller interval
	// (IntervalCycles constant when 0; ablation knob).
	IntervalCycles int
	// InvariantEvery, when positive, cross-checks the incrementally
	// maintained counters against a full O(machine-size) walk every N
	// cycles during Run (see CheckInvariants). Zero disables checking;
	// long-running tests sample (e.g. every few thousand cycles) so the
	// fast-path bookkeeping stays validated without O(n) work per cycle.
	InvariantEvery uint64
	// Decisions, when non-nil, receives a decision.Event at every
	// edge-detected policy decision (DVM triggers, allocation-cap and
	// FLUSH-engagement changes, dispatch-gate changes; see decisions.go).
	// Recording is observation only: attaching a sink never changes the
	// simulated machine.
	Decisions decision.Sink
	// Forced is the counterfactual-replay override schedule; empty forces
	// nothing. Overrides are applied after the live controller decides,
	// so a replayed run re-decides everything else exactly as recorded.
	Forced decision.Schedule
	// DisableSkipAhead forces cycle-by-cycle execution even when the run
	// is eligible for dead-cycle skip-ahead (controller-less, no forced
	// schedule). Results must be identical either way; the parity tests
	// pin that.
	DisableSkipAhead bool
	// Pool, when non-nil, supplies the uop free list, letting sequential
	// runs (a sweep worker's cells) share one steady-state allocation.
	// Safe only for strictly sequential runs; nil allocates a private pool.
	Pool *uarch.UopPool
}

// Processor is the simulated SMT core.
type Processor struct {
	cfg     config.Machine
	n       int
	threads []*thread

	// org is the issue queue's policy layer (admission, candidate
	// selection, mode bookkeeping); iq is its storage layer, shared by
	// every organization. Storage operations — Insert, Remove, Wake,
	// Census, occupancy reads, slot walks, invariant checks, fault
	// injection — go straight to iq: every organization forwards them
	// unchanged, so the indirection would buy nothing and the issue
	// hot path stays devirtualized. Only the policy decisions
	// (CanAccept, Select, EndCycle) dispatch through org.
	org   iqorg.Organization
	iq    *uarch.IQ
	fus   *uarch.FUPools
	mem   *cache.Hierarchy
	bp    *branch.Predictor
	sched uarch.Scheduler
	pol   *policyState
	ctrl  Controller
	dec   Decision

	// Issue-queue protection: reported IQ AVF scales by protScale
	// (1 - mitigation) and every result broadcast pays protWake extra
	// cycles (see iqorg.ProtCost). protScale is 1 and protWake 0 for the
	// unprotected default, leaving the hot path untouched.
	prot      iqorg.Protection
	protScale float64
	protWake  uint64

	// Decision tracing and forced replay (see decisions.go). decForced
	// flags that this cycle's decision carries schedule overrides.
	sink      decision.Sink
	forced    decision.Schedule
	decForced bool

	budget

	cycle        uint64
	statsCycle0  uint64 // cycle at last ResetStats
	age          uint64
	totalCommits uint64
	occSum       uint64 // Σ IQ occupancy per measured cycle

	oracleTags     bool
	intervalCycles uint64
	sampleCycles   uint64
	invariantEvery uint64

	wheel    [wheelSize][]*uarch.Uop
	flushReq []*uarch.Uop

	// Wheel occupancy index for skip-ahead: one bit per slot (set iff the
	// slot's list is non-empty) plus the total in-flight entry count, so
	// the next completion event is a word scan away instead of a walk.
	wheelBits  [wheelSize / 64]uint64
	wheelCount int

	// Dead-cycle skip-ahead (see skip.go). skipOK gates eligibility for
	// the whole run: no controller, no forced schedule, not disabled.
	skipOK        bool
	skippedCycles uint64

	// pool recycles uop allocations; fetch draws from it and commit,
	// squash and the completion wheel return to it. It may be shared with
	// other (strictly sequential) runs via Params.Pool.
	pool *uarch.UopPool

	// fetchCands is the fetch stage's reusable priority scratch.
	fetchCands [uarch.MaxThreads]fetchCand

	// stepView is Step's reusable controller-view scratch (see Step).
	stepView View

	// Per-thread IQ ACE-bit attribution (ground truth): current
	// resident bits and their lazily settled per-cycle integral
	// (occSum follows the same discipline; see settleIQStats).
	iqThreadAce    [uarch.MaxThreads]uint64
	iqThreadSum    [uarch.MaxThreads]uint64
	iqStatsSettled uint64 // absolute cycle occSum/iqThreadSum cover

	// AVF accounting.
	iqTrue *avf.Accumulator
	iqTag  *avf.Accumulator
	robAcc *avf.Accumulator
	robTag *avf.Accumulator
	rfAcc  *avf.SpanAccumulator

	// Per-cycle census (computed after writeback, before issue).
	census uarch.Census

	// Interval machinery.
	intervals      []stats.Interval
	rqHist         *stats.RQHistogram
	ivStartCycle   uint64
	ivStartCommits uint64
	ivStartL2      uint64
	ivStartTrue    uint64 // iqTrue.Sum() at interval start
	ivStartTag     uint64
	ivStartROB     uint64 // robAcc.Sum() at interval start
	ivStartROBTag  uint64
	ivReadySum     uint64
	prevIPC        float64
	prevMeanRQL    float64
	prevL2         uint64

	sampStartTag     uint64
	sampStartROBTag  uint64
	sampStartCycles  uint64
	lastSampleAVF    float64
	lastSampleROBAVF float64
	sampleIdx        int

	// Per-stage telemetry: controller-driven fetch-policy mode changes
	// (FLUSH engaging/disengaging) and waiting-queue throttle engagements
	// (DVM triggers), cumulative since ResetStats, with the previous
	// cycle's decision state for edge detection; ivStart* carry the
	// interval deltas.
	policySwitches  uint64
	dvmTriggers     uint64
	prevUseFlush    bool
	prevWaitCapped  bool
	recPrevIQLCap   int
	recPrevGate     uint8
	recPrevSample   int
	ivStartOcc      uint64
	ivStartSwitches uint64
	ivStartTriggers uint64

	// Squashed-instruction tag accounting (Table 1's second accuracy
	// figure): a squashed instruction's ground truth is un-ACE, so a
	// set ACE tag is a false positive.
	squashedTotal  uint64
	squashedTagged uint64

	// Per-class issue-queue accounting split by ACE tag: full
	// dispatch→issue residency, and ready→issue wait (the portion the
	// scheduler controls — VISA's lever).
	resTaggedSum     uint64
	resTaggedCount   uint64
	resUntaggedSum   uint64
	resUntaggedCount uint64
	waitTaggedSum    uint64
	waitUntaggedSum  uint64
}

// New builds a processor. The thread count is len(p.Streams).
func New(p Params) (*Processor, error) {
	p.Machine = p.Machine.Canonical()
	if err := p.Machine.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Streams)
	if n < 1 || n > uarch.MaxThreads {
		return nil, fmt.Errorf("pipeline: %d threads outside 1..%d", n, uarch.MaxThreads)
	}
	if p.MaxInstructions == 0 {
		return nil, fmt.Errorf("pipeline: zero instruction budget")
	}
	if p.MaxCycles == 0 {
		p.MaxCycles = 64 * p.MaxInstructions
	}
	m := p.Machine
	org, err := iqorg.New(m)
	if err != nil {
		return nil, err
	}
	prot, err := iqorg.ParseProtection(m.IQProtection)
	if err != nil {
		return nil, err
	}
	proc := &Processor{
		cfg:       m,
		n:         n,
		org:       org,
		iq:        org.Queue(),
		prot:      prot,
		protScale: prot.AVFScale(),
		protWake:  uint64(prot.Cost().WakeupLatency),
		fus:       uarch.NewFUPools(m.FUCount()),
		mem:       cache.NewHierarchy(m),
		bp:        branch.New(m.Branch, n),
		sched:     p.Scheduler,
		pol:       newPolicyState(p.Policy),
		ctrl:      p.Controller,
		dec:       NoDecision(),
		sink:      p.Decisions,
		forced:    p.Forced,
		iqTrue:    avf.NewAccumulator(m.IQSize, avf.IQEntryBits),
		iqTag:     avf.NewAccumulator(m.IQSize, avf.IQEntryBits),
		robAcc:    avf.NewAccumulator(n*m.ROBSize, avf.ROBEntryBits),
		robTag:    avf.NewAccumulator(n*m.ROBSize, avf.ROBEntryBits),
		rfAcc:     avf.NewSpanAccumulator(n*64, avf.RegBits),
		rqHist:    stats.NewRQHistogram(m.IQSize),
	}
	for i := 0; i < n; i++ {
		proc.threads = append(proc.threads, &thread{
			id:      i,
			stream:  p.Streams[i],
			rob:     uarch.NewROB(m.ROBSize),
			lsq:     uarch.NewLSQ(m.LSQSize),
			fq:      newFetchQueue(m.FetchQueueSize),
			pc:      program.CodeBase,
			onTrace: true,
		})
	}
	proc.maxInstructions = p.MaxInstructions
	proc.maxCycles = p.MaxCycles
	proc.warmup = p.WarmupInstructions
	proc.oracleTags = p.OracleTags
	proc.intervalCycles = IntervalCycles
	if p.IntervalCycles > 0 {
		proc.intervalCycles = uint64(p.IntervalCycles)
	}
	proc.sampleCycles = proc.intervalCycles / SampleDivisor
	if proc.sampleCycles == 0 {
		proc.sampleCycles = 1
	}
	proc.invariantEvery = p.InvariantEvery
	proc.recPrevIQLCap = proc.dec.IQLCap
	proc.pool = p.Pool
	if proc.pool == nil {
		proc.pool = &uarch.UopPool{}
	}
	proc.skipOK = p.Controller == nil && len(p.Forced) == 0 && !p.DisableSkipAhead
	return proc, nil
}

// Budget fields (kept off Params so Step can also be driven manually).
type budget struct {
	maxInstructions uint64
	maxCycles       uint64
	warmup          uint64
}

// Run simulates the warmup followed by the measured region and returns the
// results.
func (p *Processor) Run() *Results {
	if p.warmup > 0 {
		warmupCycleCap := p.cycle + 64*p.warmup
		for p.totalCommits < p.warmup && p.cycle < warmupCycleCap {
			p.Step()
			p.maybeCheckInvariants()
			// Skip only when the loop will continue: once the budget is
			// met the run must stop at exactly the cycle the stepped
			// machine would, not at the end of a skipped span.
			if p.skipOK && p.totalCommits < p.warmup && p.skipAhead(warmupCycleCap) {
				p.maybeCheckInvariants()
			}
		}
		p.ResetStats()
	}
	cycleCap := p.statsCycle0 + p.maxCycles
	for p.totalCommits < p.maxInstructions && p.cycle < cycleCap {
		p.Step()
		p.maybeCheckInvariants()
		if p.skipOK && p.totalCommits < p.maxInstructions && p.skipAhead(cycleCap) {
			p.maybeCheckInvariants()
		}
	}
	return p.results()
}

// maybeCheckInvariants runs the sampled invariant cross-check configured by
// Params.InvariantEvery. A failure is a simulator bug, never a modelling
// outcome, so it panics like the other internal-consistency checks.
func (p *Processor) maybeCheckInvariants() {
	if p.invariantEvery > 0 && p.cycle%p.invariantEvery == 0 {
		if err := p.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("pipeline: invariant violated at cycle %d: %v", p.cycle, err))
		}
	}
}

// ResetStats zeroes all statistics while preserving machine state (cache,
// predictor and queue contents survive): measurement starts here.
func (p *Processor) ResetStats() {
	p.statsCycle0 = p.cycle
	p.totalCommits = 0
	for _, t := range p.threads {
		t.commits = 0
		t.fetched = 0
		t.wrongFetched = 0
		t.squashed = 0
		t.flushes = 0
		t.mispredicts = 0
		// Forget pre-measurement register lifetimes so RF spans are
		// charged only within the measured region.
		for r := range t.regs {
			t.regs[r].valid = false
		}
	}
	p.iqTrue.ResetStatsAt(p.cycle)
	p.iqTag.ResetStatsAt(p.cycle)
	p.robAcc.ResetStatsAt(p.cycle)
	p.robTag.ResetStatsAt(p.cycle)
	p.rfAcc.ResetStatsAt(p.cycle)
	for c := range p.fus.BusyCycles {
		p.fus.BusyCycles[c] = 0
		p.fus.BusyCyclesACE[c] = 0
	}
	p.mem.L2MissCount = 0
	p.mem.L1I.Accesses, p.mem.L1I.Misses = 0, 0
	p.mem.L1D.Accesses, p.mem.L1D.Misses = 0, 0
	p.mem.L2.Accesses, p.mem.L2.Misses = 0, 0
	p.mem.ITLB.Accesses, p.mem.ITLB.Misses = 0, 0
	p.mem.DTLB.Accesses, p.mem.DTLB.Misses = 0, 0
	p.bp.Lookups, p.bp.Mispredicts = 0, 0
	p.squashedTotal, p.squashedTagged = 0, 0
	p.skippedCycles = 0
	p.occSum = 0
	p.iqStatsSettled = p.cycle
	p.iqThreadAce = [uarch.MaxThreads]uint64{}
	p.iqThreadSum = [uarch.MaxThreads]uint64{}
	// Re-derive the resident per-thread ACE bits from the live queue.
	p.iq.ForEach(func(u *uarch.Uop) {
		p.iqThreadAce[u.Thread] += avf.IQBits(u.WrongPath, u.ACE)
	})
	p.resTaggedSum, p.resTaggedCount = 0, 0
	p.resUntaggedSum, p.resUntaggedCount = 0, 0
	p.waitTaggedSum, p.waitUntaggedSum = 0, 0
	p.iq.ResetHighWater()
	p.policySwitches, p.dvmTriggers = 0, 0
	p.prevUseFlush = p.dec.UseFlush
	p.prevWaitCapped = p.dec.WaitingCap >= 0
	p.recPrevIQLCap = p.dec.IQLCap
	p.recPrevGate = gateMask(&p.dec, p.n)
	p.recPrevSample = 0
	if p.sink != nil {
		p.sink.MeasureStart(p.cycle)
	}
	p.ivStartOcc, p.ivStartSwitches, p.ivStartTriggers = 0, 0, 0

	p.intervals = nil
	p.rqHist = stats.NewRQHistogram(p.cfg.IQSize)
	p.ivStartCycle = 0
	p.ivStartCommits = 0
	p.ivStartL2 = 0
	p.ivStartTrue, p.ivStartTag = 0, 0
	p.ivStartROB, p.ivStartROBTag = 0, 0
	p.ivReadySum = 0
	p.prevIPC, p.prevMeanRQL, p.prevL2 = 0, 0, 0
	p.sampStartTag, p.sampStartROBTag, p.sampStartCycles = 0, 0, 0
	p.lastSampleAVF, p.lastSampleROBAVF = 0, 0
	p.sampleIdx = 0
}

// Step advances the machine one cycle.
func (p *Processor) Step() {
	now := p.cycle
	p.commit(now)
	p.complete(now)
	p.census = p.iq.Census()
	// stepView is a Processor-owned scratch: taking the address of a local
	// here would heap-allocate a View on every cycle (noteDecision's
	// pointer parameter defeats escape analysis; nothing retains it).
	v := &p.stepView
	haveView := false
	if p.ctrl != nil {
		p.fillView(v, now)
		haveView = true
		p.dec = p.ctrl.Decide(v)
	} else {
		p.dec = NoDecision()
	}
	p.decForced = false
	if len(p.forced) > 0 {
		p.decForced = p.applyForced(now)
	}
	p.noteDecision(now, v, haveView)
	p.issue(now)
	p.processFlushes(now)
	p.dispatch(now)
	p.fetch(now)
	p.org.EndCycle(now)
	p.account(now)
	p.cycle++
}

// Cycle returns the current cycle number.
func (p *Processor) Cycle() uint64 { return p.cycle }

// TotalCommits returns the committed instruction count.
func (p *Processor) TotalCommits() uint64 { return p.totalCommits }

// IQ exposes the issue queue's storage layer (tests, diagnostics and fault
// injection); identical for every organization.
func (p *Processor) IQ() *uarch.IQ { return p.iq }

// Organization exposes the issue queue's policy layer.
func (p *Processor) Organization() iqorg.Organization { return p.org }

// protAVF applies the protection mode's AVF mitigation to a reported
// issue-queue AVF. The unprotected default is exactly the identity.
func (p *Processor) protAVF(v float64) float64 {
	if p.protScale != 1 {
		return v * p.protScale
	}
	return v
}

// Memory exposes the cache hierarchy (tests and diagnostics).
func (p *Processor) Memory() *cache.Hierarchy { return p.mem }

// fillView writes the controller-visible state into v field by field:
// returning a View by value would build it in a temporary and copy it.
// The per-thread arrays are written for the machine's threads only; v's
// remaining entries stay zero, as v is only ever filled by this method.
func (p *Processor) fillView(v *View, now uint64) {
	// The interval-so-far AVF estimates read the lazy accumulators
	// mid-cycle; settle them through the last closed cycle first.
	p.iqTag.SettleTo(now)
	p.robTag.SettleTo(now)
	v.Cycle = now
	v.NumThreads = p.n
	v.IQSize = p.iq.Size()
	v.IQLen = p.iq.Len()
	v.ReadyLen = p.census.Ready
	v.WaitingLen = p.census.Waiting
	v.ReadyACETag = p.census.ReadyACETag
	v.IntervalIndex = len(p.intervals)
	v.PrevIPC = p.prevIPC
	v.PrevMeanReadyLen = p.prevMeanRQL
	v.PrevL2Misses = p.prevL2
	v.SampleIndex = p.sampleIdx
	v.SampleAVFTag = p.lastSampleAVF
	v.SampleROBAVFTag = p.lastSampleROBAVF
	// Controllers see the residual (post-mitigation) IQ vulnerability:
	// a protected queue needs less DVM throttling for the same target.
	v.IntervalAVFTagSoFar = p.protAVF(p.iqTag.AVFSince(p.ivStartTag, p.ivStartCycle))
	v.IntervalROBAVFTagSoFar = p.robTag.AVFSince(p.ivStartROBTag, p.ivStartCycle)
	for i, t := range p.threads {
		v.OutstandingL2[i] = t.outstandingL2
		v.FetchQLen[i] = int32(t.fq.Len())
		v.FetchQACETag[i] = t.fqACETag
	}
}

// account closes the cycle: ready-queue histogram and the interval/sample
// boundaries. AVF accounting is settled lazily (on occupancy deltas and at
// the boundaries below) rather than ticked every cycle.
func (p *Processor) account(now uint64) {
	p.rqHist.Observe(p.census.Ready, p.census.ReadyACE)
	p.ivReadySum += uint64(p.census.Ready)

	done := now + 1
	if done%p.sampleCycles == 0 {
		p.iqTag.SettleTo(done)
		p.robTag.SettleTo(done)
		p.lastSampleAVF = p.protAVF(p.iqTag.AVFSince(p.sampStartTag, p.sampStartCycles))
		p.lastSampleROBAVF = p.robTag.AVFSince(p.sampStartROBTag, p.sampStartCycles)
		p.sampStartTag = p.iqTag.Sum()
		p.sampStartROBTag = p.robTag.Sum()
		p.sampStartCycles = p.iqTag.Cycles()
		p.sampleIdx++
	}
	if done%p.intervalCycles == 0 {
		p.settleAccounting(done)
		p.closeInterval()
	}
}

// settleIQStats charges the IQ occupancy integrals (occSum, per-thread ACE
// bits) for the cycles since the last occupancy change.
func (p *Processor) settleIQStats(now uint64) {
	d := now - p.iqStatsSettled
	if d == 0 {
		return
	}
	p.occSum += uint64(p.iq.Len()) * d
	for i := 0; i < p.n; i++ {
		p.iqThreadSum[i] += p.iqThreadAce[i] * d
	}
	p.iqStatsSettled = now
}

// settleAccounting brings every lazily maintained statistic up to date
// through cycle now-1 (interval boundaries and end of run).
func (p *Processor) settleAccounting(now uint64) {
	p.iqTrue.SettleTo(now)
	p.iqTag.SettleTo(now)
	p.robAcc.SettleTo(now)
	p.robTag.SettleTo(now)
	p.rfAcc.SettleTo(now)
	p.settleIQStats(now)
}

func (p *Processor) closeInterval() {
	cycles := p.iqTrue.Cycles() - p.ivStartCycle
	if cycles == 0 {
		return
	}
	commits := p.totalCommits - p.ivStartCommits
	iv := stats.Interval{
		Index:          len(p.intervals),
		Cycles:         cycles,
		Commits:        commits,
		IPC:            float64(commits) / float64(cycles),
		AvgReadyLen:    float64(p.ivReadySum) / float64(cycles),
		L2Misses:       p.mem.L2MissCount - p.ivStartL2,
		IQAVF:          p.protAVF(p.iqTrue.AVFSince(p.ivStartTrue, p.ivStartCycle)),
		IQAVFTagged:    p.protAVF(p.iqTag.AVFSince(p.ivStartTag, p.ivStartCycle)),
		ROBAVF:         p.robAcc.AVFSince(p.ivStartROB, p.ivStartCycle),
		MeanIQOcc:      float64(p.occSum-p.ivStartOcc) / float64(cycles),
		PolicySwitches: p.policySwitches - p.ivStartSwitches,
		DVMTriggers:    p.dvmTriggers - p.ivStartTriggers,
	}
	p.intervals = append(p.intervals, iv)
	p.prevIPC = iv.IPC
	p.prevMeanRQL = iv.AvgReadyLen
	p.prevL2 = iv.L2Misses

	p.ivStartCycle = p.iqTrue.Cycles()
	p.ivStartCommits = p.totalCommits
	p.ivStartL2 = p.mem.L2MissCount
	p.ivStartTrue = p.iqTrue.Sum()
	p.ivStartTag = p.iqTag.Sum()
	p.ivStartROB = p.robAcc.Sum()
	p.ivStartROBTag = p.robTag.Sum()
	p.ivReadySum = 0
	p.ivStartOcc = p.occSum
	p.ivStartSwitches = p.policySwitches
	p.ivStartTriggers = p.dvmTriggers
}

func (p *Processor) wheelPush(u *uarch.Uop, now uint64) {
	d := u.CompleteAt - now
	if d == 0 || d >= wheelSize {
		panic(fmt.Sprintf(
			"pipeline: completion delta %d outside wheel (size %d): uop age %d thread %d pc %#x kind %v, CompleteAt %d, now %d",
			d, wheelSize, u.Age, u.Thread, u.Static().PC, u.Kind(), u.CompleteAt, now))
	}
	slot := u.CompleteAt % wheelSize
	p.wheel[slot] = append(p.wheel[slot], u)
	p.wheelBits[slot/64] |= 1 << (slot % 64)
	p.wheelCount++
}
