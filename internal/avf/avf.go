// Package avf computes architectural vulnerability factors (AVF) for
// microarchitecture structures, per Mukherjee et al. (MICRO 2003): the AVF
// of a structure over an execution is the average fraction of its bits that
// are ACE per cycle,
//
//	AVF = Σ_cycles (resident ACE bits) / (total bits × cycles).
//
// Although instructions are classified at instruction granularity, AVF is
// accounted at bit level using explicit per-entry bit layouts (below), as
// the paper does.
package avf

// Per-entry bit layouts. These model the fields a real implementation
// holds; the split between "payload" bits (ACE only when the instruction is
// ACE) and "control" bits (opcode, tags — ACE whenever the entry holds a
// correct-path instruction, because corrupting them can change architectural
// behaviour even for dynamically dead instructions) follows the paper's
// observation that un-ACE instructions still contain some ACE bits.
// Wrong-path instructions contribute no ACE bits: any corruption is
// squashed with them.
const (
	// IQEntryBits: opcode(8) + thread(3) + dest tag(8) + two source
	// tags(16) + ready/valid flags(5) + immediate/displacement(64) +
	// ROB/LSQ links(16) + branch info(8) = 128.
	IQEntryBits = 128
	// IQACEBitsACE is the ACE-bit count of an IQ entry holding an ACE
	// instruction (payload + control).
	IQACEBitsACE = 112
	// IQACEBitsUnACE is the ACE-bit count for a correct-path un-ACE
	// instruction (opcode + routing control only).
	IQACEBitsUnACE = 24

	// ROBEntryBits: PC(32 used) + dest arch reg(6) + old mapping(8) +
	// exception/complete flags(6) + result-status(24) = 76. Result
	// values live in the register file, not the ROB, so the ACE payload
	// is modest: corrupting most of a completed entry cannot change
	// architectural state.
	ROBEntryBits = 76
	// ROBACEBitsACE / ROBACEBitsUnACE follow the same payload/control
	// split; most ROB payload matters only if the instruction is ACE.
	ROBACEBitsACE   = 28
	ROBACEBitsUnACE = 8

	// RegBits is one architectural register.
	RegBits = 64

	// FULatchBits models the pipeline latches of one function unit.
	FULatchBits = 128
)

// Accumulator tracks one structure's ACE-bit residency lazily: AddAt and
// SubAt note each occupancy change with the absolute cycle it happens in,
// and SettleTo brings the sums up to date before Sum/Cycles/AVF/AVFSince
// are read. The idle cycles between changes are charged in one multiply
// instead of one step per cycle, keeping per-cycle accounting off the
// simulation hot path. A change during cycle N counts for cycle N onward.
type Accumulator struct {
	totalBits uint64 // structure capacity in bits
	current   uint64 // ACE bits resident this cycle
	sum       uint64 // Σ over cycles of current
	cycles    uint64
	settled   uint64 // absolute cycle sum covers (exclusive)
}

// NewAccumulator returns an accumulator for a structure with entries
// entries of entryBits bits each.
func NewAccumulator(entries, entryBits int) *Accumulator {
	return &Accumulator{totalBits: uint64(entries) * uint64(entryBits)}
}

// SettleTo charges current residency for every cycle in [settled, now),
// bringing the sums up to date through cycle now-1.
func (a *Accumulator) SettleTo(now uint64) {
	if now <= a.settled {
		return
	}
	d := now - a.settled
	a.sum += a.current * d
	a.cycles += d
	a.settled = now
}

// AddAt notes bits ACE bits becoming resident during cycle now: they count
// from cycle now onward.
func (a *Accumulator) AddAt(bits, now uint64) {
	a.SettleTo(now)
	a.current += bits
}

// SubAt notes bits ACE bits draining during cycle now: they no longer count
// for cycle now.
func (a *Accumulator) SubAt(bits, now uint64) {
	a.SettleTo(now)
	if bits > a.current {
		panic("avf: accumulator underflow")
	}
	a.current -= bits
}

// ResetStatsAt zeroes the accumulated sums as of cycle now, preserving the
// resident ACE-bit count: in-flight entries keep contributing.
func (a *Accumulator) ResetStatsAt(now uint64) {
	a.SettleTo(now)
	a.sum, a.cycles = 0, 0
}

// Current returns the ACE bits resident now.
func (a *Accumulator) Current() uint64 { return a.current }

// Sum returns the cumulative ACE-bit-cycles.
func (a *Accumulator) Sum() uint64 { return a.sum }

// Cycles returns the settled cycle count.
func (a *Accumulator) Cycles() uint64 { return a.cycles }

// AVF returns the whole-run AVF.
func (a *Accumulator) AVF() float64 {
	if a.cycles == 0 || a.totalBits == 0 {
		return 0
	}
	return float64(a.sum) / (float64(a.totalBits) * float64(a.cycles))
}

// AVFSince returns the AVF of the window since a prior (sum, cycles)
// snapshot — the online interval estimator DVM samples.
func (a *Accumulator) AVFSince(sum, cycles uint64) float64 {
	dc := a.cycles - cycles
	if dc == 0 {
		return 0
	}
	return float64(a.sum-sum) / (float64(a.totalBits) * float64(dc))
}

// SpanAccumulator accounts structures whose ACE residency is only known
// retrospectively (the register file: a value's vulnerable span runs from
// its write to its last read, discovered when it is overwritten). Spans are
// charged in bulk; only the cycle count settles lazily.
type SpanAccumulator struct {
	totalBits uint64
	sum       uint64
	cycles    uint64
	settled   uint64 // absolute cycle the cycle count covers (exclusive)
}

// NewSpanAccumulator returns a span accumulator for entries×entryBits.
func NewSpanAccumulator(entries, entryBits int) *SpanAccumulator {
	return &SpanAccumulator{totalBits: uint64(entries) * uint64(entryBits)}
}

// AddSpan charges bits ACE bits as resident for cycles cycles.
func (a *SpanAccumulator) AddSpan(bits, cycles uint64) { a.sum += bits * cycles }

// SettleTo brings the cycle count up to date through cycle now-1 (spans
// are charged in bulk, so only the denominator accrues).
func (a *SpanAccumulator) SettleTo(now uint64) {
	if now > a.settled {
		a.cycles += now - a.settled
		a.settled = now
	}
}

// ResetStatsAt zeroes the accumulated sums as of cycle now.
func (a *SpanAccumulator) ResetStatsAt(now uint64) {
	a.SettleTo(now)
	a.sum, a.cycles = 0, 0
}

// AVF returns the whole-run AVF.
func (a *SpanAccumulator) AVF() float64 {
	if a.cycles == 0 || a.totalBits == 0 {
		return 0
	}
	return float64(a.sum) / (float64(a.totalBits) * float64(a.cycles))
}

// IQBits returns the ACE-bit contribution of one IQ entry holding an
// instruction with the given classification.
func IQBits(wrongPath, aceInst bool) uint64 {
	switch {
	case wrongPath:
		return 0
	case aceInst:
		return IQACEBitsACE
	default:
		return IQACEBitsUnACE
	}
}

// ROBBits returns the ACE-bit contribution of one ROB entry.
func ROBBits(wrongPath, aceInst bool) uint64 {
	switch {
	case wrongPath:
		return 0
	case aceInst:
		return ROBACEBitsACE
	default:
		return ROBACEBitsUnACE
	}
}
