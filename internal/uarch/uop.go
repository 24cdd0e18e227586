// Package uarch provides the microarchitectural building blocks of the SMT
// pipeline: in-flight micro-operations, the shared issue queue with its
// schedulers (baseline oldest-first and the paper's VISA policy), per-thread
// reorder buffers and load/store queues, and function-unit pools.
//
// Package pipeline assembles these into the full processor; keeping them
// here lets each structure be tested in isolation.
package uarch

import (
	"visasim/internal/branch"
	"visasim/internal/isa"
	"visasim/internal/trace"
)

// MaxThreads bounds the number of hardware contexts (the paper evaluates
// 4-context workloads; arrays are sized for headroom).
const MaxThreads = 8

// Stage is a uop's position in its lifecycle.
type Stage uint8

// Lifecycle stages, in order.
const (
	StageFetched   Stage = iota // in a fetch queue, pre-dispatch
	StageInIQ                   // dispatched, waiting or ready in the IQ
	StageIssued                 // executing on a function unit
	StageCompleted              // result available, awaiting commit
	StageCommitted
	StageSquashed
)

func (s Stage) String() string {
	switch s {
	case StageFetched:
		return "fetched"
	case StageInIQ:
		return "in-iq"
	case StageIssued:
		return "issued"
	case StageCompleted:
		return "completed"
	case StageCommitted:
		return "committed"
	default:
		return "squashed"
	}
}

// Uop is one in-flight dynamic instruction.
type Uop struct {
	// Dyn is the dynamic instance (copied by value: wrong-path uops get
	// a synthesised instance, correct-path uops a snapshot of the
	// oracle stream's entry).
	Dyn trace.DynInst

	Thread    int32
	Age       uint64 // global fetch order, the scheduler's age key
	StreamPos uint64 // correct-path oracle position (valid if !WrongPath)

	WrongPath bool
	// ACE is ground-truth ACE-ness: always false for wrong-path uops.
	ACE bool
	// ACETag is the profiled per-PC tag the VISA issue logic reads;
	// wrong-path uops carry their static instruction's tag, since real
	// hardware cannot tell wrong-path instructions apart.
	ACETag bool

	// Branch-prediction state.
	PredTaken    bool
	PredNext     uint64
	Mispredicted bool // prediction diverges from the oracle outcome
	CP           branch.Checkpoint

	// Pipeline state.
	Stage      Stage
	SrcPending int8 // outstanding source operands
	L2Miss     bool // load that went to main memory
	MissedL1   bool // load that missed the L1D
	// PDGPredMiss marks a load the PDG fetch policy predicted to miss.
	PDGPredMiss bool
	// Parked marks a ready load the issue queue holds off its ready list
	// while an older store blocks it (see IQ.Park); it still counts as
	// ready in the census.
	Parked bool

	IQSlot  int32 // slot index while StageInIQ, else -1
	LSQSlot int32 // slot index while occupying the LSQ, else -1
	ROBSlot int32 // slot index while resident in the ROB, else -1

	// BlockedOn is the older same-thread unissued store that LSQ.CheckLoad
	// last found blocking this load: while the load is parked, the store
	// whose issue unparks it.
	BlockedOn *Uop
	// Blocking marks a store that LSQ.CheckLoad has named as some load's
	// BlockedOn, so its issue has parked loads to look for.
	Blocking bool

	// PrevWriter is the previous rename-map entry for Dyn.Static.Dest,
	// used to repair the map when this uop is squashed.
	PrevWriter *Uop
	// NextWriter is the inverse link: the younger in-flight writer of
	// the same register whose PrevWriter is this uop, if any. Commit and
	// squash use it to unhook this uop from the rename history before it
	// is recycled.
	NextWriter *Uop

	// Gen counts reincarnations of this allocation (see UopPool): a
	// DepRef whose generation disagrees is a stale registration from a
	// squashed previous life and must be ignored.
	Gen uint64

	// dependents are dispatched consumers waiting on this uop's result.
	dependents []DepRef

	// Timing (absolute cycles).
	FetchedAt    uint64
	DecodeReady  uint64 // earliest dispatch cycle (decode latency)
	DispatchedAt uint64
	ReadyAt      uint64 // cycle the last source operand arrived
	IssuedAt     uint64
	CompleteAt   uint64
}

// Static returns the uop's static instruction.
func (u *Uop) Static() *isa.Inst { return u.Dyn.Static }

// Kind returns the uop's instruction kind.
func (u *Uop) Kind() isa.Kind { return u.Dyn.Static.Kind }

// Ready reports whether all source operands are available.
func (u *Uop) Ready() bool { return u.SrcPending == 0 }

// DepRef is a generation-stamped reference to a dependent uop. With pooled
// uops a producer's dependents list can outlive a squashed consumer whose
// allocation was already reincarnated; the generation detects that.
type DepRef struct {
	U   *Uop
	Gen uint64
}

// Live reports whether the reference still points at the registration-time
// incarnation.
func (r DepRef) Live() bool { return r.U.Gen == r.Gen }

// AddDependent registers d as waiting on this uop's result.
func (u *Uop) AddDependent(d *Uop) { u.dependents = append(u.dependents, DepRef{d, d.Gen}) }

// Dependents returns the registered consumers.
func (u *Uop) Dependents() []DepRef { return u.dependents }

// ClearDependents empties the consumer list (after wakeup), keeping the
// backing array for the allocation's next life.
func (u *Uop) ClearDependents() { u.dependents = u.dependents[:0] }

// Reset returns the uop to its just-allocated state for reuse, advancing
// the generation so stale DepRefs to the previous life are detectable. The
// dependents backing array is retained.
func (u *Uop) Reset() {
	deps := u.dependents[:0]
	gen := u.Gen + 1
	// Zero in place and then set the non-zero fields: assigning a
	// composite literal would build it in a temporary and copy it over.
	*u = Uop{}
	u.Gen = gen
	u.IQSlot, u.LSQSlot, u.ROBSlot = -1, -1, -1
	u.dependents = deps
}

// IQResidency returns the cycles this uop spent in the issue queue, given
// the current cycle for still-resident uops.
func (u *Uop) IQResidency(now uint64) uint64 {
	switch {
	case u.Stage == StageInIQ:
		return now - u.DispatchedAt
	case u.IssuedAt >= u.DispatchedAt && u.Stage >= StageIssued && u.Stage != StageSquashed:
		return u.IssuedAt - u.DispatchedAt
	default:
		return 0
	}
}
