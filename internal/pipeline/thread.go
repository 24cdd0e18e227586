package pipeline

import (
	"visasim/internal/isa"
	"visasim/internal/trace"
	"visasim/internal/uarch"
)

// fetchQueue is a small FIFO ring of fetched, not-yet-dispatched uops.
//
// Two struct-of-arrays rings ride alongside the pointer ring: the head's
// decode-ready cycle and memory-op flag. Dispatch polls both every cycle
// for every thread, and while the head is blocked (decode latency, full
// downstream queues) the dense rings answer without dereferencing the uop.
type fetchQueue struct {
	buf     []*uarch.Uop
	readyAt []uint64 // DecodeReady per slot
	mem     []bool   // Kind().IsMem() per slot
	head    int
	len     int
}

func newFetchQueue(size int) *fetchQueue {
	return &fetchQueue{
		buf:     make([]*uarch.Uop, size),
		readyAt: make([]uint64, size),
		mem:     make([]bool, size),
	}
}

func (q *fetchQueue) Len() int   { return q.len }
func (q *fetchQueue) Full() bool { return q.len == len(q.buf) }

func (q *fetchQueue) Push(u *uarch.Uop) {
	if q.Full() {
		panic("pipeline: fetch queue overflow")
	}
	slot := q.head + q.len
	if slot >= len(q.buf) {
		slot -= len(q.buf)
	}
	q.buf[slot] = u
	q.readyAt[slot] = u.DecodeReady
	q.mem[slot] = u.Kind().IsMem()
	q.len++
}

func (q *fetchQueue) Head() *uarch.Uop {
	if q.len == 0 {
		return nil
	}
	return q.buf[q.head]
}

// HeadReadyAt returns the head's decode-ready cycle, or ok=false when the
// queue is empty — the dispatch stage's per-cycle poll, answered from the
// dense ring.
func (q *fetchQueue) HeadReadyAt() (uint64, bool) {
	if q.len == 0 {
		return 0, false
	}
	return q.readyAt[q.head], true
}

// HeadIsMem reports whether the head is a memory operation (false when
// empty).
func (q *fetchQueue) HeadIsMem() bool {
	return q.len > 0 && q.mem[q.head]
}

func (q *fetchQueue) Pop() *uarch.Uop {
	u := q.buf[q.head]
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.len--
	return u
}

// Drain empties the queue, invoking f on each uop (squash path).
func (q *fetchQueue) Drain(f func(*uarch.Uop)) {
	for q.len > 0 {
		f(q.Pop())
	}
}

// regLife tracks one architectural register's current value lifetime for
// register-file AVF accounting (resolved retrospectively at overwrite).
type regLife struct {
	writeCycle uint64
	lastRead   uint64
	ace        bool
	valid      bool
}

// thread is one hardware context.
type thread struct {
	id     int
	stream *trace.Stream

	rob *uarch.ROB
	lsq *uarch.LSQ
	fq  *fetchQueue

	// renameMap points each architectural register at its newest
	// in-flight writer (nil: value is architectural, always ready).
	renameMap [isa.NumRegs]*uarch.Uop

	// Fetch state.
	pc         uint64
	onTrace    bool   // fetching the oracle (correct) path
	streamPos  uint64 // next correct-path position to fetch
	stallUntil uint64 // I-cache miss / mispredict redirect penalty
	flushStall bool   // FLUSH: fetch disabled until the missing load returns

	// pendingMispredict is the unresolved mispredicted correct-path
	// branch, if any (at most one: everything fetched after it is
	// wrong-path).
	pendingMispredict *uarch.Uop

	// Outstanding-miss tracking for fetch policies.
	outstandingL2  int32 // in-flight loads that went to memory
	outstandingL1D int32 // in-flight loads that missed L1D
	pdgInFlight    int32 // in-flight loads PDG predicted to miss

	// fqACETag counts ACE-tagged uops in the fetch queue (DVM's
	// restore-dispatch heuristic reads it).
	fqACETag int32

	// Per-thread register lifetimes for RF AVF.
	regs [isa.NumRegs]regLife

	// Statistics.
	commits      uint64
	fetched      uint64
	wrongFetched uint64
	squashed     uint64
	flushes      uint64
	mispredicts  uint64
}

// icount is the classic ICOUNT priority key: instructions in the front-end
// and issue queue (fewer = higher fetch priority).
func (t *thread) icount(iq *uarch.IQ) int {
	return t.fq.Len() + iq.ThreadLen(t.id)
}

// fqPush adds a fetched uop to the fetch queue, maintaining tag counts.
func (t *thread) fqPush(u *uarch.Uop) {
	t.fq.Push(u)
	if u.ACETag {
		t.fqACETag++
	}
}

// fqPop removes the head of the fetch queue, maintaining tag counts.
func (t *thread) fqPop() *uarch.Uop {
	u := t.fq.Pop()
	if u.ACETag {
		t.fqACETag--
	}
	return u
}
