// Package ace implements architecturally-correct-execution (ACE) analysis
// following Mukherjee et al. (MICRO 2003), the methodology the paper builds
// on.
//
// The Analyzer consumes a committed dynamic instruction stream and decides,
// for every instruction, whether its result can affect the program's final
// output (ACE) or not (un-ACE). Classification uses backward liveness
// propagation inside a sliding post-retirement window (the paper uses a
// 40,000-instruction window):
//
//   - control instructions (branches, jumps, calls, returns) are anchors:
//     they and, transitively, their operand producers are ACE;
//   - a store becomes ACE when a later load reads its location before
//     another store overwrites it, or when it survives the window still
//     holding the newest value for its location (it may escape as output);
//     its value/address producers become ACE transitively;
//   - a register write that is never consumed on an ACE path, and is
//     overwritten before the window closes, is dynamically dead: un-ACE;
//   - a register write still architecturally live when it leaves the window
//     is conservatively ACE (a future read remains possible);
//   - NOPs are never ACE.
//
// The analysis runs as two stages. The resolver (resolve.go) turns each
// instruction into a fixed-size edge record: back-distances to its
// producers and to the older writes it kills. The window (this file) owns
// the ring of in-flight instructions, the anchor decisions, the backward
// marking and resolution. Analyzer.Retire runs both stages in turn on one
// instruction; Run (profile.go) runs the resolver on its own goroutine and
// streams records to the window in batches.
package ace

import (
	"visasim/internal/trace"
)

// DefaultWindow is the post-retirement analysis window used by the paper.
const DefaultWindow = 40000

// anchorSlack is how many instructions before final resolution the
// conservative anchor decisions (store still holding the newest value,
// register still architecturally live) are taken. Deciding early leaves the
// anchor's producers — at most a few tens of instructions older — still
// inside the window so backward propagation reaches them; deciding at
// resolution time would mark anchors whose producers had just been resolved
// (visible as LateMarks).
const anchorSlack = 512

// Slot flags.
const (
	slotACE       uint8 = 1 << iota
	slotNop             // never marked by propagation
	slotStoreLive       // a store not yet overwritten
	slotRegLive         // a register write not yet overwritten
)

// slot is one in-window instruction (20 bytes).
type slot struct {
	// prod holds back-distances to the Src1 and Src2 producers and to a
	// load's feeding store; 0 means none in the window when retired.
	prod   [3]uint32
	static int32 // static instruction index, passed through to resolution
	flags  uint8
}

// window is the second analysis stage: a ring of the last `size`
// instructions in retirement order. Each pushed edge first takes the
// anchor decision anchorSlack positions before the oldest instruction
// leaves, then resolves the oldest, then enters the ring and applies its
// kills and marks — the order in which a single-pass analyzer would see
// them.
type window struct {
	size  uint64 // analysis window length
	slack uint64 // anchor-decision lead
	mask  uint64 // ring index mask; len(ring) is a power of two >= size
	ring  []slot

	next    uint64 // seq of the next instruction to enter
	settled uint64 // seq of the next instruction to be resolved out
	checked uint64 // seq of the next instruction to get its anchor decision

	out func(seq uint64, static int32, ace bool)

	// dfs is the reusable backward-propagation work stack.
	dfs []uint64

	// lateMarks counts ACE marks that arrived after the target had
	// already left the window — a measure of windowing error.
	lateMarks uint64
}

func newWindow(size uint64, out func(seq uint64, static int32, ace bool)) *window {
	ringLen := uint64(1)
	for ringLen < size {
		ringLen <<= 1
	}
	slack := uint64(anchorSlack)
	if size/2 < slack {
		slack = size / 2 // clamp the lead for tiny windows
	}
	return &window{
		size:  size,
		slack: slack,
		mask:  ringLen - 1,
		ring:  make([]slot, ringLen),
		out:   out,
	}
}

// push enters the next instruction's edge record.
func (w *window) push(e *edge) {
	seq := w.next
	if seq >= w.size-w.slack {
		w.anchorCheck(w.checked)
		w.checked++
	}
	if seq >= w.size {
		w.settle(seq - w.size)
	}

	s := &w.ring[seq&w.mask]
	*s = slot{prod: [3]uint32{e.src[0], e.src[1], 0}, static: e.static}
	w.next = seq + 1

	// Kills: the resolver reports only writers still in the window, so
	// their slots have not been reused.
	if e.flags&edgeDest != 0 {
		s.flags |= slotRegLive
		if e.regKill != 0 {
			w.ring[(seq-uint64(e.regKill))&w.mask].flags &^= slotRegLive
		}
	}
	switch {
	case e.flags&edgeNop != 0:
		s.flags |= slotNop
	case e.flags&edgeStore != 0:
		s.flags |= slotStoreLive
		if e.mem != 0 {
			// Overwriting a prior store kills it if it was never read.
			w.ring[(seq-uint64(e.mem))&w.mask].flags &^= slotStoreLive
		}
	case e.flags&edgeLoad != 0:
		if e.mem != 0 {
			// The stored value reached a consumer: the store is
			// architecturally required.
			s.prod[2] = e.mem
			w.mark(seq - uint64(e.mem))
		}
	case e.flags&edgeControl != 0:
		// Control flow is always ACE.
		w.mark(seq)
	}
}

// mark sets the instruction at seq ACE and propagates backwards through
// its producers. Each slot is marked at most once, so total work is linear.
func (w *window) mark(seq uint64) {
	s := &w.ring[seq&w.mask]
	if s.flags&slotACE != 0 {
		return
	}
	s.flags |= slotACE
	w.pushProducers(seq, s)
	for len(w.dfs) > 0 {
		p := w.dfs[len(w.dfs)-1]
		w.dfs = w.dfs[:len(w.dfs)-1]
		ps := &w.ring[p&w.mask]
		if ps.flags&(slotACE|slotNop) != 0 {
			continue
		}
		ps.flags |= slotACE
		w.pushProducers(p, ps)
	}
}

func (w *window) pushProducers(seq uint64, s *slot) {
	for _, d := range s.prod {
		if d == 0 {
			continue
		}
		p := seq - uint64(d)
		if p < w.settled {
			w.lateMarks++
			continue
		}
		w.dfs = append(w.dfs, p)
	}
}

// anchorCheck takes the conservative anchor decisions for seq while its
// producers are still resolvable.
func (w *window) anchorCheck(seq uint64) {
	s := &w.ring[seq&w.mask]
	if s.flags&slotACE == 0 && s.flags&(slotStoreLive|slotRegLive) != 0 {
		// A store still holding the newest value for its location
		// may be program output or read beyond the window; a register
		// still architecturally live near window exit may be read
		// again. Both are conservatively ACE, and so are their
		// producers.
		w.mark(seq)
	}
}

// settle resolves the instruction at seq as it leaves the window.
func (w *window) settle(seq uint64) {
	s := &w.ring[seq&w.mask]
	w.settled = seq + 1
	w.out(seq, s.static, s.flags&slotACE != 0)
}

// flush resolves every instruction still inside the window.
func (w *window) flush() {
	for ; w.checked < w.next; w.checked++ {
		w.anchorCheck(w.checked)
	}
	for w.settled < w.next {
		w.settle(w.settled)
	}
}

// Analyzer performs streaming ACE classification. Feed committed
// instructions in order with Retire; resolved classifications come back via
// the callback passed to New, in order, delayed by up to the window size.
// Call Flush at end of stream to resolve the tail.
type Analyzer struct {
	res *resolver
	win *window
}

// New returns an analyzer with the given window (0 selects DefaultWindow).
// resolve is invoked exactly once per instruction, in retirement order.
func New(window int, resolve func(seq uint64, ace bool)) *Analyzer {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Analyzer{
		res: newResolver(uint64(window)),
		win: newWindow(uint64(window), func(seq uint64, _ int32, ace bool) { resolve(seq, ace) }),
	}
}

// LateMarks reports how many ACE marks arrived too late to change an
// already-resolved instruction (windowing error diagnostic).
func (a *Analyzer) LateMarks() uint64 { return a.win.lateMarks }

// Retire feeds the next committed instruction. d.Seq must equal the number
// of previously retired instructions.
func (a *Analyzer) Retire(d *trace.DynInst) {
	if d.Seq != a.res.next {
		panic("ace: out-of-order retirement")
	}
	var e edge
	a.res.resolve(d, 0, &e)
	a.win.push(&e)
}

// Flush resolves every instruction still inside the window. The analyzer
// must not be fed further after flushing.
func (a *Analyzer) Flush() { a.win.flush() }
