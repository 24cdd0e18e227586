package ace

import (
	"visasim/internal/isa"
	"visasim/internal/trace"
)

// Edge flags.
const (
	edgeDest uint8 = 1 << iota // writes a register
	edgeNop
	edgeStore
	edgeLoad
	edgeControl
)

// edge is one instruction's dataflow as the resolver hands it to the
// window. Every distance points back from the instruction's own seq to an
// older instruction still inside the analysis window; 0 means none.
type edge struct {
	src     [2]uint32 // producers of Src1 and Src2
	mem     uint32    // load: the feeding store; store: the previous store to the same word, which it kills
	regKill uint32    // the previous writer of dest, which this write kills
	static  int32     // static instruction index
	flags   uint8
}

// resolver is the first analysis stage: it tracks the newest writer of
// every register and memory word and turns each retired instruction into
// an edge record. Writers that have left the window read as absent, so the
// resolver needs no word from the window about resolution.
type resolver struct {
	size   uint64 // analysis window length
	next   uint64 // seq of the next instruction to resolve
	regs   [isa.NumRegs]uint64
	stores lastStore
}

func newResolver(size uint64) *resolver {
	return &resolver{size: size, stores: newLastStore(10)}
}

// back converts a writer reference (seq+1, 0 = never written) into a
// back-distance from seq, or 0 if the writer has left the window.
func (r *resolver) back(seq, ref uint64) uint32 {
	if ref == 0 {
		return 0
	}
	if d := seq + 1 - ref; d < r.size {
		return uint32(d)
	}
	return 0
}

// resolve writes the edge record of d, the next instruction in retirement
// order, to e. Filling the caller's record in place, rather than returning
// one, keeps the record off the stack: copying it out after its byte-sized
// flag store stalls store-to-load forwarding.
func (r *resolver) resolve(d *trace.DynInst, static int32, e *edge) {
	seq := r.next
	r.next++
	in := d.Static
	*e = edge{static: static}
	if s := in.Src1; s != isa.RegNone && s != isa.RegZero {
		e.src[0] = r.back(seq, r.regs[s])
	}
	if s := in.Src2; s != isa.RegNone && s != isa.RegZero {
		e.src[1] = r.back(seq, r.regs[s])
	}
	switch in.Kind {
	case isa.Nop:
		e.flags = edgeNop
	case isa.Store:
		e.flags = edgeStore
		var floor uint64
		if seq+1 > r.size {
			floor = seq + 1 - r.size
		}
		e.mem = r.back(seq, r.stores.swap(d.Addr&^7, seq+1, floor))
	case isa.Load:
		e.flags = edgeLoad
		e.mem = r.back(seq, r.stores.get(d.Addr&^7))
	case isa.Branch, isa.Jump, isa.Call, isa.Return:
		e.flags = edgeControl
	}
	if in.HasDest() {
		e.flags |= edgeDest
		e.regKill = r.back(seq, r.regs[in.Dest])
		r.regs[in.Dest] = seq + 1
	}
}

// lastStore maps a memory word to a reference (seq+1) to the newest store
// to it. It is open-addressed with linear probing; a zero reference marks
// an empty slot. References at or below the window floor belong to stores
// that have left the window: they read as absent to the resolver and are
// dropped whenever the table rehashes, so the table holds at most about
// one window's worth of stores.
type lastStore struct {
	slots []storeSlot
	shift uint8 // 64 - log2(len(slots))
	used  int
}

type storeSlot struct {
	word, ref uint64
}

func newLastStore(log2 uint8) lastStore {
	return lastStore{slots: make([]storeSlot, 1<<log2), shift: 64 - log2}
}

// home is the word's preferred slot (Fibonacci hashing).
func (t *lastStore) home(word uint64) uint64 {
	return (word * 0x9E3779B97F4A7C15) >> t.shift
}

// get returns the word's reference, or 0 if it has none.
func (t *lastStore) get(word uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(word); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 || s.word == word {
			return s.ref
		}
	}
}

// swap sets the word's reference to ref and returns the previous one (0 if
// none). References at or below floor may be dropped.
func (t *lastStore) swap(word, ref, floor uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := t.home(word)
	for ; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			break
		}
		if s.word == word {
			old := s.ref
			s.ref = ref
			return old
		}
	}
	if 2*(t.used+1) > len(t.slots) {
		t.rehash(floor)
		t.insert(word, ref)
		return 0
	}
	t.slots[i] = storeSlot{word, ref}
	t.used++
	return 0
}

// rehash drops references at or below floor and re-inserts the rest,
// doubling the table while the survivors would fill over a quarter of it.
func (t *lastStore) rehash(floor uint64) {
	live := 0
	for _, s := range t.slots {
		if s.ref > floor {
			live++
		}
	}
	old := t.slots
	log2 := 64 - t.shift
	for 4*(live+1) > 1<<log2 {
		log2++
	}
	*t = newLastStore(log2)
	for _, s := range old {
		if s.ref > floor {
			t.insert(s.word, s.ref)
		}
	}
}

// insert places a word known to be absent.
func (t *lastStore) insert(word, ref uint64) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(word)
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = storeSlot{word, ref}
	t.used++
}
