package trace

import (
	"fmt"
	"math/bits"
)

// BitSet is a compact boolean store, used to carry the offline profiling
// pass's ground-truth ACE-ness (one bit per dynamic instruction) and its
// per-PC tags (one bit per static instruction) into the timing simulation.
type BitSet struct {
	words []uint64
	n     uint64
	view  bool // a read-only Prefix view: Set panics
}

// NewBitSet returns a bit set of length n.
func NewBitSet(n uint64) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *BitSet) Len() uint64 { return b.n }

// Prefix returns a read-only view of b's first n bits. The view shares b's
// words, so it costs no copy: Set on it panics, Get panics at n and
// beyond, and b must not be written while the view is read.
func (b *BitSet) Prefix(n uint64) *BitSet {
	if n > b.n {
		panic(fmt.Sprintf("trace: BitSet.Prefix(%d) of %d bits", n, b.n))
	}
	w := (n + 63) / 64
	return &BitSet{words: b.words[:w:w], n: n, view: true}
}

// Set sets bit i to v.
func (b *BitSet) Set(i uint64, v bool) {
	if b.view {
		panic("trace: BitSet.Set on a read-only prefix view")
	}
	if i >= b.n {
		panic(fmt.Sprintf("trace: BitSet.Set(%d) out of range %d", i, b.n))
	}
	if v {
		b.words[i/64] |= 1 << (i % 64)
	} else {
		b.words[i/64] &^= 1 << (i % 64)
	}
}

// Get returns bit i.
func (b *BitSet) Get(i uint64) bool {
	if i >= b.n {
		panic(fmt.Sprintf("trace: BitSet.Get(%d) out of range %d", i, b.n))
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Words exposes the backing words. A prefix view's last word may hold
// bits of the set it views beyond Len.
func (b *BitSet) Words() []uint64 { return b.words }

// Count returns the number of set bits in [0, upto).
func (b *BitSet) Count(upto uint64) uint64 {
	if upto > b.n {
		upto = b.n
	}
	var c uint64
	var i uint64
	for ; i+64 <= upto; i += 64 {
		c += uint64(bits.OnesCount64(b.words[i/64]))
	}
	for ; i < upto; i++ {
		if b.Get(i) {
			c++
		}
	}
	return c
}

// streamCap is the ring capacity of a Stream: it must exceed the maximum
// number of in-flight correct-path instructions per thread (fetch queue +
// ROB + slack). Power of two for cheap indexing.
const streamCap = 1024

// Stream is a sliding window over a thread's committed dynamic instruction
// stream. The pipeline's fetch unit addresses it by absolute position; the
// commit stage releases positions it will never need again. If the profiled
// ACE bit set is attached, each instruction carries its ground-truth
// ACE-ness. The stream also carries the per-PC ACE tags the issue logic
// reads, so the program image it executes can be shared read-only.
type Stream struct {
	exec *Executor
	ace  *BitSet // may be nil (unprofiled run)

	buf  [streamCap]DynInst
	next uint64 // absolute index of the first ungenerated position
	low  uint64 // lowest position still addressable

	// tag holds the words of the per-PC tag bits by static instruction
	// index (all clear when untagged); it sits after the ring so the
	// ring's entries keep their cache-line placement.
	tag []uint64
}

// NewStream wraps exec. ace, if non-nil, supplies ground-truth ACE bits by
// sequence number; positions beyond its length default to un-ACE. tag
// holds the per-PC ACE tags, one bit per static instruction indexed like
// exec.Prog.Instrs (an offline profile's Tag); nil means every instruction
// is untagged. The stream reads tag and never writes it, so one bit set
// may back many streams.
func NewStream(exec *Executor, ace *BitSet, tag *BitSet) *Stream {
	switch {
	case tag == nil:
		tag = NewBitSet(uint64(exec.Prog.Len()))
	case tag.Len() != uint64(exec.Prog.Len()):
		panic(fmt.Sprintf("trace: %d ACE tags for a %d-instruction program", tag.Len(), exec.Prog.Len()))
	}
	return &Stream{exec: exec, ace: ace, tag: tag.words}
}

// Tag returns the per-PC ACE tag of the static instruction at index i of
// the executor's program (see program.IndexOf).
func (s *Stream) Tag(i int) bool { return s.tag[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

// At returns the dynamic instruction at absolute position pos, generating
// forward as needed. Positions below the released low-water mark panic:
// that is a pipeline bookkeeping bug, not a recoverable condition.
func (s *Stream) At(pos uint64) *DynInst {
	if pos < s.low {
		panic(fmt.Sprintf("trace: Stream.At(%d) below released mark %d", pos, s.low))
	}
	for s.next <= pos {
		if s.next-s.low >= streamCap {
			panic(fmt.Sprintf("trace: Stream window overflow (low=%d next=%d); pipeline holds too many in-flight instructions", s.low, s.next))
		}
		d := &s.buf[s.next%streamCap]
		s.exec.Next(d)
		if s.ace != nil && d.Seq < s.ace.Len() {
			d.ACE = s.ace.Get(d.Seq)
		}
		s.next++
	}
	return &s.buf[pos%streamCap]
}

// Release marks all positions below pos as no longer needed.
func (s *Stream) Release(pos uint64) {
	if pos > s.low {
		s.low = pos
	}
}

// Executor exposes the underlying executor (for wrong-path address
// generation).
func (s *Stream) Executor() *Executor { return s.exec }
