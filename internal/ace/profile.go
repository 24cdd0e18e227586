package ace

import (
	"fmt"

	"visasim/internal/program"
	"visasim/internal/trace"
)

// Profile is the result of an offline vulnerability-profiling run over one
// program (§2.1 of the paper): ground-truth per-instance ACE-ness for the
// profiled prefix of the dynamic stream, plus the per-PC 1-bit ACE tags the
// proposed hardware reads from the extended ISA.
type Profile struct {
	// Bits holds ground-truth ACE-ness per dynamic instruction (by
	// commit sequence number) for the profiled prefix.
	Bits *trace.BitSet

	// Tag holds the per-static-instruction (per-PC) ACE tag: true if
	// any profiled dynamic instance of that PC was ACE. Indexed by
	// static instruction index. It is the only copy of the tags: the
	// timing simulation reads it through trace.NewStream, and the
	// program image stays untouched.
	Tag []bool

	// Instances and ACEInstances count profiled dynamic instances per
	// static instruction. Run caps a profile below 2^32 instructions, so
	// 32 bits cannot overflow.
	Instances    []uint32
	ACEInstances []uint32

	// DynInstrs is the number of classified dynamic instructions.
	DynInstrs uint64
	// DynACE is how many of them were ACE.
	DynACE uint64
	// LateMarks is the analyzer's windowing-error count.
	LateMarks uint64
}

// ACEFraction returns the fraction of profiled dynamic instructions that
// were ACE.
func (p *Profile) ACEFraction() float64 {
	if p.DynInstrs == 0 {
		return 0
	}
	return float64(p.DynACE) / float64(p.DynInstrs)
}

// Accuracy returns the accuracy of per-PC tagging measured against
// per-instance ground truth over committed instructions (Table 1 of the
// paper): the fraction of dynamic instances whose instance ACE-ness matches
// the final PC tag. Because a PC is tagged ACE if any instance is ACE, all
// mismatches are false positives (un-ACE instances tagged ACE); ACE
// instances are never mispredicted.
func (p *Profile) Accuracy() float64 {
	if p.DynInstrs == 0 {
		return 1
	}
	var mismatches uint64
	for i, n := range p.Instances {
		if p.Tag[i] {
			// ACE-tagged PC: un-ACE instances mismatch.
			mismatches += uint64(n - p.ACEInstances[i])
		}
		// un-ACE-tagged PC: by construction every instance was
		// un-ACE; no mismatch possible.
	}
	return 1 - float64(mismatches)/float64(p.DynInstrs)
}

// Run profiles prog for dynInstrs dynamic instructions using the given
// analysis window (0 = DefaultWindow). The executor is seeded exactly as
// the timing simulation will seed its own (see trace.NewExecutor), so the
// profiled prefix matches the simulated stream instruction for instruction.
//
// The two analysis stages run concurrently: a goroutine executes the
// program and resolves edge records, handing them over in batches, while
// the caller's goroutine runs the window. The records and the order the
// window consumes them in are exactly those of Analyzer.Retire, so the
// profile is identical to a synchronous pass.
func Run(prog *program.Program, seed uint64, thread int, dynInstrs uint64, window int) (*Profile, error) {
	if dynInstrs == 0 {
		return nil, fmt.Errorf("ace: zero-length profile of %s", prog.Name)
	}
	if dynInstrs >= maxProfileInstrs {
		return nil, fmt.Errorf("ace: profile of %s asks for %d instructions, limit %d",
			prog.Name, dynInstrs, uint64(maxProfileInstrs-1))
	}
	if window <= 0 {
		window = DefaultWindow
	}
	p := &Profile{
		Bits:         trace.NewBitSet(dynInstrs),
		Tag:          make([]bool, prog.Len()),
		Instances:    make([]uint32, prog.Len()),
		ACEInstances: make([]uint32, prog.Len()),
	}
	// Feed dynInstrs + window instructions so every profiled
	// instruction gets a full analysis window behind it.
	total := dynInstrs + uint64(window)

	full := make(chan []edge, batchBuffers)
	free := make(chan []edge, batchBuffers)
	for i := 0; i < batchBuffers; i++ {
		free <- make([]edge, batchLen)
	}
	go func() {
		defer close(full)
		exec := trace.NewExecutor(prog, seed, thread)
		res := newResolver(uint64(window))
		var d trace.DynInst
		for left := total; left > 0; {
			b := <-free
			if left < uint64(len(b)) {
				b = b[:left]
			}
			for i := range b {
				exec.Next(&d)
				res.resolve(&d, int32(prog.IndexOf(d.Static.PC)), &b[i])
			}
			left -= uint64(len(b))
			full <- b
		}
	}()

	win := newWindow(uint64(window), func(seq uint64, si int32, isACE bool) {
		if seq >= dynInstrs {
			return // lookahead tail beyond the profiled prefix
		}
		p.Instances[si]++
		if isACE {
			p.Bits.Set(seq, true) // bits start clear
			p.ACEInstances[si]++
			p.Tag[si] = true
			p.DynACE++
		}
		p.DynInstrs++
	})
	for b := range full {
		for i := range b {
			win.push(&b[i])
		}
		free <- b[:cap(b)]
	}
	win.flush()
	p.LateMarks = win.lateMarks
	return p, nil
}

// maxProfileInstrs bounds a profile's length (exclusive): the per-PC
// instance counters are 32 bits wide.
const maxProfileInstrs = 1 << 32

// Run's hand-over between the stages: batchBuffers recycled batches of
// batchLen edge records (96 KiB each). Both channels can hold every batch,
// so no send blocks; with four batches the resolver can run up to three
// ahead of the window, which absorbs the stages' uneven per-batch cost.
const (
	batchLen     = 4096
	batchBuffers = 4
)
