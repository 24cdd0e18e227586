package pipeline

import (
	"fmt"

	"visasim/internal/isa"
	"visasim/internal/trace"
	"visasim/internal/uarch"
)

// fetchCand is one thread competing for fetch slots this cycle.
type fetchCand struct {
	t     *thread
	count int32
	gated bool
}

// fetch runs the front end for one cycle: order threads by ICOUNT, apply
// the policy's gating, and fetch up to FetchWidth instructions from up to
// MaxFetchThreads threads (ICOUNT.2.8), stopping per thread at a
// predicted-taken branch or an I-cache line boundary.
func (p *Processor) fetch(now uint64) {
	useFlush := p.dec.UseFlush
	cands := p.fetchCands[:0]
	for _, t := range p.threads {
		if t.stallUntil > now || t.fq.Full() {
			continue
		}
		cands = append(cands, fetchCand{t: t, count: int32(t.icount(p.iq)), gated: p.pol.gated(t, useFlush)})
	}
	if len(cands) == 0 {
		return
	}
	// Insertion sort by (icount, thread id): at most MaxThreads entries,
	// already id-ordered, so this beats sort.Slice and allocates nothing.
	// Ties keep id order because candidates were appended in id order.
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && cands[j-1].count > c.count {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}

	// FLUSH keeps fetching for at least one thread even when every
	// thread is stalled on an L2 miss (Tullsen & Brown; the paper's §4
	// discussion of MEM workloads depends on this). The exception is
	// part of the FLUSH fetch policy itself: it applies when FLUSH is
	// the base policy, or when opt2's flush mode replaces ICOUNT
	// (which has no miss gating of its own and would otherwise starve).
	// Under STALL/DG/PDG, the base policy's gating keeps governing
	// fetch and flush mode only adds the squashes.
	allGated := true
	for _, c := range cands {
		if !c.gated {
			allGated = false
			break
		}
	}
	ungateOne := -1
	if allGated && (p.pol.kind == PolicyFLUSH || (useFlush && p.pol.kind == PolicyICOUNT)) {
		best := -1
		for i, c := range cands {
			if best < 0 || c.t.outstandingL2 < cands[best].t.outstandingL2 {
				best = i
			}
		}
		ungateOne = best
	}

	slots := p.cfg.FetchWidth
	used := 0
	for i, c := range cands {
		if slots <= 0 || used >= p.cfg.MaxFetchThreads {
			break
		}
		if c.gated && i != ungateOne {
			continue
		}
		slots -= p.fetchThread(c.t, now, slots)
		used++
	}
}

// fetchThread fetches up to maxN instructions for t, returning how many
// were fetched.
func (p *Processor) fetchThread(t *thread, now uint64, maxN int) int {
	// One I-cache access per thread per cycle; a miss stalls the thread
	// until the line arrives.
	res := p.mem.Fetch(t.pc, now)
	if res.ReadyAt > now+uint64(p.cfg.L1I.HitLatency) {
		t.stallUntil = res.ReadyAt
		return 0
	}
	lineMask := uint64(p.cfg.L1I.LineBytes - 1)
	line := t.pc &^ lineMask

	count := 0
	for count < maxN && !t.fq.Full() {
		if t.pc&^lineMask != line {
			break // next line: next cycle
		}
		u, stop := p.fetchOne(t, now)
		t.fqPush(u)
		t.fetched++
		if u.WrongPath {
			t.wrongFetched++
		}
		count++
		if stop {
			break
		}
	}
	return count
}

// fetchOne builds the uop at t.pc, runs branch prediction, advances the
// fetch PC down the predicted path, and reports whether fetch must stop
// (predicted-taken control flow).
func (p *Processor) fetchOne(t *thread, now uint64) (*uarch.Uop, bool) {
	prog := t.stream.Executor().Prog
	idx := prog.IndexOf(t.pc)
	in := &prog.Instrs[idx]

	u := p.pool.Get()
	u.Thread = int32(t.id)
	u.Age = p.age
	u.FetchedAt = now
	u.DecodeReady = now + uint64(p.cfg.DecodeLatency)
	u.ACETag = t.stream.Tag(idx)
	p.age++

	if t.onTrace {
		d := t.stream.At(t.streamPos)
		if d.Static != in {
			panic(fmt.Sprintf("pipeline: fetch desync at pc %#x (oracle %#x)", in.PC, d.Static.PC))
		}
		u.Dyn = *d
		u.StreamPos = t.streamPos
		u.ACE = d.ACE
		if p.oracleTags {
			u.ACETag = d.ACE
		}
		t.streamPos++
	} else {
		u.WrongPath = true
		u.Dyn = trace.DynInst{Static: in}
		if in.Kind.IsMem() {
			u.Dyn.Addr = t.stream.Executor().WrongPathAddr(in)
		}
		if p.oracleTags {
			// An oracle knows wrong-path instructions are harmless.
			u.ACETag = false
		}
	}

	// Branch prediction. Checkpoints are taken before any speculative
	// predictor update so mispredict repair can rewind.
	predNext := in.FallThrough()
	predTaken := false
	switch in.Kind {
	case isa.Branch:
		u.CP = p.bp.Checkpoint(t.id)
		predTaken = p.bp.PredictDirection(t.id, in.PC)
		if predTaken {
			if tgt, ok := p.bp.BTBLookup(in.PC, now); ok {
				predNext = tgt
			} else {
				// Direction says taken but no target is known:
				// the front end cannot redirect.
				predTaken = false
			}
		}
	case isa.Jump:
		u.CP = p.bp.Checkpoint(t.id)
		if tgt, ok := p.bp.BTBLookup(in.PC, now); ok {
			predNext, predTaken = tgt, true
		}
	case isa.Call:
		u.CP = p.bp.Checkpoint(t.id)
		p.bp.Push(t.id, in.FallThrough())
		if tgt, ok := p.bp.BTBLookup(in.PC, now); ok {
			predNext, predTaken = tgt, true
		}
	case isa.Return:
		u.CP = p.bp.Checkpoint(t.id)
		predNext, predTaken = p.bp.Pop(t.id), true
	case isa.Load:
		if p.pol.kind == PolicyPDG && p.pol.pdgPredictMiss(in.PC) {
			u.PDGPredMiss = true
			t.pdgInFlight++
		}
	}
	u.PredTaken, u.PredNext = predTaken, predNext

	if t.onTrace {
		if predNext != u.Dyn.NextPC {
			u.Mispredicted = true
			if t.pendingMispredict != nil {
				panic("pipeline: second in-flight mispredict on correct path")
			}
			t.pendingMispredict = u
			t.onTrace = false
		}
	} else {
		// Wrong path: the prediction defines the (never-verified)
		// outcome.
		u.Dyn.Taken = predTaken
		u.Dyn.NextPC = predNext
	}

	t.pc = predNext
	return u, predTaken // fetch stops at predicted-taken control flow
}
