package pipeline

import (
	"fmt"

	"visasim/internal/avf"
	"visasim/internal/cache"
	"visasim/internal/isa"
	"visasim/internal/uarch"
)

// dispatch moves decoded uops from the per-thread fetch queues into the
// shared issue queue (and ROB/LSQ), in program order per thread with
// round-robin arbitration across threads, subject to the controller's
// decision (IQL cap, waiting cap, per-thread gating).
func (p *Processor) dispatch(now uint64) {
	iqCap := p.iq.Size()
	if p.dec.IQLCap >= 0 && p.dec.IQLCap < iqCap {
		iqCap = p.dec.IQLCap
	}
	width := p.cfg.IssueWidth
	ti := int(now) % p.n
	for i := 0; i < p.n && width > 0; i, ti = i+1, ti+1 {
		if ti == p.n {
			ti = 0
		}
		t := p.threads[ti]
		if p.dec.GateDispatch[t.id] {
			continue
		}
		for width > 0 {
			// Head gating reads the fetch queue's dense SoA rings; the
			// uop itself is dereferenced only once dispatch is certain.
			dr, ok := t.fq.HeadReadyAt()
			if !ok || dr > now {
				break
			}
			if t.rob.Full() || (t.fq.HeadIsMem() && t.lsq.Full()) {
				break
			}
			if p.iq.Len() >= iqCap {
				// Shared structure exhausted (or capped): no
				// thread can dispatch.
				return
			}
			if !p.org.CanAccept(t.id) {
				// Organization-level admission: a partitioned queue's
				// per-thread watermark, or a circular-mode queue's
				// reduced usable capacity.
				break
			}
			// Peek readiness for the waiting-cap check before
			// committing to dispatch.
			if p.dec.WaitingCap >= 0 && p.iq.Census().Waiting >= p.dec.WaitingCap && p.wouldWait(t, t.fq.Head()) {
				break // in-order dispatch: this thread stalls
			}
			p.dispatchUop(t, t.fqPop(), now)
			width--
		}
	}
}

// schedSources returns the operands u must wait for before issuing. Stores
// are split STA/STD style: address generation (Src2) gates issue, while the
// data operand (Src1) is only needed at commit, by which point its older
// producer has necessarily committed.
func schedSources(u *uarch.Uop) [2]isa.Reg {
	in := u.Static()
	if in.Kind == isa.Store {
		return [2]isa.Reg{in.Src2, isa.RegNone}
	}
	return [2]isa.Reg{in.Src1, in.Src2}
}

// wouldWait reports whether u would enter the IQ with unavailable sources.
func (p *Processor) wouldWait(t *thread, u *uarch.Uop) bool {
	for _, r := range schedSources(u) {
		if r == isa.RegNone || r == isa.RegZero {
			continue
		}
		if w := t.renameMap[r]; w != nil && w.Stage < uarch.StageCompleted {
			return true
		}
	}
	return false
}

// dispatchUop renames u and inserts it into the IQ, ROB and (for memory
// operations) LSQ, updating AVF accounting.
func (p *Processor) dispatchUop(t *thread, u *uarch.Uop, now uint64) {
	in := u.Static()
	pending := int8(0)
	for _, r := range schedSources(u) {
		if r == isa.RegNone || r == isa.RegZero {
			continue
		}
		if w := t.renameMap[r]; w != nil && w.Stage < uarch.StageCompleted {
			pending++
			w.AddDependent(u)
		}
	}
	u.SrcPending = pending
	if pending == 0 {
		u.ReadyAt = now
	}
	if in.HasDest() {
		if pw := t.renameMap[in.Dest]; pw != nil {
			pw.NextWriter = u
		}
		u.PrevWriter = t.renameMap[in.Dest]
		t.renameMap[in.Dest] = u
	}
	t.rob.Push(u)
	if u.Kind().IsMem() {
		t.lsq.Push(u)
	}
	// Settle the lazily accumulated occupancy statistics through the
	// cycles the old occupancy covered before this entry changes them.
	p.settleIQStats(now)
	p.iq.Insert(u)
	u.DispatchedAt = now
	p.iqTrue.AddAt(avf.IQBits(u.WrongPath, u.ACE), now)
	p.iqTag.AddAt(avf.IQBits(u.WrongPath, u.ACETag), now)
	p.iqThreadAce[u.Thread] += avf.IQBits(u.WrongPath, u.ACE)
	p.robAcc.AddAt(avf.ROBBits(u.WrongPath, u.ACE), now)
	p.robTag.AddAt(avf.ROBBits(u.WrongPath, u.ACETag), now)
}

// iqDrain removes u from the issue queue, reversing its AVF contribution.
func (p *Processor) iqDrain(u *uarch.Uop) {
	now := p.cycle
	p.settleIQStats(now)
	p.iq.Remove(u)
	p.iqTrue.SubAt(avf.IQBits(u.WrongPath, u.ACE), now)
	p.iqTag.SubAt(avf.IQBits(u.WrongPath, u.ACETag), now)
	p.iqThreadAce[u.Thread] -= avf.IQBits(u.WrongPath, u.ACE)
}

// issue selects up to IssueWidth ready instructions per the scheduler
// (oldest-first or VISA) and starts them on function units. Loads honour
// the LSQ's memory-dependence discipline and access the cache hierarchy;
// L2 misses are recorded and may request a FLUSH.
//
// A load the LSQ blocks behind an older unissued store is parked off the
// ready list until that store issues (its disposition cannot change before
// then; see LSQ.CheckLoad), so later cycles do not scan it again.
func (p *Processor) issue(now uint64) {
	// Census was snapshotted after writeback this cycle and nothing touches
	// the queue in between, so an empty ready set means Select would return
	// no candidates (Select is side-effect-free in every organization).
	if p.census.Ready == 0 {
		return
	}
	cands := p.org.Select(p.sched)
	issued := 0
	// cands can grow: a store that issues re-offers the loads it unparks.
	for i := 0; i < len(cands); i++ {
		if issued >= p.cfg.IssueWidth {
			break
		}
		u := p.iq.At(int(cands[i]))
		if u == nil || u.Stage != uarch.StageInIQ {
			continue
		}
		t := p.threads[u.Thread]
		if u.Kind() == isa.Load {
			disp := t.lsq.CheckLoad(u)
			if disp == uarch.LoadBlocked {
				p.iq.Park(u)
				continue
			}
			if !p.fus.TryIssue(u, now) {
				continue
			}
			p.iqDrain(u)
			if disp == uarch.LoadForward {
				u.CompleteAt = now + 1
			} else {
				res := p.mem.Data(u.Dyn.Addr, now, false)
				u.CompleteAt = res.ReadyAt
				if res.Level != cache.HitL1 {
					u.MissedL1 = true
					t.outstandingL1D++
				}
				if res.L2Miss() {
					u.L2Miss = true
					t.outstandingL2++
					if p.pol.flushOnL2Miss(p.dec.UseFlush) {
						p.flushReq = append(p.flushReq, u)
					}
				}
			}
		} else {
			if !p.fus.TryIssue(u, now) {
				continue
			}
			p.iqDrain(u)
			u.CompleteAt = now + uint64(u.Kind().Latency())
		}
		if p.protWake != 0 {
			// Protection logic in the result-broadcast path (ECC
			// correction) delays every wakeup.
			u.CompleteAt += p.protWake
		}
		u.Stage = uarch.StageIssued
		u.IssuedAt = now
		// Ready→issue wait is sampled on the integer-ALU class only:
		// its eight units never bind, so the wait isolates the
		// scheduler's ordering from FU contention and LSQ blocking.
		if u.Kind().FU() == isa.FUIntALU {
			if u.ACETag {
				p.resTaggedSum += now - u.DispatchedAt
				p.waitTaggedSum += now - u.ReadyAt
				p.resTaggedCount++
			} else {
				p.resUntaggedSum += now - u.DispatchedAt
				p.waitUntaggedSum += now - u.ReadyAt
				p.resUntaggedCount++
			}
		}
		p.wheelPush(u, now)
		issued++
		if u.Blocking {
			cands = p.unparkBehind(t, u, cands, i)
		}
	}
}

// unparkBehind returns every load of t parked behind store s, which just
// issued as candidate at of this cycle's list cands, to the ready list. Each
// load is also re-offered to the rest of this cycle, at the place a fresh
// selection would give it, so it issues in the same cycle it would have if
// it had never left the ready list.
func (p *Processor) unparkBehind(t *thread, s *uarch.Uop, cands []int32, at int) []int32 {
	t.lsq.ParkedBehind(s, func(l *uarch.Uop) {
		p.iq.Unpark(l)
		cands = p.iq.Reoffer(cands, at, s, l)
	})
	return cands
}

// processFlushes applies FLUSH to threads whose loads missed to memory this
// cycle: squash everything younger than the missing load and stall fetch
// until the line returns.
func (p *Processor) processFlushes(now uint64) {
	for _, load := range p.flushReq {
		t := p.threads[load.Thread]
		if load.Stage == uarch.StageSquashed {
			continue // an earlier flush this cycle already covered it
		}
		p.squashAfter(t, load)
		t.flushStall = true
		t.flushes++
		// Resume fetch right after the load once the miss resolves.
		t.pc = load.Dyn.NextPC
		if load.WrongPath {
			t.onTrace = false
		} else {
			t.onTrace = true
			t.streamPos = load.StreamPos + 1
		}
	}
	p.flushReq = p.flushReq[:0]
}

// complete processes this cycle's completion-wheel slot: writeback, wakeup,
// policy counter maintenance and branch-misprediction resolution.
func (p *Processor) complete(now uint64) {
	slot := now % wheelSize
	// The occupancy bit is authoritative (set iff the slot list is
	// non-empty), so an empty slot costs one word test — no slice header
	// load, and no store that would drag a GC write barrier into every
	// quiet cycle.
	if p.wheelBits[slot/64]>>(slot%64)&1 == 0 {
		return
	}
	list := p.wheel[slot]
	p.wheel[slot] = list[:0]
	p.wheelBits[slot/64] &^= 1 << (slot % 64)
	p.wheelCount -= len(list)
	for _, u := range list {
		t := p.threads[u.Thread]
		// Miss-tracking counters drain even for squashed uops: the
		// line fill completes regardless.
		if u.Kind() == isa.Load {
			if u.MissedL1 {
				t.outstandingL1D--
			}
			if u.PDGPredMiss {
				t.pdgInFlight--
			}
			if u.L2Miss {
				t.outstandingL2--
				if t.flushStall && t.outstandingL2 == 0 {
					t.flushStall = false
				}
			}
		}
		if u.Stage != uarch.StageIssued {
			// Squashed while executing: the wheel entry was the last
			// reference keeping the allocation alive.
			if u.Stage == uarch.StageSquashed {
				p.pool.Put(u)
			}
			continue
		}
		if u.Kind() == isa.Load {
			p.pol.pdgTrain(u.Static().PC, u.MissedL1)
		}
		u.Stage = uarch.StageCompleted
		// Mirror the stage into the ROB's completed-flag ring: every
		// issued, unsquashed uop is resident in its thread's ROB.
		t.rob.MarkCompleted(u)
		for _, ref := range u.Dependents() {
			d := ref.U
			// A stale generation is a squashed consumer whose
			// allocation was recycled; skip it.
			if !ref.Live() || d.Stage != uarch.StageInIQ {
				continue
			}
			d.SrcPending--
			if d.SrcPending == 0 {
				p.iq.Wake(d)
				d.ReadyAt = now
			}
			if d.SrcPending < 0 {
				panic("pipeline: negative source-pending count")
			}
		}
		u.ClearDependents()
		if u.Mispredicted && !u.WrongPath {
			p.resolveMispredict(t, u, now)
		}
	}
}

// resolveMispredict repairs predictor state, squashes the wrong path and
// redirects fetch.
func (p *Processor) resolveMispredict(t *thread, u *uarch.Uop, now uint64) {
	p.bp.Restore(t.id, u.CP)
	if u.Kind() == isa.Branch {
		p.bp.FixHistory(t.id, u.Dyn.Taken)
	}
	p.bp.NoteMispredict()
	t.mispredicts++

	p.squashAfter(t, u)
	if t.pendingMispredict != u {
		panic("pipeline: resolving a mispredict that is not pending")
	}
	t.pendingMispredict = nil
	t.onTrace = true
	t.streamPos = u.StreamPos + 1
	t.pc = u.Dyn.NextPC
	if redirect := now + uint64(p.cfg.MispredictPenalty); redirect > t.stallUntil {
		t.stallUntil = redirect
	}
}

// squashAfter removes every uop of t younger than u (which must be in t's
// ROB) from the machine, and empties the fetch queue.
func (p *Processor) squashAfter(t *thread, u *uarch.Uop) {
	for {
		y := t.rob.Tail()
		if y == nil {
			panic("pipeline: squash target not in ROB")
		}
		if y == u {
			break
		}
		t.rob.PopTail()
		p.squashUop(t, y)
	}
	for t.fq.Len() > 0 {
		f := t.fqPop()
		p.releasePredMiss(t, f)
		f.Stage = uarch.StageSquashed
		if f == t.pendingMispredict {
			t.pendingMispredict = nil
		}
		p.noteSquashed(t, f)
		// Never dispatched: nothing else references it.
		p.pool.Put(f)
	}
}

// releasePredMiss returns a squashed, never-issued load's PDG reservation.
// Must run before the uop's stage changes to Squashed; issued loads release
// theirs when their completion-wheel entry fires.
func (p *Processor) releasePredMiss(t *thread, u *uarch.Uop) {
	if u.PDGPredMiss && u.Stage < uarch.StageIssued {
		u.PDGPredMiss = false
		t.pdgInFlight--
	}
}

// squashUop reverses a dispatched uop's machine state.
func (p *Processor) squashUop(t *thread, y *uarch.Uop) {
	p.releasePredMiss(t, y)
	// Issued-but-incomplete uops stay referenced by the completion wheel;
	// their allocation is recycled when that slot fires.
	onWheel := y.Stage == uarch.StageIssued
	switch y.Stage {
	case uarch.StageInIQ:
		p.iqDrain(y)
	case uarch.StageIssued, uarch.StageCompleted:
		// Issued uops stay on the wheel; complete() skips them.
	default:
		panic(fmt.Sprintf("pipeline: squashing uop in stage %v", y.Stage))
	}
	if y.LSQSlot >= 0 {
		t.lsq.Remove(y)
	}
	in := y.Static()
	if in.HasDest() {
		if t.renameMap[in.Dest] == y {
			t.renameMap[in.Dest] = y.PrevWriter
		}
		// Squash runs youngest-first, so y's own NextWriter is already
		// dead and unhooked; y in turn unhooks from its predecessor.
		if pw := y.PrevWriter; pw != nil && pw.NextWriter == y {
			pw.NextWriter = nil
		}
	}
	if y == t.pendingMispredict {
		t.pendingMispredict = nil
	}
	p.robAcc.SubAt(avf.ROBBits(y.WrongPath, y.ACE), p.cycle)
	p.robTag.SubAt(avf.ROBBits(y.WrongPath, y.ACETag), p.cycle)
	y.Stage = uarch.StageSquashed
	p.noteSquashed(t, y)
	if !onWheel {
		p.pool.Put(y)
	}
}

// noteSquashed records squashed-instruction tag statistics (the paper's
// "83% accuracy including squashed instructions" figure: a squashed
// instruction is un-ACE, so a set tag is a false positive).
func (p *Processor) noteSquashed(t *thread, y *uarch.Uop) {
	t.squashed++
	p.squashedTotal++
	if y.ACETag {
		p.squashedTagged++
	}
}

// commit retires completed uops in order per thread, up to CommitWidth
// total per cycle, round-robin across threads.
func (p *Processor) commit(now uint64) {
	width := p.cfg.CommitWidth
	ti := int(now) % p.n
	for i := 0; i < p.n && width > 0; i, ti = i+1, ti+1 {
		if ti == p.n {
			ti = 0
		}
		t := p.threads[ti]
		for width > 0 {
			// The completed-flag ring answers the common "head still in
			// flight" case without touching the uop.
			if !t.rob.HeadCompleted() {
				break
			}
			p.commitUop(t, t.rob.Head(), now)
			width--
		}
	}
}

func (p *Processor) commitUop(t *thread, u *uarch.Uop, now uint64) {
	if u.WrongPath {
		panic("pipeline: committing a wrong-path uop")
	}
	t.rob.Pop()
	u.Stage = uarch.StageCommitted
	u.PrevWriter = nil // release the rename-history chain

	in := u.Static()
	// Unhook from the rename structures so the allocation can be
	// recycled: a committed writer is indistinguishable from "no
	// in-flight writer" to every rename-map reader.
	if w := u.NextWriter; w != nil && w.PrevWriter == u {
		w.PrevWriter = nil
	}
	u.NextWriter = nil
	if in.HasDest() && t.renameMap[in.Dest] == u {
		t.renameMap[in.Dest] = nil
	}
	// Register-file AVF: reads refresh the value's last-use time;
	// a write closes the previous value's vulnerable span.
	for _, r := range [2]isa.Reg{in.Src1, in.Src2} {
		if r == isa.RegNone || r == isa.RegZero {
			continue
		}
		t.regs[r].lastRead = now
	}
	if in.HasDest() {
		p.closeRegSpan(t, in.Dest)
		t.regs[in.Dest] = regLife{writeCycle: now, lastRead: now, ace: u.ACE, valid: true}
	}

	switch in.Kind {
	case isa.Store:
		p.mem.Data(u.Dyn.Addr, now, true)
		t.lsq.Remove(u)
	case isa.Load:
		t.lsq.Remove(u)
	case isa.Branch:
		p.bp.Resolve(t.id, in.PC, u.CP.History, u.Dyn.Taken)
		if u.Dyn.Taken {
			p.bp.BTBInsert(in.PC, in.Target, now)
		}
	case isa.Jump, isa.Call:
		p.bp.BTBInsert(in.PC, in.Target, now)
	}

	p.robAcc.SubAt(avf.ROBBits(u.WrongPath, u.ACE), now)
	p.robTag.SubAt(avf.ROBBits(u.WrongPath, u.ACETag), now)
	t.commits++
	p.totalCommits++
	t.stream.Release(u.StreamPos + 1)
	p.pool.Put(u)
}

// closeRegSpan charges the register's previous value lifetime to RF AVF.
func (p *Processor) closeRegSpan(t *thread, r isa.Reg) {
	old := &t.regs[r]
	if old.valid && old.ace && old.lastRead > old.writeCycle {
		p.rfAcc.AddSpan(avf.RegBits, old.lastRead-old.writeCycle)
	}
}
