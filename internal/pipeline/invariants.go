package pipeline

import (
	"fmt"

	"visasim/internal/avf"
	"visasim/internal/isa"
	"visasim/internal/uarch"
)

// CheckInvariants validates cross-structure bookkeeping; tests call it
// between steps to catch accounting drift early. It is O(machine size) and
// intended for testing, not the simulation hot path.
func (p *Processor) CheckInvariants() error {
	// The incrementally maintained census must match a fresh walk, and
	// the scheduler's ready list must mirror the ready residents in age
	// order.
	c := p.iq.Census()
	if walk := p.iq.CensusWalk(); c != walk {
		return fmt.Errorf("incremental census %+v != walked census %+v", c, walk)
	}
	if c.Ready+c.Waiting != p.iq.Len() {
		return fmt.Errorf("census %d+%d != IQ len %d", c.Ready, c.Waiting, p.iq.Len())
	}
	if err := p.iq.CheckReady(); err != nil {
		return err
	}

	// AVF current counters must equal a fresh walk of the structures.
	var iqTrue, iqTag uint64
	p.iq.ForEach(func(u *uarch.Uop) {
		iqTrue += iqBitsOf(u, false)
		iqTag += iqBitsOf(u, true)
	})
	if iqTrue != p.iqTrue.Current() || iqTag != p.iqTag.Current() {
		return fmt.Errorf("IQ ACE bits walk (%d,%d) != counters (%d,%d)",
			iqTrue, iqTag, p.iqTrue.Current(), p.iqTag.Current())
	}
	var robBits, robTagBits uint64
	perThreadIQ := make([]int, p.n)
	for _, t := range p.threads {
		t.rob.ForEach(func(u *uarch.Uop) {
			robBits += robBitsOf(u)
			robTagBits += avf.ROBBits(u.WrongPath, u.ACETag)
			if u.Stage == uarch.StageInIQ {
				perThreadIQ[t.id]++
			}
			if u.Stage == uarch.StageSquashed || u.Stage == uarch.StageCommitted {
				panic("dead uop in ROB")
			}
		})
		// Rename-map entries must be live in-flight uops of this
		// thread: a committed or squashed (possibly recycled) entry
		// would mean the pool release protocol leaked a reference.
		for r, w := range t.renameMap {
			if w == nil {
				continue
			}
			if int(w.Thread) != t.id || w.Stage == uarch.StageCommitted || w.Stage == uarch.StageSquashed || w.Stage == uarch.StageFetched {
				return fmt.Errorf("thread %d renameMap[%d] holds a non-in-flight uop (stage %v)", t.id, r, w.Stage)
			}
		}
	}
	if robBits != p.robAcc.Current() {
		return fmt.Errorf("ROB ACE bits walk %d != counter %d", robBits, p.robAcc.Current())
	}
	if robTagBits != p.robTag.Current() {
		return fmt.Errorf("ROB tag bits walk %d != counter %d", robTagBits, p.robTag.Current())
	}
	for i, t := range p.threads {
		if got := p.iq.ThreadLen(i); got != perThreadIQ[i] {
			return fmt.Errorf("thread %d IQ count %d != ROB walk %d", i, got, perThreadIQ[i])
		}
		// Policy counters never go negative.
		if t.outstandingL2 < 0 || t.outstandingL1D < 0 || t.pdgInFlight < 0 || t.fqACETag < 0 {
			return fmt.Errorf("thread %d negative policy counter (%d,%d,%d,%d)",
				i, t.outstandingL2, t.outstandingL1D, t.pdgInFlight, t.fqACETag)
		}
		// LSQ entries must be live memory uops of this thread, and a
		// parked load must be blocked on the youngest older unissued store,
		// marked Blocking (where the issue stage looks for it).
		var lsqErr error
		var blocker *uarch.Uop
		t.lsq.ForEach(func(u *uarch.Uop) {
			if !u.Kind().IsMem() || int(u.Thread) != t.id || u.Stage == uarch.StageSquashed {
				lsqErr = fmt.Errorf("thread %d LSQ holds invalid uop %v", t.id, u.Stage)
			}
			if u.Kind() == isa.Store && u.Stage < uarch.StageIssued {
				blocker = u
			}
			if u.Parked && (u.Stage != uarch.StageInIQ || blocker == nil || u.BlockedOn != blocker || !blocker.Blocking) {
				lsqErr = fmt.Errorf("thread %d parked load %d is not blocked on its youngest older unissued store", t.id, u.Age)
			}
		})
		if lsqErr != nil {
			return lsqErr
		}
	}
	return nil
}

func iqBitsOf(u *uarch.Uop, tagged bool) uint64 {
	ace := u.ACE
	if tagged {
		ace = u.ACETag
	}
	return avf.IQBits(u.WrongPath, ace)
}

func robBitsOf(u *uarch.Uop) uint64 {
	return avf.ROBBits(u.WrongPath, u.ACE)
}
