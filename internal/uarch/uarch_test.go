package uarch

import (
	"testing"

	"visasim/internal/isa"
	"visasim/internal/trace"
)

func mkUop(kind isa.Kind, age uint64, thread int32) *Uop {
	in := &isa.Inst{Kind: kind, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	return &Uop{
		Dyn:     trace.DynInst{Static: in},
		Thread:  thread,
		Age:     age,
		IQSlot:  -1,
		LSQSlot: -1,
	}
}

func TestIQInsertRemove(t *testing.T) {
	q := NewIQ(4)
	var uops []*Uop
	for i := 0; i < 4; i++ {
		u := mkUop(isa.IntALU, uint64(i), 0)
		q.Insert(u)
		uops = append(uops, u)
	}
	if !q.Full() || q.Len() != 4 {
		t.Fatal("queue should be full")
	}
	if q.ThreadLen(0) != 4 {
		t.Fatalf("thread len %d", q.ThreadLen(0))
	}
	q.Remove(uops[2])
	if q.Len() != 3 || q.Full() {
		t.Fatal("remove did not free a slot")
	}
	// Freed slot is reusable.
	u := mkUop(isa.IntALU, 99, 1)
	q.Insert(u)
	if q.ThreadLen(1) != 1 {
		t.Fatal("per-thread count wrong after reuse")
	}
}

func TestIQInsertFullPanics(t *testing.T) {
	q := NewIQ(1)
	q.Insert(mkUop(isa.IntALU, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on full insert")
		}
	}()
	q.Insert(mkUop(isa.IntALU, 1, 0))
}

func TestIQDoubleRemovePanics(t *testing.T) {
	q := NewIQ(2)
	u := mkUop(isa.IntALU, 0, 0)
	q.Insert(u)
	q.Remove(u)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double remove")
		}
	}()
	q.Remove(u)
}

func TestCensus(t *testing.T) {
	q := NewIQ(8)
	ready := mkUop(isa.IntALU, 0, 0)
	ready.ACE, ready.ACETag = true, true
	waiting := mkUop(isa.IntALU, 1, 0)
	waiting.SrcPending = 1
	unace := mkUop(isa.IntALU, 2, 1)
	q.Insert(ready)
	q.Insert(waiting)
	q.Insert(unace)
	c := q.Census()
	if c.Ready != 2 || c.Waiting != 1 {
		t.Fatalf("census ready=%d waiting=%d", c.Ready, c.Waiting)
	}
	if c.ReadyACE != 1 || c.ReadyACETag != 1 {
		t.Fatalf("census ACE counts %d/%d", c.ReadyACE, c.ReadyACETag)
	}
	if c.ResidentACE != 1 {
		t.Fatalf("resident ACE %d", c.ResidentACE)
	}
}

func TestSchedulerOldestFirst(t *testing.T) {
	q := NewIQ(8)
	for _, age := range []uint64{5, 1, 9, 3} {
		q.Insert(mkUop(isa.IntALU, age, 0))
	}
	cands := q.ReadyCandidates(SchedOldestFirst)
	for i := 1; i < len(cands); i++ {
		if q.At(int(cands[i])).Age < q.At(int(cands[i-1])).Age {
			t.Fatal("not age ordered")
		}
	}
}

func TestSchedulerVISA(t *testing.T) {
	q := NewIQ(8)
	mk := func(age uint64, tag bool) *Uop {
		u := mkUop(isa.IntALU, age, 0)
		u.ACETag = tag
		return u
	}
	q.Insert(mk(1, false))
	q.Insert(mk(2, true))
	q.Insert(mk(3, false))
	q.Insert(mk(4, true))
	cands := q.ReadyCandidates(SchedVISA)
	want := []struct {
		age uint64
		tag bool
	}{{2, true}, {4, true}, {1, false}, {3, false}}
	for i, w := range want {
		u := q.At(int(cands[i]))
		if u.Age != w.age || u.ACETag != w.tag {
			t.Fatalf("slot %d: age=%d tag=%v", i, u.Age, u.ACETag)
		}
	}
}

func TestSchedulerSkipsWaiting(t *testing.T) {
	q := NewIQ(4)
	w := mkUop(isa.IntALU, 0, 0)
	w.SrcPending = 2
	q.Insert(w)
	q.Insert(mkUop(isa.IntALU, 1, 0))
	if cands := q.ReadyCandidates(SchedOldestFirst); len(cands) != 1 || q.At(int(cands[0])).Age != 1 {
		t.Fatal("waiting uop in candidate list")
	}
}

func TestROBOrder(t *testing.T) {
	r := NewROB(4)
	for i := 0; i < 3; i++ {
		r.Push(mkUop(isa.IntALU, uint64(i), 0))
	}
	if r.Head().Age != 0 || r.Tail().Age != 2 {
		t.Fatal("head/tail wrong")
	}
	if got := r.Pop().Age; got != 0 {
		t.Fatalf("pop age %d", got)
	}
	if got := r.PopTail().Age; got != 2 {
		t.Fatalf("pop-tail age %d", got)
	}
	if r.Len() != 1 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestROBWraparound(t *testing.T) {
	r := NewROB(3)
	age := uint64(0)
	for round := 0; round < 5; round++ {
		for r.Len() < 3 {
			r.Push(mkUop(isa.IntALU, age, 0))
			age++
		}
		r.Pop()
		r.Pop()
	}
	// Remaining entries must still be ordered.
	prev := uint64(0)
	r.ForEach(func(u *Uop) {
		if u.Age < prev {
			t.Fatal("order broken after wraparound")
		}
		prev = u.Age
	})
}

func TestLSQDispositions(t *testing.T) {
	l := NewLSQ(8)
	st := mkUop(isa.Store, 0, 0)
	st.Dyn.Addr = 0x100
	ld := mkUop(isa.Load, 1, 0)
	ld.Dyn.Addr = 0x100
	l.Push(st)
	l.Push(ld)

	// Store address unknown: load blocked.
	if got := l.CheckLoad(ld); got != LoadBlocked {
		t.Fatalf("disposition %v, want blocked", got)
	}
	if ld.BlockedOn != st {
		t.Fatal("blocked load must record its blocking store")
	}
	// Store issued, same word: forward.
	st.Stage = StageIssued
	if got := l.CheckLoad(ld); got != LoadForward {
		t.Fatalf("disposition %v, want forward", got)
	}
	// Different word: go to cache.
	ld.Dyn.Addr = 0x200
	if got := l.CheckLoad(ld); got != LoadGo {
		t.Fatalf("disposition %v, want go", got)
	}
}

// TestLSQParkedBehind: an issued store finds exactly the loads blocked on
// it, in age order, across the ring's wrap in a full queue, and the walk
// stops at the next unissued store.
func TestLSQParkedBehind(t *testing.T) {
	l := NewLSQ(6)
	for i := 0; i < 2; i++ {
		f := mkUop(isa.Load, 0, 0)
		l.Push(f)
		l.Remove(f)
	}
	s1 := mkUop(isa.Store, 1, 0)
	l1 := mkUop(isa.Load, 2, 0)
	s2 := mkUop(isa.Store, 3, 0)
	l2 := mkUop(isa.Load, 4, 0)
	s3 := mkUop(isa.Store, 5, 0)
	l3 := mkUop(isa.Load, 6, 0)
	s2.Stage = StageIssued
	s2.Dyn.Addr = 0x100
	l2.Dyn.Addr = 0x200
	for _, u := range []*Uop{s1, l1, s2, l2, s3, l3} {
		l.Push(u)
	}
	if !l.Full() || s1.LSQSlot < l3.LSQSlot {
		t.Fatal("setup must fill the queue and wrap the ring")
	}
	for _, ld := range []*Uop{l1, l2, l3} {
		if l.CheckLoad(ld) != LoadBlocked {
			t.Fatalf("load %d not blocked", ld.Age)
		}
		ld.Parked = true
	}
	behind := func(s *Uop) []*Uop {
		var got []*Uop
		l.ParkedBehind(s, func(u *Uop) { got = append(got, u) })
		return got
	}
	s1.Stage = StageIssued
	if got := behind(s1); len(got) != 2 || got[0] != l1 || got[1] != l2 {
		t.Fatalf("loads behind s1: %v", got)
	}
	s3.Stage = StageIssued
	if got := behind(s3); len(got) != 1 || got[0] != l3 {
		t.Fatalf("loads behind s3: %v", got)
	}
}

func TestLSQNoOlderStores(t *testing.T) {
	l := NewLSQ(4)
	ld := mkUop(isa.Load, 0, 0)
	ld.Dyn.Addr = 0x100
	l.Push(ld)
	if got := l.CheckLoad(ld); got != LoadGo {
		t.Fatalf("lone load disposition %v", got)
	}
}

func TestLSQRemoveEnds(t *testing.T) {
	l := NewLSQ(4)
	a := mkUop(isa.Load, 0, 0)
	b := mkUop(isa.Store, 1, 0)
	c := mkUop(isa.Load, 2, 0)
	l.Push(a)
	l.Push(b)
	l.Push(c)
	l.Remove(c) // tail (squash order)
	l.Remove(a) // head (commit order)
	if l.Len() != 1 {
		t.Fatalf("len %d", l.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double-remove must panic")
		}
	}()
	l.Remove(c)
}

func TestFUPipelined(t *testing.T) {
	p := NewFUPools([5]int{1, 1, 1, 1, 1})
	a := mkUop(isa.IntALU, 0, 0)
	b := mkUop(isa.IntALU, 1, 0)
	if !p.TryIssue(a, 10) {
		t.Fatal("first issue failed")
	}
	if p.TryIssue(b, 10) {
		t.Fatal("second issue same cycle on one unit")
	}
	if !p.TryIssue(b, 11) {
		t.Fatal("pipelined unit must accept next cycle")
	}
}

func TestFUDivBlocks(t *testing.T) {
	p := NewFUPools([5]int{1, 1, 1, 1, 1})
	d := mkUop(isa.IntDiv, 0, 0)
	if !p.TryIssue(d, 10) {
		t.Fatal("divide issue failed")
	}
	d2 := mkUop(isa.IntDiv, 1, 0)
	if p.TryIssue(d2, 11) {
		t.Fatal("non-pipelined divide accepted during busy window")
	}
	if !p.TryIssue(d2, 10+uint64(isa.IntDiv.Latency())) {
		t.Fatal("divide unit not freed after latency")
	}
}

func TestFUBusyAccounting(t *testing.T) {
	p := NewFUPools([5]int{2, 1, 1, 1, 1})
	u := mkUop(isa.IntALU, 0, 0)
	u.ACE = true
	p.TryIssue(u, 1)
	if p.BusyCycles[isa.FUIntALU] != 1 || p.BusyCyclesACE[isa.FUIntALU] != 1 {
		t.Fatal("busy accounting wrong")
	}
	if p.TotalUnits() != 6 {
		t.Fatalf("total units %d", p.TotalUnits())
	}
}

func TestUopResidency(t *testing.T) {
	u := mkUop(isa.IntALU, 0, 0)
	u.DispatchedAt = 10
	u.Stage = StageInIQ
	if got := u.IQResidency(25); got != 15 {
		t.Fatalf("in-IQ residency %d", got)
	}
	u.Stage = StageIssued
	u.IssuedAt = 22
	if got := u.IQResidency(99); got != 12 {
		t.Fatalf("issued residency %d", got)
	}
	u.Stage = StageSquashed
	if got := u.IQResidency(99); got != 0 {
		t.Fatalf("squashed residency %d", got)
	}
}
