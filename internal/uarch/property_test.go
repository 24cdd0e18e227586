package uarch

import (
	"testing"
	"testing/quick"

	"visasim/internal/isa"
	"visasim/internal/rng"
)

// TestQuickROBMatchesSlice drives the ROB ring and a plain slice with
// identical random push/pop/pop-tail sequences.
func TestQuickROBMatchesSlice(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := NewROB(16)
		var ref []*Uop
		src := rng.New(seed)
		age := uint64(0)
		for i := 0; i < int(n%600)+50; i++ {
			switch src.Intn(3) {
			case 0:
				if r.Full() {
					continue
				}
				u := mkUop(isa.IntALU, age, 0)
				age++
				r.Push(u)
				ref = append(ref, u)
			case 1:
				if r.Empty() {
					continue
				}
				if got := r.Pop(); got != ref[0] {
					return false
				}
				ref = ref[1:]
			default:
				if r.Empty() {
					continue
				}
				if got := r.PopTail(); got != ref[len(ref)-1] {
					return false
				}
				ref = ref[:len(ref)-1]
			}
			if r.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 && (r.Head() != ref[0] || r.Tail() != ref[len(ref)-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIQSlotConsistency: after arbitrary insert/remove sequences, the
// queue's census and per-thread counts match a reference multiset.
func TestQuickIQSlotConsistency(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		q := NewIQ(12)
		src := rng.New(seed)
		var live []*Uop
		perThread := map[int32]int{}
		age := uint64(0)
		for i := 0; i < int(n%600)+50; i++ {
			if src.Bool(0.55) && !q.Full() {
				u := mkUop(isa.IntALU, age, int32(src.Intn(4)))
				age++
				if src.Bool(0.4) {
					u.SrcPending = 1
				}
				q.Insert(u)
				live = append(live, u)
				perThread[u.Thread]++
			} else if len(live) > 0 {
				idx := src.Intn(len(live))
				u := live[idx]
				q.Remove(u)
				live = append(live[:idx], live[idx+1:]...)
				perThread[u.Thread]--
			}
			if q.Len() != len(live) {
				return false
			}
			for tid, want := range perThread {
				if q.ThreadLen(int(tid)) != want {
					return false
				}
			}
			c := q.Census()
			ready := 0
			for _, u := range live {
				if u.Ready() {
					ready++
				}
			}
			if c.Ready != ready || c.Waiting != len(live)-ready {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVISAOrderProperty: for any ready set, the VISA candidate order
// is (tagged before untagged) and age-sorted within each class.
func TestQuickVISAOrderProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		q := NewIQ(64)
		src := rng.New(seed)
		for i := 0; i < int(n%60)+2; i++ {
			u := mkUop(isa.IntALU, src.Uint64()%1000, 0)
			u.ACETag = src.Bool(0.5)
			q.Insert(u)
		}
		cands := q.ReadyCandidates(SchedVISA)
		seenUntagged := false
		var prev *Uop
		for _, slot := range cands {
			u := q.At(int(slot))
			if u == nil {
				return false
			}
			if u.ACETag && seenUntagged {
				return false
			}
			if !u.ACETag {
				seenUntagged = true
			}
			if prev != nil && prev.ACETag == u.ACETag && prev.Age > u.Age {
				return false
			}
			prev = u
		}
		return len(cands) == q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReadyListMatchesReference drives the packed ready list (sorted
// uint64 keys encoding age, ACE tag and slot) and a naive reference model
// with identical random insert/wake/remove/park/unpark sequences: after
// every operation the candidate lists must match the reference exactly, for
// both schedulers, the census must count parked uops as ready, and the
// internal CheckReady audit must hold. A re-offer operation plays the issue
// stage's same-cycle splice: a candidate issues, a parked uop is unparked
// and spliced into the rest of the list, which must then equal the tail of
// a fresh selection.
func TestQuickReadyListMatchesReference(t *testing.T) {
	less := func(a, b *Uop, sched Scheduler) bool {
		if sched == SchedVISA && a.ACETag != b.ACETag {
			return a.ACETag
		}
		return a.Age < b.Age
	}
	refOrder := func(ref []*Uop, sched Scheduler) []*Uop {
		out := append([]*Uop(nil), ref...)
		// Insertion sort by the scheduler's order: (ACE-tag desc under
		// VISA) then age ascending — the spec the packed keys implement.
		for i := 1; i < len(out); i++ {
			u := out[i]
			j := i
			for j > 0 && less(u, out[j-1], sched) {
				out[j] = out[j-1]
				j--
			}
			out[j] = u
		}
		return out
	}
	panics := func(f func()) (ok bool) {
		defer func() { ok = recover() != nil }()
		f()
		return false
	}
	pick := func(src *rng.Source, live []*Uop, want func(*Uop) bool) *Uop {
		var c []*Uop
		for _, u := range live {
			if want(u) {
				c = append(c, u)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[src.Intn(len(c))]
	}
	filled := 0 // inserts that filled the queue, across all runs
	f := func(seed uint64, n uint16, visa bool) bool {
		sched := SchedOldestFirst
		if visa {
			sched = SchedVISA
		}
		q := NewIQ(24)
		src := rng.New(seed)
		var live []*Uop
		age := uint64(0)
		drop := func(u *Uop) {
			for i, v := range live {
				if v == u {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		for i := 0; i < int(n%400)+50; i++ {
			// Inserts take half the steps, as before parking existed, so
			// the queue spends most of its time near full: mid-list
			// inserts shift the shorter side and the ring wraps.
			if src.Bool(0.5) && !q.Full() {
				u := mkUop(isa.IntALU, age, int32(src.Intn(4)))
				age++
				u.ACETag = src.Bool(0.4)
				u.ACE = src.Bool(0.5)
				if src.Bool(0.4) {
					u.SrcPending = 1
				}
				q.Insert(u)
				live = append(live, u)
				if q.Full() {
					filled++
				}
			} else {
				switch src.Intn(5) {
				case 0:
					if u := pick(src, live, func(u *Uop) bool { return u.SrcPending > 0 }); u != nil {
						u.SrcPending = 0
						q.Wake(u)
					}
				case 1:
					// Removal covers parked uops (a squashed parked load).
					if len(live) == 0 {
						break
					}
					u := live[src.Intn(len(live))]
					q.Remove(u)
					drop(u)
					if u.Parked {
						t.Log("Remove left the uop parked")
						return false
					}
				case 2:
					if u := pick(src, live, func(u *Uop) bool { return u.SrcPending > 0 }); u != nil && !panics(func() { q.Park(u) }) {
						t.Log("parking a waiting uop did not panic")
						return false
					}
					if u := pick(src, live, func(u *Uop) bool { return u.Ready() && !u.Parked }); u != nil {
						q.Park(u)
						if !panics(func() { q.Park(u) }) {
							t.Log("double park did not panic")
							return false
						}
					}
				case 3:
					if u := pick(src, live, func(u *Uop) bool { return u.Parked }); u != nil {
						q.Unpark(u)
						if !panics(func() { q.Unpark(u) }) {
							t.Log("double unpark did not panic")
							return false
						}
					}
				case 4:
					// Same-cycle re-offer: candidate at issues, then u is
					// unparked and spliced into the remainder.
					u := pick(src, live, func(u *Uop) bool { return u.Parked })
					cands := q.ReadyCandidates(sched)
					if u == nil || len(cands) == 0 {
						break
					}
					at := src.Intn(len(cands))
					issued := q.At(int(cands[at]))
					q.Remove(issued)
					drop(issued)
					q.Unpark(u)
					got := q.Reoffer(cands, at, issued, u)
					var gotTail []*Uop
					for _, slot := range got[at+1:] {
						gotTail = append(gotTail, q.At(int(slot)))
					}
					var wantTail []*Uop
					for _, v := range q.ReadyCandidates(sched) {
						if v := q.At(int(v)); less(issued, v, sched) {
							wantTail = append(wantTail, v)
						}
					}
					if len(gotTail) != len(wantTail) {
						t.Logf("re-offer tail has %d candidates, want %d", len(gotTail), len(wantTail))
						return false
					}
					for i := range gotTail {
						if gotTail[i] != wantTail[i] {
							t.Logf("re-offer tail differs at %d", i)
							return false
						}
					}
				}
			}
			if err := q.CheckReady(); err != nil {
				t.Logf("CheckReady: %v", err)
				return false
			}
			var want Census
			var offered []*Uop
			for _, u := range live {
				if !u.Ready() {
					want.Waiting++
					continue
				}
				want.Ready++
				if u.ACE {
					want.ReadyACE++
				}
				if u.ACETag {
					want.ReadyACETag++
				}
				if !u.Parked {
					offered = append(offered, u)
				}
			}
			if c := q.Census(); c.Ready != want.Ready || c.Waiting != want.Waiting ||
				c.ReadyACE != want.ReadyACE || c.ReadyACETag != want.ReadyACETag || c != q.CensusWalk() {
				t.Logf("census %+v, reference %+v", c, want)
				return false
			}
			for _, s := range []Scheduler{SchedOldestFirst, SchedVISA} {
				want := refOrder(offered, s)
				got := q.ReadyCandidates(s)
				if len(got) != len(want) {
					return false
				}
				for i, slot := range got {
					if q.At(int(slot)) != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if filled == 0 {
		t.Fatal("no run filled the queue")
	}
}

// TestQuickFUNeverOversubscribed: per cycle, accepted issues never exceed
// the unit count for pipelined classes.
func TestQuickFUNeverOversubscribed(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewFUPools([5]int{3, 1, 2, 1, 1})
		src := rng.New(seed)
		for cyc := uint64(0); cyc < 200; cyc++ {
			accepted := map[isa.FUClass]int{}
			tries := src.Intn(10) + 1
			for i := 0; i < tries; i++ {
				kinds := []isa.Kind{isa.IntALU, isa.IntMul, isa.Load, isa.FPALU, isa.FPMul, isa.IntDiv}
				u := mkUop(kinds[src.Intn(len(kinds))], cyc, 0)
				if p.TryIssue(u, cyc) {
					accepted[u.Kind().FU()]++
				}
			}
			for c, n := range accepted {
				if n > p.Units(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
