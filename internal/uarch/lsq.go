package uarch

import "visasim/internal/isa"

// LSQ is one thread's load/store queue, holding memory uops in program
// order. It provides the memory-dependence discipline the issue stage
// enforces:
//
//   - a load may not issue while any older store's address is unknown
//     (no memory-dependence speculation, as in the baseline M-Sim model);
//   - a load whose address matches an older resolved store forwards from it
//     (one-cycle completion) instead of accessing the cache.
type LSQ struct {
	buf  []*Uop
	head int
	len  int
}

// NewLSQ returns a load/store queue with size entries.
func NewLSQ(size int) *LSQ {
	return &LSQ{buf: make([]*Uop, size)}
}

// Size returns the capacity.
func (l *LSQ) Size() int { return len(l.buf) }

// Len returns the occupancy.
func (l *LSQ) Len() int { return l.len }

// Full reports whether no entry is free.
func (l *LSQ) Full() bool { return l.len == len(l.buf) }

// Push appends u (a load or store) at the tail and records its slot.
func (l *LSQ) Push(u *Uop) {
	if l.Full() {
		panic("uarch: LSQ push into full queue")
	}
	slot := wrap(l.head+l.len, len(l.buf))
	l.buf[slot] = u
	u.LSQSlot = int32(slot)
	l.len++
}

// Remove drops u. Commit removes from the head; squash removes from the
// tail; both are O(1). Removal from the middle is a bug.
func (l *LSQ) Remove(u *Uop) {
	if u.LSQSlot < 0 || l.buf[u.LSQSlot] != u {
		panic("uarch: LSQ remove of non-resident uop")
	}
	switch int(u.LSQSlot) {
	case l.head:
		l.buf[l.head] = nil
		l.head = wrap(l.head+1, len(l.buf))
	case wrap(l.head+l.len-1, len(l.buf)):
		l.buf[u.LSQSlot] = nil
	default:
		panic("uarch: LSQ remove from middle")
	}
	u.LSQSlot = -1
	l.len--
}

// LoadDisposition classifies whether a ready load may issue.
type LoadDisposition uint8

// Load dispositions.
const (
	// LoadGo: no older-store conflict; access the cache.
	LoadGo LoadDisposition = iota
	// LoadForward: an older resolved store to the same word supplies
	// the value; complete without a cache access.
	LoadForward
	// LoadBlocked: an older store's address is still unknown; the load
	// must wait.
	LoadBlocked
)

// CheckLoad determines disposition for load u against its older stores.
// Newest-matching-store wins for forwarding. A blocked load records its
// blocker — the youngest older unissued store — in u.BlockedOn, and the
// store is marked Blocking.
//
// The issue stage parks a blocked load off the ready list until that store
// issues, so CheckLoad never re-checks it in between. Parking is exact: while
// the blocker stays unissued this walk would return LoadBlocked again, since
// every store between the load and the blocker had already issued with a
// non-matching address (fixed: addresses come from the oracle stream), later
// pushes are younger than the load, and a squash that removes the blocker
// removes the younger load first.
func (l *LSQ) CheckLoad(u *Uop) LoadDisposition {
	word := u.Dyn.Addr &^ 7
	// Walk from u's slot backwards to the head.
	idx := int(u.LSQSlot)
	for idx != l.head {
		if idx == 0 {
			idx = len(l.buf)
		}
		idx--
		s := l.buf[idx]
		if s == nil || s.Kind() != isa.Store {
			continue
		}
		if s.Stage < StageIssued {
			// Address not yet computed: conservative block.
			u.BlockedOn = s
			s.Blocking = true
			return LoadBlocked
		}
		if s.Dyn.Addr&^7 == word {
			return LoadForward
		}
	}
	return LoadGo
}

// ParkedBehind calls f, oldest first, for each parked load whose blocker is
// store s, which has just issued. Such loads lie between s and the next
// unissued store, since CheckLoad blocks a load on the youngest unissued
// store older than it, so the walk stops there. f must not change the LSQ.
func (l *LSQ) ParkedBehind(s *Uop, f func(*Uop)) {
	end := wrap(l.head+l.len, len(l.buf))
	for idx := int(s.LSQSlot); ; {
		if idx++; idx == len(l.buf) {
			idx = 0
		}
		if idx == end {
			return
		}
		u := l.buf[idx]
		if u.Kind() == isa.Store {
			if u.Stage < StageIssued {
				return
			}
			continue
		}
		if u.Parked && u.BlockedOn == s {
			f(u)
		}
	}
}

// ForEach visits uops oldest to youngest.
func (l *LSQ) ForEach(f func(*Uop)) {
	for i := 0; i < l.len; i++ {
		f(l.buf[wrap(l.head+i, len(l.buf))])
	}
}
