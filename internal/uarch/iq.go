package uarch

import "fmt"

// Scheduler selects which ready instructions issue each cycle.
type Scheduler uint8

// Issue scheduling policies.
const (
	// SchedOldestFirst is the conventional baseline: ready instructions
	// issue oldest (fetch order) first, regardless of vulnerability.
	SchedOldestFirst Scheduler = iota
	// SchedVISA is the paper's Vulnerable-InStruction-Aware policy:
	// ready ACE-tagged instructions bypass all ready un-ACE-tagged
	// instructions; within each class, issue proceeds in program
	// (age) order. Un-ACE instructions fill whatever issue slots the
	// ACE instructions leave free.
	SchedVISA
)

func (s Scheduler) String() string {
	if s == SchedVISA {
		return "visa"
	}
	return "oldest-first"
}

// Packed ready-key layout. The ready list is struct-of-arrays state: one
// uint64 per ready resident packing (age, ACE tag, slot), ordered so a plain
// integer comparison reproduces age order. Schedulers and the binary
// insert/remove walk this dense slice without dereferencing a single *Uop —
// the age lives in the key, the tag bit drives VISA's partition, and the low
// bits recover the slot index.
const (
	// readySlotBits bounds the queue size representable in a packed key.
	readySlotBits = 10
	// MaxIQSlots is the largest issue-queue capacity the packed ready
	// list supports (1024 — far above any modeled configuration).
	MaxIQSlots    = 1 << readySlotBits
	readySlotMask = MaxIQSlots - 1
	readyTagBit   = uint64(1) << readySlotBits
	readyAgeShift = readySlotBits + 1
)

// readyKey packs u into its ready-list key. The tag bit sits below the age,
// so ordering is (age, tag, slot) — identical to pure age order whenever
// ages are unique, which the pipeline guarantees.
func readyKey(u *Uop) uint64 {
	k := u.Age<<readyAgeShift | uint64(u.IQSlot)
	if u.ACETag {
		k |= readyTagBit
	}
	return k
}

// IQ is the shared issue queue: a fixed pool of slots holding dispatched,
// not-yet-issued uops from all threads. The "ready queue" and "waiting
// queue" of the paper are views over these slots (ready = all operands
// available).
//
// A ready load blocked behind an older unissued store can be parked: its key
// leaves the scheduler's ready list, so selection stops scanning it every
// cycle, while the census keeps counting it as ready (the paper's ready queue
// holds it). Unpark returns the key when the blocking store issues.
type IQ struct {
	slots []*Uop
	free  []int32 // free-slot stack
	count int

	perThread [MaxThreads]int

	// cen is maintained incrementally on Insert/Remove/Wake so Census is
	// O(1); CensusWalk recomputes it from the slots for cross-checking.
	cen Census
	// ready holds one packed key (see readyKey) per ready resident in
	// ascending key order: schedulers read it without scanning, sorting
	// or pointer-chasing. Entries with equal ages (possible only outside
	// the pipeline, whose ages are unique) order by (tag, slot).
	//
	// Storage is a ring deque (power-of-two capacity, rHead/rLen window)
	// rather than a shifted slice because the pipeline's access pattern is
	// end-biased: ages increase monotonically, so a newly ready uop almost
	// always carries the largest key (O(1) tail append), and oldest-first
	// issue drains the smallest keys (O(1) head pop). Mid-list operations
	// shift whichever side is shorter.
	ready []uint64
	rMask int // len(ready)-1, a power-of-two mask
	rHead int // physical index of the logically first (smallest) key
	rLen  int // live keys

	// candidates is the reusable per-cycle ready list of slot indices,
	// and candSched the order ReadyCandidates last built it in (Reoffer
	// splices by that order).
	candidates []int32
	candSched  Scheduler

	// highWater is the largest occupancy seen since the last
	// ResetHighWater — cheap per-stage telemetry (deterministic, so it
	// travels in Results without disturbing golden comparisons).
	highWater int
}

// NewIQ returns an issue queue with size slots.
func NewIQ(size int) *IQ {
	if size > MaxIQSlots {
		panic(fmt.Sprintf("uarch: IQ size %d exceeds %d packed-key slots", size, MaxIQSlots))
	}
	rcap := 1
	for rcap < size {
		rcap <<= 1
	}
	q := &IQ{
		slots:      make([]*Uop, size),
		free:       make([]int32, size),
		ready:      make([]uint64, rcap),
		rMask:      rcap - 1,
		candidates: make([]int32, 0, size),
	}
	for i := range q.free {
		q.free[i] = int32(size - 1 - i)
	}
	return q
}

// Size returns the queue capacity.
func (q *IQ) Size() int { return len(q.slots) }

// Len returns the current occupancy.
func (q *IQ) Len() int { return q.count }

// ThreadLen returns the occupancy contributed by thread t.
func (q *IQ) ThreadLen(t int) int { return q.perThread[t] }

// Full reports whether no slot is free.
func (q *IQ) Full() bool { return q.count == len(q.slots) }

// HighWater returns the largest occupancy seen since the last
// ResetHighWater (or construction).
func (q *IQ) HighWater() int { return q.highWater }

// ResetHighWater restarts high-water tracking from the current occupancy —
// the pipeline calls it when statistics reset after warmup.
func (q *IQ) ResetHighWater() { q.highWater = q.count }

// Insert places u into a free slot. It panics if the queue is full or the
// uop is already resident — callers gate on Full().
func (q *IQ) Insert(u *Uop) {
	if q.count == len(q.slots) {
		panic("uarch: IQ insert into full queue")
	}
	if u.IQSlot >= 0 {
		panic("uarch: IQ double insert")
	}
	slot := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	q.slots[slot] = u
	u.IQSlot = slot
	u.Stage = StageInIQ
	q.count++
	if q.count > q.highWater {
		q.highWater = q.count
	}
	q.perThread[u.Thread]++
	if u.ACE {
		q.cen.ResidentACE++
	}
	if u.ACETag {
		q.cen.ResidentTags++
	}
	if u.Ready() {
		q.readyAdd(u)
	} else {
		q.cen.Waiting++
	}
}

// Remove frees u's slot (on issue or squash).
func (q *IQ) Remove(u *Uop) {
	if u.IQSlot < 0 || q.slots[u.IQSlot] != u {
		panic("uarch: IQ remove of non-resident uop")
	}
	// The packed ready key encodes the slot, so drop the ready entry
	// before the slot is released. A parked uop has no entry to drop.
	switch {
	case u.Parked:
		u.Parked = false
		q.uncountReady(u)
	case u.Ready():
		q.uncountReady(u)
		q.ringRemove(readyKey(u))
	default:
		q.cen.Waiting--
	}
	q.free = append(q.free, u.IQSlot)
	q.slots[u.IQSlot] = nil
	u.IQSlot = -1
	q.count--
	q.perThread[u.Thread]--
	if u.ACE {
		q.cen.ResidentACE--
	}
	if u.ACETag {
		q.cen.ResidentTags--
	}
}

// Wake moves a resident uop from the waiting to the ready set. The pipeline
// calls it exactly once per uop, when writeback clears its last outstanding
// source operand.
func (q *IQ) Wake(u *Uop) {
	if u.IQSlot < 0 || q.slots[u.IQSlot] != u {
		panic("uarch: IQ wake of non-resident uop")
	}
	q.cen.Waiting--
	q.readyAdd(u)
}

// Park takes ready resident u off the ready list: ReadyCandidates stops
// offering it, but the census still counts it as ready. The pipeline parks a
// load the LSQ reports blocked behind an older unissued store, and unparks it
// when that store issues. Parking a waiting, absent or already parked uop
// panics.
func (q *IQ) Park(u *Uop) {
	if u.IQSlot < 0 || q.slots[u.IQSlot] != u {
		panic("uarch: IQ park of non-resident uop")
	}
	if !u.Ready() || u.Parked {
		panic("uarch: IQ park of a waiting or parked uop")
	}
	q.ringRemove(readyKey(u))
	u.Parked = true
}

// Unpark returns parked resident u to the ready list. Unparking a uop that
// is not parked panics.
func (q *IQ) Unpark(u *Uop) {
	if u.IQSlot < 0 || q.slots[u.IQSlot] != u {
		panic("uarch: IQ unpark of non-resident uop")
	}
	if !u.Parked {
		panic("uarch: IQ unpark of an unparked uop")
	}
	u.Parked = false
	q.ringInsert(readyKey(u))
}

// readyAt returns the key at logical position i (0 = smallest).
func (q *IQ) readyAt(i int) uint64 { return q.ready[(q.rHead+i)&q.rMask] }

// readySearch returns the logical position of the first key >= k.
func (q *IQ) readySearch(k uint64) int {
	lo, hi := 0, q.rLen
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.readyAt(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// readyAdd counts u as ready and inserts its packed key into the ready list.
func (q *IQ) readyAdd(u *Uop) {
	q.cen.Ready++
	if u.ACE {
		q.cen.ReadyACE++
	}
	if u.ACETag {
		q.cen.ReadyACETag++
	}
	q.ringInsert(readyKey(u))
}

// uncountReady drops u from the census's ready counts.
func (q *IQ) uncountReady(u *Uop) {
	q.cen.Ready--
	if u.ACE {
		q.cen.ReadyACE--
	}
	if u.ACETag {
		q.cen.ReadyACETag--
	}
}

// ringInsert inserts packed key k into the ordered ready list. The
// pipeline's monotone ages make the tail append the overwhelmingly common
// case; a mid-list insert shifts whichever side is shorter.
func (q *IQ) ringInsert(k uint64) {
	lo := q.rLen
	if lo > 0 && q.readyAt(lo-1) > k {
		lo = q.readySearch(k)
	}
	if 2*lo < q.rLen {
		q.rHead = (q.rHead - 1) & q.rMask
		q.rLen++
		for i := 0; i < lo; i++ {
			q.ready[(q.rHead+i)&q.rMask] = q.ready[(q.rHead+i+1)&q.rMask]
		}
	} else {
		q.rLen++
		for i := q.rLen - 1; i > lo; i-- {
			q.ready[(q.rHead+i)&q.rMask] = q.ready[(q.rHead+i-1)&q.rMask]
		}
	}
	q.ready[(q.rHead+lo)&q.rMask] = k
}

// ringRemove drops packed key k from the ready list. Keys are unique (the
// slot is part of the key), so the binary search lands exactly. Oldest-first
// issue drains the head, which pops in O(1).
func (q *IQ) ringRemove(k uint64) {
	lo := q.readySearch(k)
	if lo >= q.rLen || q.readyAt(lo) != k {
		panic("uarch: IQ ready-list remove of absent uop")
	}
	if 2*lo < q.rLen {
		for i := lo; i > 0; i-- {
			q.ready[(q.rHead+i)&q.rMask] = q.ready[(q.rHead+i-1)&q.rMask]
		}
		q.rHead = (q.rHead + 1) & q.rMask
	} else {
		for i := lo; i < q.rLen-1; i++ {
			q.ready[(q.rHead+i)&q.rMask] = q.ready[(q.rHead+i+1)&q.rMask]
		}
	}
	q.rLen--
}

// Census counts resident uops: ready vs waiting, and how many of the ready
// ones are ACE (by ground truth and by tag). This is the paper's
// ready-queue/waiting-queue instrumentation (Figure 2) and feeds the
// dynamic resource allocation and DVM mechanisms.
type Census struct {
	Ready        int
	Waiting      int
	ReadyACE     int // ground truth
	ReadyACETag  int
	ResidentACE  int // ground truth, whole IQ
	ResidentTags int
}

// Census returns the incrementally maintained counts in O(1).
func (q *IQ) Census() Census { return q.cen }

// CensusWalk recomputes the census with a full O(size) scan of the slots.
// It exists to validate the incremental counters (CheckInvariants); the
// simulation itself reads Census.
func (q *IQ) CensusWalk() Census {
	var c Census
	for _, u := range q.slots {
		if u == nil {
			continue
		}
		if u.Ready() {
			c.Ready++
			if u.ACE {
				c.ReadyACE++
			}
			if u.ACETag {
				c.ReadyACETag++
			}
		} else {
			c.Waiting++
		}
		if u.ACE {
			c.ResidentACE++
		}
		if u.ACETag {
			c.ResidentTags++
		}
	}
	return c
}

// CheckReady validates the ready list against the slots: every unparked
// ready resident appears exactly once, in ascending key (age) order, every
// packed key reproduces its uop's age, tag and slot, and every parked
// resident is ready (testing aid).
func (q *IQ) CheckReady() error {
	want := 0
	for _, u := range q.slots {
		switch {
		case u == nil:
		case u.Parked:
			if !u.Ready() {
				return fmt.Errorf("uarch: parked uop in slot %d is not ready", u.IQSlot)
			}
		case u.Ready():
			want++
		}
	}
	if want != q.rLen {
		return fmt.Errorf("uarch: ready list holds %d uops, walk finds %d", q.rLen, want)
	}
	for i := 0; i < q.rLen; i++ {
		k := q.readyAt(i)
		slot := int32(k & readySlotMask)
		u := q.slots[slot]
		if u == nil || u.IQSlot != slot || !u.Ready() || u.Parked {
			return fmt.Errorf("uarch: ready list entry %d is not an unparked ready resident", i)
		}
		if k != readyKey(u) {
			return fmt.Errorf("uarch: ready list entry %d key %#x does not match uop key %#x", i, k, readyKey(u))
		}
		if i > 0 && q.readyAt(i-1) > k {
			return fmt.Errorf("uarch: ready list out of age order at %d", i)
		}
	}
	return nil
}

// Selectable returns how many unparked ready uops the ready list holds: the
// uops ReadyCandidates would offer. Census().Ready also counts parked loads.
func (q *IQ) Selectable() int { return q.rLen }

// ReadyCandidates fills the scheduler's per-cycle candidate list with the
// slot indices of all unparked ready resident uops ordered per policy. The
// returned slice is reused across calls; resolve an index with At only when
// the candidate is actually considered.
//
// The packed ready list is already in ascending age order, so the
// oldest-first policy is a copy and VISA is a stable partition by the ACE
// tag bit carried in each key — both reproduce the ordering a (unique-key)
// sort of the ready set would, without touching a single uop.
func (q *IQ) ReadyCandidates(sched Scheduler) []int32 {
	cands := q.candidates[:0]
	switch sched {
	case SchedVISA:
		for i := 0; i < q.rLen; i++ {
			if k := q.readyAt(i); k&readyTagBit != 0 {
				cands = append(cands, int32(k&readySlotMask))
			}
		}
		for i := 0; i < q.rLen; i++ {
			if k := q.readyAt(i); k&readyTagBit == 0 {
				cands = append(cands, int32(k&readySlotMask))
			}
		}
	default:
		for i := 0; i < q.rLen; i++ {
			cands = append(cands, int32(q.readyAt(i)&readySlotMask))
		}
	}
	q.candidates = cands
	q.candSched = sched
	return cands
}

// ForEach visits every resident uop.
func (q *IQ) ForEach(f func(*Uop)) {
	for _, u := range q.slots {
		if u != nil {
			f(u)
		}
	}
}

// At returns the uop in slot i, or nil if the slot is free. Fault-injection
// campaigns use it to strike a uniformly random entry.
func (q *IQ) At(i int) *Uop { return q.slots[i] }

// rank orders packed key k under sched: oldest-first by the key itself, VISA
// with every tagged key ahead of every untagged one (the tag class moves to
// the top bit, which ages never reach).
func rank(k uint64, sched Scheduler) uint64 {
	if sched == SchedVISA && k&readyTagBit == 0 {
		return k | 1<<63
	}
	return k
}

// Reoffer splices u, unparked because issued just issued as candidate at of
// cands (this cycle's list from the last ReadyCandidates call), into the
// candidates not yet considered, at the position a fresh ReadyCandidates in
// the same order would give it. A u that ranks ahead of issued was passed
// over earlier this cycle and waits for the next one; cands is then returned
// unchanged. Ages are unique, so issued, already removed from the queue,
// ranks by its age and tag alone.
func (q *IQ) Reoffer(cands []int32, at int, issued, u *Uop) []int32 {
	sched := q.candSched
	r := rank(readyKey(u), sched)
	floor := issued.Age << readyAgeShift
	if issued.ACETag {
		floor |= readyTagBit
	}
	if r < rank(floor, sched) {
		return cands
	}
	lo, hi := at+1, len(cands)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rank(readyKey(q.slots[cands[mid]]), sched) < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	cands = append(cands, 0)
	copy(cands[lo+1:], cands[lo:])
	cands[lo] = u.IQSlot
	q.candidates = cands
	return cands
}
