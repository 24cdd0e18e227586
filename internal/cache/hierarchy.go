package cache

import "visasim/internal/config"

// Result describes one hierarchy access.
type Result struct {
	// ReadyAt is the absolute cycle the data is available.
	ReadyAt uint64
	// Level is the deepest level consulted (HitL1, HitL2, HitMemory).
	Level Level
	// TLBMiss reports whether translation added the TLB miss penalty.
	TLBMiss bool
}

// L2Miss reports whether the access went to main memory.
func (r Result) L2Miss() bool { return r.Level == HitMemory }

// Hierarchy is the full simulated memory system: split L1s behind a shared
// unified L2 and main memory, with ITLB/DTLB translation. All SMT threads
// share every level, as on real SMT hardware — inter-thread cache
// interference is a first-order effect in the paper's MIX/MEM workloads.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB

	memLatency uint64

	// Stats.
	L2MissCount uint64 // data-side L2 misses (the paper's trigger metric)
}

// NewHierarchy builds the hierarchy from the machine configuration.
func NewHierarchy(m config.Machine) *Hierarchy {
	return &Hierarchy{
		L1I:        NewCache(m.L1I),
		L1D:        NewCache(m.L1D),
		L2:         NewCache(m.L2),
		ITLB:       NewTLB(m.ITLB),
		DTLB:       NewTLB(m.DTLB),
		memLatency: uint64(m.MemoryLatency),
	}
}

// Fetch performs an instruction fetch access at pc.
func (h *Hierarchy) Fetch(pc uint64, now uint64) Result {
	return h.access(h.L1I, h.ITLB, pc, now, false, false)
}

// Data performs a data access (write=true for stores).
func (h *Hierarchy) Data(addr uint64, now uint64, write bool) Result {
	return h.access(h.L1D, h.DTLB, addr, now, write, true)
}

// access runs the common L1 → L2 → memory path.
func (h *Hierarchy) access(l1 *Cache, tlb *TLB, addr uint64, now uint64, write, data bool) Result {
	res := Result{}
	t := uint64(tlb.Access(addr, now))
	res.TLBMiss = t > 0
	when := now + t

	if l := l1.touch(addr, now, write); l != nil {
		// A tag hit on a line whose fill is still outstanding waits
		// for the fill (MSHR merge); otherwise it is a true hit.
		if l.ready > now {
			res.Level = l.from
			res.ReadyAt = maxU64(l.ready, when)
			return res
		}
		res.Level = HitL1
		res.ReadyAt = when + uint64(l1.cfg.HitLatency)
		return res
	}

	l2Start := when + uint64(l1.cfg.HitLatency)
	if l := h.L2.touch(addr, now, false); l != nil {
		if l.ready > now {
			res.Level = HitMemory
			res.ReadyAt = maxU64(l.ready, when)
		} else {
			res.Level = HitL2
			res.ReadyAt = l2Start + uint64(h.L2.cfg.HitLatency)
		}
	} else if p, ok := h.L2.evictedAt(addr, now); ok {
		// The line was evicted before its fill arrived: wait on that
		// fill rather than issue another.
		res.Level = HitMemory
		res.ReadyAt = maxU64(p.ready, when)
	} else {
		res.Level = HitMemory
		res.ReadyAt = l2Start + uint64(h.L2.cfg.HitLatency) + h.memLatency
		l, _ := h.L2.fill(addr, now, false)
		l.ready, l.from = res.ReadyAt, HitMemory
		if data {
			// Count one miss event per line fill (MSHR-merged
			// waiters do not raise new misses), matching the
			// hardware counter the paper's mechanisms read.
			h.L2MissCount++
		}
	}
	l, _ := l1.fill(addr, now, write)
	l.ready, l.from = res.ReadyAt, res.Level
	return res
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
