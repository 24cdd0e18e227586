package cache

import (
	"testing"
	"testing/quick"

	"visasim/internal/config"
	"visasim/internal/rng"
)

// refLRU is a naive reference model of a set-associative LRU cache.
type refLRU struct {
	sets      int
	assoc     int
	lineShift uint
	entries   map[int][]uint64 // set -> line addresses, MRU first
}

func newRefLRU(cfg config.CacheConfig) *refLRU {
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &refLRU{
		sets:      cfg.Sets(),
		assoc:     cfg.Assoc,
		lineShift: shift,
		entries:   map[int][]uint64{},
	}
}

func (r *refLRU) access(addr uint64) bool {
	line := addr >> r.lineShift
	set := int(line) % r.sets
	ways := r.entries[set]
	for i, l := range ways {
		if l == line {
			// Move to MRU.
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	// Miss: install at MRU, evict LRU.
	ways = append([]uint64{line}, ways...)
	if len(ways) > r.assoc {
		ways = ways[:r.assoc]
	}
	r.entries[set] = ways
	return false
}

// TestQuickCacheMatchesReference drives the cache and a naive LRU model with
// identical random access streams; every hit/miss decision must agree.
func TestQuickCacheMatchesReference(t *testing.T) {
	cfg := config.CacheConfig{Name: "q", SizeBytes: 4096, Assoc: 4, LineBytes: 64, HitLatency: 1}
	f := func(seed uint64, n uint16) bool {
		c := NewCache(cfg)
		ref := newRefLRU(cfg)
		src := rng.New(seed)
		now := uint64(0)
		for i := 0; i < int(n%800)+50; i++ {
			now++
			// Confine to 4x the cache size so reuse is common.
			addr := src.Uint64() % (4 * 4096)
			hit := c.Touch(addr, now, false)
			if !hit {
				c.Fill(addr, now, false)
			}
			if hit != ref.access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTLBMatchesReference does the same for the TLB.
func TestQuickTLBMatchesReference(t *testing.T) {
	cfg := config.TLBConfig{Name: "q", Entries: 16, Assoc: 4, PageBytes: 4096, MissPenalty: 100}
	f := func(seed uint64, n uint16) bool {
		tlb := NewTLB(cfg)
		ref := newRefLRU(config.CacheConfig{
			Name: "ref", SizeBytes: cfg.Entries * cfg.PageBytes,
			Assoc: cfg.Assoc, LineBytes: cfg.PageBytes, HitLatency: 1,
		})
		src := rng.New(seed)
		now := uint64(0)
		for i := 0; i < int(n%800)+50; i++ {
			now++
			addr := src.Uint64() % (64 * 4096)
			hit := tlb.Access(addr, now) == 0
			if hit != ref.access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyMonotoneLatency: a hierarchy access never returns data in
// the past and deeper levels are never faster than shallower ones.
func TestHierarchyMonotoneLatency(t *testing.T) {
	h := NewHierarchy(config.Default())
	src := rng.New(99)
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		now += uint64(src.Intn(3))
		addr := src.Uint64() % (8 << 20)
		r := h.Data(addr, now, src.Bool(0.2))
		if r.ReadyAt <= now {
			t.Fatalf("access at %d ready at %d", now, r.ReadyAt)
		}
		minLat := map[Level]uint64{HitL1: 1, HitL2: 2, HitMemory: 2}[r.Level]
		if !r.TLBMiss && r.Level == HitL1 && r.ReadyAt-now > 1 {
			t.Fatalf("clean L1 hit took %d cycles", r.ReadyAt-now)
		}
		if r.ReadyAt-now < minLat && !r.TLBMiss {
			t.Fatalf("%v hit too fast: %d cycles", r.Level, r.ReadyAt-now)
		}
	}
}

// refHierarchy is the hierarchy with its original MSHR model: a hash map
// per cache from line address to the line's latest outstanding fill,
// pruned only when a lookup finds the fill arrived. It shares the caches'
// tag logic (Touch/Fill) and keeps its own pending state, so it checks
// that line-resident fill state plus the evicted-fill map answer every
// query the map would.
type refHierarchy struct {
	l1i, l1d, l2 *Cache
	itlb, dtlb   *TLB
	pending      map[*Cache]map[uint64]pendingFill
	memLatency   uint64
	l2MissCount  uint64
	// paths counts the accesses by the way they were served, so a test
	// can check that its stream reaches each of them.
	paths map[string]int
}

func newRefHierarchy(m config.Machine) *refHierarchy {
	r := &refHierarchy{
		l1i: NewCache(m.L1I), l1d: NewCache(m.L1D), l2: NewCache(m.L2),
		itlb: NewTLB(m.ITLB), dtlb: NewTLB(m.DTLB),
		memLatency: uint64(m.MemoryLatency),
		paths:      map[string]int{},
	}
	r.pending = map[*Cache]map[uint64]pendingFill{r.l1i: {}, r.l1d: {}, r.l2: {}}
	return r
}

func (r *refHierarchy) pendingAt(c *Cache, addr, now uint64) (pendingFill, bool) {
	la := c.LineAddr(addr)
	p, ok := r.pending[c][la]
	if !ok {
		return pendingFill{}, false
	}
	if p.ready <= now {
		delete(r.pending[c], la)
		return pendingFill{}, false
	}
	return p, true
}

func (r *refHierarchy) notePending(c *Cache, addr, ready uint64, from Level) {
	r.pending[c][c.LineAddr(addr)] = pendingFill{ready: ready, from: from}
}

func (r *refHierarchy) access(l1 *Cache, tlb *TLB, addr uint64, now uint64, write, data bool) Result {
	res := Result{}
	t := uint64(tlb.Access(addr, now))
	res.TLBMiss = t > 0
	when := now + t

	if l1.Touch(addr, now, write) {
		if p, ok := r.pendingAt(l1, addr, now); ok {
			r.paths["L1 merge"]++
			res.Level = p.from
			res.ReadyAt = maxU64(p.ready, when)
			return res
		}
		r.paths["L1 hit"]++
		res.Level = HitL1
		res.ReadyAt = when + uint64(l1.cfg.HitLatency)
		return res
	}

	l2Start := when + uint64(l1.cfg.HitLatency)
	if r.l2.Touch(addr, now, false) {
		if p, ok := r.pendingAt(r.l2, addr, now); ok {
			r.paths["L2 merge"]++
			res.Level = HitMemory
			res.ReadyAt = maxU64(p.ready, when)
			l1.Fill(addr, now, write)
			r.notePending(l1, addr, res.ReadyAt, HitMemory)
			return res
		}
		r.paths["L2 hit"]++
		res.Level = HitL2
		res.ReadyAt = l2Start + uint64(r.l2.cfg.HitLatency)
	} else if p, ok := r.pendingAt(r.l2, addr, now); ok {
		// The line was evicted before its fill arrived.
		r.paths["evicted-line merge"]++
		res.Level = HitMemory
		res.ReadyAt = maxU64(p.ready, when)
	} else {
		r.paths["memory"]++
		res.Level = HitMemory
		res.ReadyAt = l2Start + uint64(r.l2.cfg.HitLatency) + r.memLatency
		r.notePending(r.l2, addr, res.ReadyAt, HitMemory)
		r.l2.Fill(addr, now, false)
		if data {
			r.l2MissCount++
		}
	}
	l1.Fill(addr, now, write)
	r.notePending(l1, addr, res.ReadyAt, res.Level)
	return res
}

// evictingMachine is a geometry where lines are routinely evicted before
// their fills arrive: tiny, low-associativity caches in front of a slow
// memory.
func evictingMachine() config.Machine {
	m := config.Default()
	m.L1I = config.CacheConfig{Name: "l1i", SizeBytes: 512, Assoc: 1, LineBytes: 32, HitLatency: 1}
	m.L1D = config.CacheConfig{Name: "l1d", SizeBytes: 1024, Assoc: 2, LineBytes: 64, HitLatency: 1}
	m.L2 = config.CacheConfig{Name: "l2", SizeBytes: 4096, Assoc: 2, LineBytes: 128, HitLatency: 12}
	m.ITLB = config.TLBConfig{Name: "itlb", Entries: 8, Assoc: 2, PageBytes: 4096, MissPenalty: 30}
	m.DTLB = config.TLBConfig{Name: "dtlb", Entries: 8, Assoc: 2, PageBytes: 4096, MissPenalty: 30}
	m.MemoryLatency = 500
	return m
}

// TestHierarchyMatchesMapMSHR drives the hierarchy and the map-based
// reference with identical random Data/Fetch/write streams: every Result
// and the L2 miss count must agree.
func TestHierarchyMatchesMapMSHR(t *testing.T) {
	m := evictingMachine()
	paths := map[string]int{}
	for seed := uint64(1); seed <= 20; seed++ {
		h := NewHierarchy(m)
		ref := newRefHierarchy(m)
		src := rng.New(seed)
		now := uint64(0)
		var recent [16]uint64
		for i := 0; i < 4000; i++ {
			// Now and then a long stall lets the outstanding fills
			// arrive, so true hits occur as well as merges.
			now += uint64(src.Intn(3))
			if src.Bool(0.02) {
				now += uint64(src.Intn(int(2 * m.MemoryLatency)))
			}
			var got, want Result
			// Revisiting a recent address keeps hits and MSHR merges
			// common; fresh addresses over 8x the L2 keep evictions
			// common.
			addr := src.Uint64() % (32 << 10)
			if src.Bool(0.5) {
				addr = recent[src.Intn(len(recent))] ^ src.Uint64()%64
			}
			recent[i%len(recent)] = addr
			if src.Bool(0.2) {
				got, want = h.Fetch(addr, now), ref.access(ref.l1i, ref.itlb, addr, now, false, false)
			} else {
				write := src.Bool(0.2)
				got, want = h.Data(addr, now, write), ref.access(ref.l1d, ref.dtlb, addr, now, write, true)
			}
			if got != want {
				t.Fatalf("seed %d access %d at %d: got %+v, reference %+v", seed, i, now, got, want)
			}
			if h.L2MissCount != ref.l2MissCount {
				t.Fatalf("seed %d access %d: L2 misses %d, reference %d", seed, i, h.L2MissCount, ref.l2MissCount)
			}
		}
		for k, n := range ref.paths {
			paths[k] += n
		}
	}
	// Every way of serving an access must occur; "evicted-line merge" is
	// the one only the evicted-fill map answers.
	for _, k := range []string{"L1 hit", "L1 merge", "L2 hit", "L2 merge", "evicted-line merge", "memory"} {
		if paths[k] == 0 {
			t.Errorf("no access took the %s path; the stream no longer covers it", k)
		}
	}
	t.Logf("accesses by path: %v", paths)
}

// TestEvictedFillsBounded: over a long stream with a large footprint the
// evicted-fill maps stay within twice the fills that can be in flight.
func TestEvictedFillsBounded(t *testing.T) {
	m := evictingMachine()
	h := NewHierarchy(m)
	// One access per cycle: a fill still outstanding at cycle now was
	// issued within the slowest access's latency, so at most that many
	// fills (plus one) are in flight per cache.
	window := m.DTLB.MissPenalty + m.L1D.HitLatency + m.L2.HitLatency + m.MemoryLatency
	bound := max(2*(window+1), minSweep)
	src := rng.New(7)
	peak := 0
	for now := uint64(0); now < 200_000; now++ {
		h.Data(src.Uint64()%(64<<20), now, src.Bool(0.2))
		for _, c := range []*Cache{h.L1D, h.L2} {
			peak = max(peak, len(c.evicted))
		}
	}
	if peak > bound {
		t.Fatalf("evicted-fill map reached %d entries, bound %d", peak, bound)
	}
	// The stream touches far more lines than the bound, so a map that
	// kept every line's last fill would break it.
	if h.L2.Misses < uint64(100*bound) {
		t.Fatalf("only %d L2 misses: the stream no longer tests the bound", h.L2.Misses)
	}
	t.Logf("peak %d entries (bound %d) over %d L2 misses", peak, bound, h.L2.Misses)
}
