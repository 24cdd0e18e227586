// Package cache models the simulated memory hierarchy: set-associative
// write-back caches with true-LRU replacement, MSHR-style merging of
// outstanding misses on the same line, and TLBs (package-level, Table 2
// geometry comes from package config).
//
// Timing is returned as an absolute data-ready cycle so the pipeline can
// schedule load completion without callback plumbing; miss events are
// reported per level so fetch policies (STALL/FLUSH/DG/PDG) and the
// paper's optimisations can key off L2 misses.
package cache

import (
	"math/bits"

	"visasim/internal/config"
)

// Level identifies the deepest level that satisfied an access.
type Level uint8

// Access result levels.
const (
	HitL1 Level = iota
	HitL2
	HitMemory // missed in L2; satisfied by main memory
)

func (l Level) String() string {
	switch l {
	case HitL1:
		return "l1"
	case HitL2:
		return "l2"
	default:
		return "memory"
	}
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// from is the level the line's latest fill comes from (caches only).
	from Level
	used uint64 // LRU timestamp
	// ready is the cycle the line's latest fill arrives (caches only): a
	// tag hit before then waits on that fill (MSHR merge).
	ready uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg      config.CacheConfig
	sets     []line // sets*assoc, row-major
	assoc    int
	setShift uint
	setBits  uint
	setMask  uint64

	// evicted maps the line address of each line evicted before its fill
	// arrived to that fill: a later access to the line, resident or not,
	// still waits on it instead of issuing another. A resident line keeps
	// its own fill in line.ready/from. sweepAt is the size at which the
	// map next drops its arrived entries (see noteEvicted).
	evicted map[uint64]pendingFill
	sweepAt int

	// Stats.
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// NewCache builds a cache with the given geometry.
func NewCache(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:      cfg,
		sets:     make([]line, cfg.Sets()*cfg.Assoc),
		assoc:    cfg.Assoc,
		setShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		setMask:  uint64(cfg.Sets() - 1),
		evicted:  make(map[uint64]pendingFill),
		sweepAt:  minSweep,
	}
}

// minSweep is the smallest evicted-fill map size that triggers a sweep.
const minSweep = 64

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

func (c *Cache) set(addr uint64) (base int, tag uint64) {
	lineAddr := addr >> c.setShift
	return int(lineAddr&c.setMask) * c.assoc, lineAddr >> c.setBits
}

// LineAddr returns addr's line address (for MSHR merging at callers).
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.setShift }

// Lookup probes for addr without modifying state (except stats are not
// touched either). Reports whether the line is resident.
func (c *Cache) Lookup(addr uint64) bool {
	base, tag := c.set(addr)
	for i := 0; i < c.assoc; i++ {
		if l := &c.sets[base+i]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch probes for addr; on hit it refreshes LRU and returns true.
func (c *Cache) Touch(addr uint64, now uint64, write bool) bool {
	return c.touch(addr, now, write) != nil
}

// touch is Touch returning the hit line (nil on a miss).
func (c *Cache) touch(addr uint64, now uint64, write bool) *line {
	c.Accesses++
	base, tag := c.set(addr)
	for i := 0; i < c.assoc; i++ {
		if l := &c.sets[base+i]; l.valid && l.tag == tag {
			l.used = now
			if write {
				l.dirty = true
			}
			return l
		}
	}
	c.Misses++
	return nil
}

// Fill installs addr's line, evicting LRU if needed. Reports whether a
// dirty line was written back.
func (c *Cache) Fill(addr uint64, now uint64, write bool) bool {
	_, wb := c.fill(addr, now, write)
	return wb
}

// fill is Fill returning the installed line. A victim whose fill is still
// outstanding leaves that fill in c.evicted. Any fill recorded there for
// the installed line's own address is dropped: the caller records the new
// fill on the line.
func (c *Cache) fill(addr uint64, now uint64, write bool) (*line, bool) {
	base, tag := c.set(addr)
	victim := base
	for i := 0; i < c.assoc; i++ {
		l := &c.sets[base+i]
		if !l.valid {
			victim = base + i
			break
		}
		if l.used < c.sets[victim].used {
			victim = base + i
		}
	}
	v := &c.sets[victim]
	wb := v.valid && v.dirty
	if v.valid {
		c.Evictions++
		if wb {
			c.Writeback++
		}
		if v.ready > now {
			c.noteEvicted(v.tag<<c.setBits|uint64(base/c.assoc), pendingFill{ready: v.ready, from: v.from}, now)
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, used: now}
	if len(c.evicted) > 0 {
		delete(c.evicted, c.LineAddr(addr))
	}
	return v, wb
}

// noteEvicted records the outstanding fill of an evicted line. Whenever
// the map reaches sweepAt it drops the fills that have arrived by now (no
// later access can wait on them), so it stays within twice the fills in
// flight.
func (c *Cache) noteEvicted(la uint64, p pendingFill, now uint64) {
	c.evicted[la] = p
	if len(c.evicted) < c.sweepAt {
		return
	}
	for a, q := range c.evicted {
		if q.ready <= now {
			delete(c.evicted, a)
		}
	}
	c.sweepAt = max(2*len(c.evicted), minSweep)
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// pendingFill records one outstanding line fill: when the data arrives and
// which level it is coming from.
type pendingFill struct {
	ready uint64
	from  Level
}

// evictedAt returns the outstanding fill of addr's line, which must not be
// resident, if any, dropping it once it has arrived.
func (c *Cache) evictedAt(addr, now uint64) (pendingFill, bool) {
	if len(c.evicted) == 0 {
		return pendingFill{}, false
	}
	la := c.LineAddr(addr)
	p, ok := c.evicted[la]
	if !ok {
		return pendingFill{}, false
	}
	if p.ready <= now {
		delete(c.evicted, la)
		return pendingFill{}, false
	}
	return p, true
}

// TLB is a set-associative translation buffer.
type TLB struct {
	cfg       config.TLBConfig
	sets      []line
	assoc     int
	pageShift uint
	setMask   uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given geometry.
func NewTLB(cfg config.TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{
		cfg:       cfg,
		sets:      make([]line, cfg.Entries),
		assoc:     cfg.Assoc,
		pageShift: uint(bits.TrailingZeros64(uint64(cfg.PageBytes))),
		setMask:   uint64(cfg.Sets() - 1),
	}
}

// Access translates addr: returns the added latency (0 on hit, the miss
// penalty on a miss, with the translation installed).
func (t *TLB) Access(addr uint64, now uint64) int {
	t.Accesses++
	page := addr >> t.pageShift
	base := int(page&t.setMask) * t.assoc
	tag := page >> bits.Len64(t.setMask)
	victim := base
	for i := 0; i < t.assoc; i++ {
		l := &t.sets[base+i]
		if l.valid && l.tag == tag {
			l.used = now
			return 0
		}
		if !l.valid {
			victim = base + i
		} else if c := &t.sets[victim]; c.valid && l.used < c.used {
			victim = base + i
		}
	}
	t.Misses++
	t.sets[victim] = line{tag: tag, valid: true, used: now}
	return t.cfg.MissPenalty
}

// MissRate returns misses/accesses (0 when idle).
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
