package cache

import (
	"testing"

	"visasim/internal/config"
)

func smallCache() *Cache {
	return NewCache(config.CacheConfig{
		Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64, HitLatency: 1,
	}) // 8 sets × 2 ways
}

func TestTouchMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Touch(0x100, 1, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x100, 1, false)
	if !c.Touch(0x100, 2, false) {
		t.Fatal("filled line missed")
	}
	if !c.Touch(0x13F, 3, false) {
		t.Fatal("same line different offset missed")
	}
	if c.Touch(0x140, 4, false) {
		t.Fatal("adjacent line hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines in the same set (set stride = 8 sets × 64B = 512B).
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	c.Fill(a, 1, false)
	c.Fill(b, 2, false)
	c.Touch(a, 3, false) // a most recent
	c.Fill(d, 4, false)  // evicts b (LRU)
	if !c.Lookup(a) {
		t.Fatal("recently used line evicted")
	}
	if c.Lookup(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Lookup(d) {
		t.Fatal("new line absent")
	}
}

func TestWritebackCounting(t *testing.T) {
	c := smallCache()
	c.Fill(0x0000, 1, true) // dirty
	c.Fill(0x0200, 2, false)
	if wb := c.Fill(0x0400, 3, false); !wb {
		t.Fatal("evicting dirty line must report writeback")
	}
	if c.Writeback != 1 {
		t.Fatalf("writebacks %d", c.Writeback)
	}
}

// TestEvictedFillFollowsLine: a line evicted before its fill arrives leaves
// the fill in the evicted-fill map until the fill arrives or the line is
// filled again.
func TestEvictedFillFollowsLine(t *testing.T) {
	c := smallCache()
	// Three lines in the same set (set stride = 8 sets × 64B = 512B).
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	l, _ := c.fill(a, 1, false)
	l.ready, l.from = 500, HitMemory
	c.Fill(b, 2, false)
	c.Fill(d, 3, false) // evicts a while its fill is outstanding
	if p, ok := c.evictedAt(a, 4); !ok || p != (pendingFill{ready: 500, from: HitMemory}) {
		t.Fatalf("evicted fill %+v, %v; want ready 500 from memory", p, ok)
	}
	c.Fill(a, 5, false) // evicts b
	if _, ok := c.evicted[c.LineAddr(a)]; ok {
		t.Fatal("refilled line's earlier fill still in the evicted-fill map")
	}

	l, _ = c.fill(b, 6, false) // evicts d
	l.ready, l.from = 700, HitL2
	c.Touch(a, 7, false)
	c.Fill(d, 8, false) // evicts b while its fill is outstanding
	if len(c.evicted) != 1 {
		t.Fatalf("evicted-fill map %v, want b's fill", c.evicted)
	}
	if _, ok := c.evictedAt(b, 700); ok {
		t.Fatal("arrived fill reported outstanding")
	}
	if len(c.evicted) != 0 {
		t.Fatalf("arrived fill kept: %v", c.evicted)
	}
}

func TestTouchWriteSetsDirty(t *testing.T) {
	c := smallCache()
	c.Fill(0x0000, 1, false)
	c.Touch(0x0000, 2, true) // dirty via write hit
	c.Fill(0x0200, 3, false)
	if wb := c.Fill(0x0400, 4, false); !wb {
		t.Fatal("write-hit dirtied line should write back")
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache()
	if c.MissRate() != 0 {
		t.Fatal("idle cache miss rate nonzero")
	}
	c.Touch(0, 1, false)
	c.Fill(0, 1, false)
	c.Touch(0, 2, false)
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", got)
	}
}

func TestTLBMissPenaltyAndFill(t *testing.T) {
	tlb := NewTLB(config.TLBConfig{Name: "t", Entries: 8, Assoc: 2, PageBytes: 4096, MissPenalty: 200})
	if got := tlb.Access(0x1000, 1); got != 200 {
		t.Fatalf("cold access penalty %d", got)
	}
	if got := tlb.Access(0x1FFF, 2); got != 0 {
		t.Fatalf("same page penalty %d", got)
	}
	if got := tlb.Access(0x2000, 3); got != 200 {
		t.Fatalf("new page penalty %d", got)
	}
	if tlb.MissRate() != 2.0/3.0 {
		t.Fatalf("miss rate %v", tlb.MissRate())
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := NewTLB(config.TLBConfig{Name: "t", Entries: 4, Assoc: 2, PageBytes: 4096, MissPenalty: 100})
	// Two sets; pages 0,2,4 map to set 0.
	p0, p2, p4 := uint64(0x0000), uint64(0x2000), uint64(0x4000)
	tlb.Access(p0, 1)
	tlb.Access(p2, 2)
	tlb.Access(p0, 3) // refresh p0
	tlb.Access(p4, 4) // evicts p2
	if tlb.Access(p0, 5) != 0 {
		t.Fatal("refreshed page evicted")
	}
	if tlb.Access(p2, 6) == 0 {
		t.Fatal("LRU page survived")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	m := config.Default()
	h := NewHierarchy(m)
	const addr = 0x1000_0000

	r := h.Data(addr, 100, false)
	if !r.L2Miss() || !r.TLBMiss {
		t.Fatal("cold access must miss everywhere")
	}
	// TLB(200) + L1(1) + L2(12) + memory(200).
	want := uint64(100 + 200 + 1 + 12 + 200)
	if r.ReadyAt != want {
		t.Fatalf("cold latency ready at %d, want %d", r.ReadyAt, want)
	}

	r = h.Data(addr, 1000, false)
	if r.Level != HitL1 || r.TLBMiss {
		t.Fatalf("warm access level %v", r.Level)
	}
	if r.ReadyAt != 1001 {
		t.Fatalf("L1 hit ready at %d", r.ReadyAt)
	}

	// L2 hit: evict from L1 only by touching conflicting lines.
	other := uint64(addr) + uint64(m.L1D.SizeBytes)
	for i := 0; i < m.L1D.Assoc+1; i++ {
		h.Data(other+uint64(i)*uint64(m.L1D.SizeBytes), 2000+uint64(i)*500, false)
	}
	r = h.Data(addr, 9000, false)
	if r.Level != HitL2 {
		t.Fatalf("expected L2 hit, got %v", r.Level)
	}
	if r.ReadyAt != 9000+1+12 {
		t.Fatalf("L2 hit ready at %d", r.ReadyAt)
	}
}

func TestMSHRMerge(t *testing.T) {
	h := NewHierarchy(config.Default())
	const a = 0x2000_0000
	h.Data(a, 100, false) // warm the TLB? no — first access includes TLB miss
	// Use a second access in flight on the same line.
	start := uint64(10_000)
	r1 := h.Data(a+4096, start, false) // new page+line: miss to memory
	if !r1.L2Miss() {
		t.Fatal("expected memory miss")
	}
	miss := h.L2MissCount
	r2 := h.Data(a+4096+8, start+2, false) // same line, fill outstanding
	if r2.ReadyAt != r1.ReadyAt {
		t.Fatalf("merged access ready %d, fill ready %d", r2.ReadyAt, r1.ReadyAt)
	}
	if h.L2MissCount != miss {
		t.Fatal("merged access counted as new L2 miss")
	}
}

func TestL2MissCountPerLine(t *testing.T) {
	h := NewHierarchy(config.Default())
	base := uint64(0x3000_0000)
	for i := uint64(0); i < 4; i++ {
		h.Data(base+i*8, 100+i, false) // same 128B L2 line
	}
	if h.L2MissCount != 1 {
		t.Fatalf("L2 miss events %d, want 1", h.L2MissCount)
	}
	h.Data(base+4096, 500, false) // different page/line
	if h.L2MissCount != 2 {
		t.Fatalf("L2 miss events %d, want 2", h.L2MissCount)
	}
}

func TestFetchPath(t *testing.T) {
	h := NewHierarchy(config.Default())
	r := h.Fetch(0x40_0000, 50)
	if r.Level == HitL1 {
		t.Fatal("cold I-fetch hit")
	}
	r = h.Fetch(0x40_0000, 1000)
	if r.Level != HitL1 || r.ReadyAt != 1001 {
		t.Fatalf("warm I-fetch level %v ready %d", r.Level, r.ReadyAt)
	}
	if h.L2MissCount != 0 {
		t.Fatal("instruction misses must not count as data L2 misses")
	}
}

func TestLevelString(t *testing.T) {
	if HitL1.String() != "l1" || HitL2.String() != "l2" || HitMemory.String() != "memory" {
		t.Fatal("level names wrong")
	}
}
