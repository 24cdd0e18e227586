package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"visasim/internal/ace"
	"visasim/internal/isa"
	"visasim/internal/pipeline"
	"visasim/internal/program"
	"visasim/internal/workload"
)

func TestProfileCacheDefaultWindow(t *testing.T) {
	b := workload.MustGet("eon")
	p0, err := ProfileFor(b, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := ProfileFor(b, 5000, ace.DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != pd {
		t.Fatal("window 0 and ace.DefaultWindow profiled twice")
	}
}

// countingProfile returns a profile function that counts its calls and
// hands out a distinct empty profile per call.
func countingProfile(calls *atomic.Int32) func() (*ace.Profile, error) {
	return func() (*ace.Profile, error) {
		calls.Add(1)
		return &ace.Profile{}, nil
	}
}

func TestProfileCacheLRUEviction(t *testing.T) {
	c := newProfileLRU(2)
	key := func(n uint64) profileKey { return profileKey{"k", n, ace.DefaultWindow} }
	var calls atomic.Int32
	get := func(n uint64) *ace.Profile {
		p, err := c.get(key(n), countingProfile(&calls))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p1 := get(1)
	get(2)
	if get(1) != p1 { // hit: 1 becomes most recent, 2 least
		t.Fatal("resident key profiled again")
	}
	get(3) // evicts 2
	if calls.Load() != 3 {
		t.Fatalf("%d profiling passes, want 3", calls.Load())
	}
	if _, ok := c.entries[key(2)]; ok {
		t.Fatal("least recently used key 2 survived")
	}
	if get(1) != p1 {
		t.Fatal("recently used key 1 was evicted")
	}
	get(2) // a miss again; evicts 3
	if calls.Load() != 4 || c.order.Len() != 2 {
		t.Fatalf("%d passes, %d resident; want 4 and 2", calls.Load(), c.order.Len())
	}
	if _, ok := c.entries[key(3)]; ok {
		t.Fatal("key 3 survived after 1 and 2 were used")
	}
}

func TestProfileCacheEvictedKeyRecomputes(t *testing.T) {
	b := workload.MustGet("gap")
	prog, err := ProgramFor(b)
	if err != nil {
		t.Fatal(err)
	}
	c := newProfileLRU(1)
	profile := func(n uint64) *ace.Profile {
		p, err := c.get(profileKey{b.Name, n, 2000}, func() (*ace.Profile, error) {
			return ace.Run(prog, b.Params.Seed, 0, n, 2000)
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := profile(8000)
	profile(9000) // evicts 8000
	again := profile(8000)
	if again == first {
		t.Fatal("evicted key served the old profile")
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("re-profiling an evicted key gave a different profile")
	}
}

func TestProfileCacheSingleFlight(t *testing.T) {
	c := newProfileLRU(4)
	key := profileKey{"k", 1, ace.DefaultWindow}
	var calls atomic.Int32
	release := make(chan struct{})
	slow := func() (*ace.Profile, error) {
		calls.Add(1)
		<-release
		return &ace.Profile{}, nil
	}

	const callers = 8
	got := make([]*ace.Profile, callers)
	var started, done sync.WaitGroup
	started.Add(callers)
	done.Add(callers)
	for i := range got {
		go func() {
			defer done.Done()
			started.Done()
			p, err := c.get(key, slow)
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	started.Wait()
	close(release)
	done.Wait()

	if calls.Load() != 1 {
		t.Fatalf("%d profiling passes for one key, want 1", calls.Load())
	}
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different profile", i)
		}
	}
}

// sharedBudgets are profile lengths of one benchmark that no other test
// asks for, so each is a fresh profile.
var sharedBudgets = []uint64{21_011, 21_013, 21_017}

func TestProgramSharedAcrossBudgets(t *testing.T) {
	b := workload.MustGet("lucas")
	prog, err := ProgramFor(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sharedBudgets {
		streams, profs, err := threadStreams([]string{b.Name, b.Name}, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ProfileFor(b, n, ace.DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range streams {
			if s.Executor().Prog != prog {
				t.Fatalf("budget %d thread %d: a program copy, not the shared image", n, i)
			}
			if profs[i] != want {
				t.Fatalf("budget %d thread %d: not the cached profile", n, i)
			}
			for pc := range prog.Len() {
				if s.Tag(pc) != want.Tag.Get(uint64(pc)) {
					t.Fatalf("budget %d thread %d: tag %d = %v, profile says %v", n, i, pc, s.Tag(pc), want.Tag.Get(uint64(pc)))
				}
			}
		}
	}
}

func TestProgramSharedConcurrentCells(t *testing.T) {
	cfg := func(budget uint64) Config {
		return Config{
			Benchmarks:      []string{"mgrid", "facerec"},
			Scheme:          SchemeVISA,
			Policy:          pipeline.PolicyICOUNT,
			MaxInstructions: budget,
		}
	}
	budgets := []uint64{20_000, 22_000}
	run := func(budget uint64) []byte {
		r, err := Run(cfg(budget))
		if err != nil {
			t.Error(err)
			return nil
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		return blob
	}

	seq := make([][]byte, len(budgets))
	for i, n := range budgets {
		seq[i] = run(n)
	}
	conc := make([][]byte, len(budgets))
	var wg sync.WaitGroup
	for i, n := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conc[i] = run(n)
		}()
	}
	wg.Wait()
	for i := range budgets {
		if !bytes.Equal(seq[i], conc[i]) {
			t.Fatalf("budget %d: concurrent cell differs from the sequential run", budgets[i])
		}
	}
}

// TestProgramSharedRetainedHeap checks what a cell at a new budget keeps
// live: its profile, and no copy of the program image.
func TestProgramSharedRetainedHeap(t *testing.T) {
	b := workload.MustGet("crafty")
	prog, err := ProgramFor(b)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(budget uint64) {
		if _, err := Run(Config{
			Benchmarks:      []string{b.Name},
			Scheme:          SchemeVISA,
			MaxInstructions: budget,
			MaxCycles:       1000,
			Warmup:          -1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		// Twice: the second cycle empties what sync.Pools kept from
		// the first.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	cell(18_000) // warm every lazily built global
	before := heap()
	var profBytes uint64
	for _, n := range sharedBudgets {
		cell(n)
		p, err := ProfileFor(b, n+profileSlack, 0)
		if err != nil {
			t.Fatal(err)
		}
		profBytes += 8 * uint64(len(p.Bits.Words())+len(p.Tag.Words()))
	}
	grown := int64(heap()) - int64(before)

	image := uint64(len(prog.Instrs))*uint64(unsafe.Sizeof(isa.Inst{})) +
		uint64(len(prog.Branches))*uint64(unsafe.Sizeof(program.BranchMeta{})) +
		uint64(len(prog.Streams))*uint64(unsafe.Sizeof(program.MemMeta{}))
	if grown >= int64(profBytes+image) {
		t.Fatalf("three new budgets kept %d bytes live: profiles %d + at most one %d-byte image expected",
			grown, profBytes, image)
	}
	t.Logf("retained %d bytes for %d profile bytes (image %d bytes)", grown, profBytes, image)
}
