package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"visasim/internal/ace"
	"visasim/internal/isa"
	"visasim/internal/pipeline"
	"visasim/internal/program"
	"visasim/internal/trace"
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
// hands out a distinct all-clear profile of n instructions per call.
func countingProfile(calls *atomic.Int32, n uint64) func() (*ace.Profile, error) {
	return func() (*ace.Profile, error) {
		calls.Add(1)
		return &ace.Profile{Bits: trace.NewBitSet(n), Tag: trace.NewBitSet(1)}, nil
	}
}

func TestProfileCacheLRUEviction(t *testing.T) {
	c := newProfileLRU(2)
	// One benchmark per key: profiles of one benchmark share a vector,
	// and a longer one arriving republishes the shorter ones.
	key := func(n uint64) profileKey { return profileKey{fmt.Sprint("k", n), n, ace.DefaultWindow} }
	var calls atomic.Int32
	get := func(n uint64) *ace.Profile {
		p, err := c.get(key(n), countingProfile(&calls, n))
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
		return &ace.Profile{Bits: trace.NewBitSet(1), Tag: trace.NewBitSet(1)}, nil
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
// live: its profile's tags, one ACE bit vector all budgets of the
// benchmark share, and no copy of the program image.
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
	for _, n := range sharedBudgets {
		cell(n)
	}
	var tagBytes, vectorBytes uint64
	var vector *uint64
	for _, n := range sharedBudgets {
		p, err := ProfileFor(b, n+profileSlack, 0)
		if err != nil {
			t.Fatal(err)
		}
		tagBytes += 8 * uint64(len(p.Tag.Words()))
		vectorBytes = max(vectorBytes, 8*uint64(len(p.Bits.Words())))
		if w := &p.Bits.Words()[0]; vector == nil {
			vector = w
		} else if w != vector {
			t.Fatalf("budget %d holds its own ACE bits, not the shared vector", n)
		}
	}
	grown := int64(heap()) - int64(before)

	image := uint64(len(prog.Instrs))*uint64(unsafe.Sizeof(isa.Inst{})) +
		uint64(len(prog.Branches))*uint64(unsafe.Sizeof(program.BranchMeta{})) +
		uint64(len(prog.Streams))*uint64(unsafe.Sizeof(program.MemMeta{}))
	if grown >= int64(vectorBytes+tagBytes+image) {
		t.Fatalf("three new budgets kept %d bytes live: one %d-byte ACE vector, %d tag bytes and at most one %d-byte image expected",
			grown, vectorBytes, tagBytes, image)
	}
	t.Logf("retained %d bytes for a %d-byte vector and %d tag bytes (image %d bytes)", grown, vectorBytes, tagBytes, image)
}

// unsharedProfile profiles bench at n instructions under window directly,
// outside every cache.
func unsharedProfile(t *testing.T, bench string, n uint64, window int) *ace.Profile {
	t.Helper()
	b := workload.MustGet(bench)
	prog, err := ProgramFor(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ace.Run(prog, b.Params.Seed, 0, n, window)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameProfile fails t unless got reads like want: the same tags, totals,
// length and ACE bit at every position.
func sameProfile(t *testing.T, got, want *ace.Profile) {
	t.Helper()
	if got.DynInstrs != want.DynInstrs || got.DynACE != want.DynACE ||
		got.LateMarks != want.LateMarks || got.TagMismatches != want.TagMismatches {
		t.Fatalf("totals %d/%d/%d/%d, unshared %d/%d/%d/%d",
			got.DynInstrs, got.DynACE, got.LateMarks, got.TagMismatches,
			want.DynInstrs, want.DynACE, want.LateMarks, want.TagMismatches)
	}
	if !reflect.DeepEqual(got.Tag, want.Tag) {
		t.Fatalf("%d-instruction profile: tags differ from the unshared pass", want.Bits.Len())
	}
	if got.Bits.Len() != want.Bits.Len() {
		t.Fatalf("%d ACE bits, unshared %d", got.Bits.Len(), want.Bits.Len())
	}
	for i := range want.Bits.Len() {
		if got.Bits.Get(i) != want.Bits.Get(i) {
			t.Fatalf("%d-instruction profile: ACE bit %d differs from the unshared pass", want.Bits.Len(), i)
		}
	}
}

// retainedWords returns the ACE vector words and tag words c's resident
// entries keep live. It fails t if a resident profile holds ACE bits of
// its own rather than a view of its benchmark's vector.
func retainedWords(t *testing.T, c *profileLRU) (vector, tags int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.vectors {
		vector += len(v.bits.Words())
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*profileEntry)
		v := c.vectors[vectorKey{e.key.bench, e.key.window}]
		if v == nil || &e.p.Bits.Words()[0] != &v.bits.Words()[0] {
			t.Fatalf("%s at %d: ACE bits outside the shared vector", e.key.bench, e.key.n)
		}
		tags += len(e.p.Tag.Words())
	}
	return vector, tags
}

// TestProfileCacheSharedVectorBound profiles one benchmark at five lengths
// in three arrival orders. Each time the cache keeps one vector of the
// longest length's words plus each length's tags, and every profile reads
// like an unshared pass. Evicting the longest shrinks the vector, and
// evicting the rest drops it.
func TestProfileCacheSharedVectorBound(t *testing.T) {
	const bench, window = "gcc", 2000
	lengths := []uint64{9001, 7000, 5000, 3000, 1000} // descending
	want := map[uint64]*ace.Profile{}
	for _, n := range lengths {
		want[n] = unsharedProfile(t, bench, n, window)
	}
	tagWords := len(want[1000].Tag.Words())
	orders := map[string][]int{"descending": {0, 1, 2, 3, 4}, "ascending": {4, 3, 2, 1, 0}, "shuffled": {3, 0, 4, 1, 2}}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			c := newProfileLRU(len(lengths))
			get := func(bench string, n uint64) *ace.Profile {
				p, err := c.get(profileKey{bench, n, window}, func() (*ace.Profile, error) {
					return unsharedProfile(t, bench, n, window), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			for _, i := range order {
				get(bench, lengths[i])
			}
			for _, n := range lengths {
				sameProfile(t, get(bench, n), want[n])
			}
			if v, tags := retainedWords(t, c); v != (9001+63)/64 || tags != len(lengths)*tagWords {
				t.Fatalf("%d vector and %d tag words live, want %d and %d", v, tags, (9001+63)/64, len(lengths)*tagWords)
			}

			// The lookups above left 9001 least recently used.
			get("mcf", 1000)
			if v, _ := retainedWords(t, c); v != (7000+63)/64+(1000+63)/64 {
				t.Fatalf("%d vector words live after evicting the longest, want %d for %s and %d for mcf",
					v, (7000+63)/64, bench, (1000+63)/64)
			}
			for _, n := range lengths[1:] {
				sameProfile(t, get(bench, n), want[n])
			}
			for _, n := range []uint64{2000, 4000, 6000, 8000, 10_000} {
				get("mcf", n)
			}
			c.mu.Lock()
			_, kept := c.vectors[vectorKey{bench, window}]
			c.mu.Unlock()
			if kept {
				t.Fatalf("%s's vector outlived its last entry", bench)
			}
		})
	}
}

// TestProfileCacheSharedConcurrent asks the process cache for one
// benchmark at five lengths, each from two goroutines at once, and checks
// every answer against an unshared pass (run it under -race).
func TestProfileCacheSharedConcurrent(t *testing.T) {
	const bench, window = "vpr", 1500 // a window no other test uses
	lengths := []uint64{12_000, 4_000, 16_000, 8_000, 20_000}
	b := workload.MustGet(bench)
	got := make([]*ace.Profile, 2*len(lengths))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := ProfileFor(b, lengths[i/2], window)
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p == nil {
			t.FailNow()
		}
		sameProfile(t, p, unsharedProfile(t, bench, lengths[i/2], window))
	}
	profiles.mu.Lock()
	words := len(profiles.vectors[vectorKey{bench, window}].bits.Words())
	profiles.mu.Unlock()
	if words != (20_000+63)/64 {
		t.Fatalf("%s's vector holds %d words, want %d", bench, words, (20_000+63)/64)
	}
}

// TestProfileCachePrefixMismatch feeds the cache a pass whose bits are
// not a prefix of the vector's: the cache must refuse it, naming the
// benchmark and both lengths, and serve nothing from it.
func TestProfileCachePrefixMismatch(t *testing.T) {
	c := newProfileLRU(4)
	var calls atomic.Int32
	if _, err := c.get(profileKey{"x", 100, 10}, countingProfile(&calls, 100)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{71, 200} {
		_, err := c.get(profileKey{"x", n, 10}, func() (*ace.Profile, error) {
			p, _ := countingProfile(&calls, n)()
			p.Bits.Set(70, true)
			return p, nil
		})
		if err == nil {
			t.Fatalf("a %d-instruction pass differing at instruction 70 was accepted", n)
		}
		for _, s := range []string{"x", fmt.Sprint(n), "100", "instruction 70"} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("error %q does not name %q", err, s)
			}
		}
	}
	c.mu.Lock()
	members := len(c.vectors[vectorKey{"x", 10}].members)
	c.mu.Unlock()
	if members != 1 {
		t.Fatalf("%d profiles share the vector after two refused passes, want 1", members)
	}
}

// TestProfileCacheEvictedDuringPass evicts an entry while its pass runs:
// the pass's callers get its own profile, and the vector does not keep it.
func TestProfileCacheEvictedDuringPass(t *testing.T) {
	c := newProfileLRU(1)
	own := &ace.Profile{Bits: trace.NewBitSet(500), Tag: trace.NewBitSet(1)}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan *ace.Profile)
	go func() {
		p, err := c.get(profileKey{"x", 500, 10}, func() (*ace.Profile, error) {
			close(started)
			<-release
			return own, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-started
	var calls atomic.Int32
	if _, err := c.get(profileKey{"x", 100, 10}, countingProfile(&calls, 100)); err != nil {
		t.Fatal(err)
	}
	close(release)
	if p := <-done; p != own {
		t.Fatal("an entry evicted during its pass was not served its own profile")
	}
	if v, _ := retainedWords(t, c); v != (100+63)/64 {
		t.Fatalf("%d vector words live, want %d: the evicted pass joined the vector", v, (100+63)/64)
	}
}
