package core

import (
	"container/list"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"visasim/internal/ace"
	"visasim/internal/program"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

// programEntry is one benchmark's generated program image.
type programEntry struct {
	once sync.Once
	prog *program.Program
	err  error
}

var (
	programMu    sync.Mutex
	programCache = map[string]*programEntry{}
)

// ProgramFor returns bench's program image, generated once per benchmark
// name. Generation is deterministic and nothing writes the image
// afterwards — executors keep their state beside it, the address-space
// tag is applied per thread and the ACE tags live in the profile — so one
// image serves every profiling pass and every thread slot of every cell.
// The cache holds one entry per benchmark of the registry. Concurrent
// callers for the same benchmark share one generation pass. Tools that
// walk a profile beside its program take the image from here, so they
// reuse the one ProfileFor generated instead of building a second.
func ProgramFor(bench workload.Benchmark) (*program.Program, error) {
	programMu.Lock()
	e, ok := programCache[bench.Name]
	if !ok {
		e = &programEntry{}
		programCache[bench.Name] = e
	}
	programMu.Unlock()

	e.once.Do(func() { e.prog, e.err = bench.Generate() })
	return e.prog, e.err
}

// profileKey identifies a cached offline profile.
type profileKey struct {
	bench  string
	n      uint64
	window int
}

// vectorKey identifies the ACE bit vector that one benchmark's cached
// profiles under one window share.
type vectorKey struct {
	bench  string
	window int
}

// profileCacheEntries caps the profiles kept live. It is above every key
// set perfbench or experiments keeps live (one key per benchmark and
// budget: 45 for perfbench's service workload, 75 for its figs setup), so
// their cells never re-profile; a sweep over more keys re-profiles what it
// evicted, to the same bytes. The cached profiles of one benchmark and
// window share one ACE bit vector as long as their longest member (see
// aceVector), so an entry costs its PCs/8 tag bytes and a small struct,
// and each (benchmark, window) among the entries adds Lmax/8 bytes for
// its longest cached length Lmax: about 160 KB per benchmark at a
// mem-long length (1.25M instructions), whatever lengths of it arrive,
// in whatever order.
const profileCacheEntries = 256

// profileEntry is one slot of profileLRU.
type profileEntry struct {
	key  profileKey
	once sync.Once

	// The rest is guarded by profileLRU.mu. p is the published profile:
	// a sharing pass or eviction replaces it with a copy that views a
	// new vector, and never writes a profile it has published.
	p        *ace.Profile
	err      error
	resident bool // in the LRU
}

// aceVector is the one ACE bit vector that the resident profiles of one
// (benchmark, window) share. ace.Run analyzes a full window past the
// profiled prefix, and an instruction's ACE bit is settled once the window
// has passed it, so a length-L profile's bits are the first L bits of
// every longer profile of the same benchmark and window. bits holds at
// least the longest member's length and no more words than it needs, and
// each member's Bits is a read-only prefix view of it. Every pass still
// runs in full and is checked against the vector word for word.
type aceVector struct {
	bits    *trace.BitSet
	members []*profileEntry // resident entries whose profiles view bits
}

// view returns a copy of p whose Bits views v's first p.Bits.Len() bits.
func (v *aceVector) view(p *ace.Profile) *ace.Profile {
	q := *p
	q.Bits = v.bits.Prefix(p.Bits.Len())
	return &q
}

// repoint publishes every member's profile anew over v.bits, after it was
// replaced, so no member keeps the old words live.
func (v *aceVector) repoint() {
	for _, m := range v.members {
		m.p = v.view(m.p)
	}
}

// prefixMismatch returns the first instruction below both lengths at which
// a and b differ, or false if neither length's prefix differs.
func prefixMismatch(a, b *trace.BitSet) (uint64, bool) {
	n := min(a.Len(), b.Len())
	aw, bw := a.Words(), b.Words()
	for i := range (n + 63) / 64 {
		d := aw[i] ^ bw[i]
		if rem := n - 64*i; rem < 64 {
			d &= 1<<rem - 1
		}
		if d != 0 {
			return 64*i + uint64(bits.TrailingZeros64(d)), true
		}
	}
	return 0, false
}

// profileLRU is a fixed-capacity least-recently-used cache of offline
// profiles with one profiling pass per key: the first caller of a key
// inserts its entry and every caller runs the entry's sync.Once, so
// concurrent callers share one pass. Evicting an entry whose pass is in
// flight is safe — its callers hold the entry, and its pass serves them
// its own bits without joining a vector — and a later call for the key
// profiles again, deterministically to the same profile.
type profileLRU struct {
	mu      sync.Mutex
	max     int
	entries map[profileKey]*list.Element // of *profileEntry
	order   *list.List                   // front = most recently used
	vectors map[vectorKey]*aceVector
}

func newProfileLRU(max int) *profileLRU {
	return &profileLRU{
		max:     max,
		entries: map[profileKey]*list.Element{},
		order:   list.New(),
		vectors: map[vectorKey]*aceVector{},
	}
}

// get returns key's profile, computing it with profile on a miss.
func (c *profileLRU) get(key profileKey, profile func() (*ace.Profile, error)) (*ace.Profile, error) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&profileEntry{key: key, resident: true})
		c.entries[key] = el
		if c.order.Len() > c.max {
			c.evict(c.order.Back())
		}
	}
	e := el.Value.(*profileEntry)
	c.mu.Unlock()

	e.once.Do(func() {
		p, err := profile()
		c.mu.Lock()
		defer c.mu.Unlock()
		if err == nil {
			p, err = c.share(e, p)
		}
		e.p, e.err = p, err
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.p, e.err
}

// share checks the fresh profile p of e's key against its (benchmark,
// window)'s vector and returns the profile to publish. A resident e joins
// the vector, which takes p's bits if they are longer; an entry evicted
// during its pass keeps p. Called with c.mu held.
func (c *profileLRU) share(e *profileEntry, p *ace.Profile) (*ace.Profile, error) {
	vk := vectorKey{e.key.bench, e.key.window}
	v := c.vectors[vk]
	if v != nil {
		if at, ok := prefixMismatch(p.Bits, v.bits); ok {
			return nil, fmt.Errorf("core: ACE profiles of %s (window %d) at %d and %d instructions differ at instruction %d",
				e.key.bench, e.key.window, p.Bits.Len(), v.bits.Len(), at)
		}
	}
	if !e.resident {
		return p, nil
	}
	switch {
	case v == nil:
		v = &aceVector{bits: p.Bits}
		c.vectors[vk] = v
	case p.Bits.Len() > v.bits.Len():
		v.bits = p.Bits
		v.repoint()
	}
	v.members = append(v.members, e)
	return v.view(p), nil
}

// evict drops el's entry from the cache. If the entry shared a vector,
// the vector goes with its last member and shrinks to the words its
// longest remaining member needs. Called with c.mu held.
func (c *profileLRU) evict(el *list.Element) {
	e := c.order.Remove(el).(*profileEntry)
	delete(c.entries, e.key)
	e.resident = false
	vk := vectorKey{e.key.bench, e.key.window}
	v := c.vectors[vk]
	if v == nil {
		return
	}
	i := slices.Index(v.members, e)
	if i < 0 {
		return // still profiling, or failed
	}
	v.members = slices.Delete(v.members, i, i+1)
	if len(v.members) == 0 {
		delete(c.vectors, vk)
		return
	}
	var longest uint64
	for _, m := range v.members {
		longest = max(longest, m.p.Bits.Len())
	}
	if words := (longest + 63) / 64; words < uint64(len(v.bits.Words())) {
		// Whole words of the old vector: still the benchmark's ACE
		// bits, so the shrunk vector needs no masking.
		shrunk := trace.NewBitSet(64 * words)
		copy(shrunk.Words(), v.bits.Words())
		v.bits = shrunk
		v.repoint()
	}
}

var profiles = newProfileLRU(profileCacheEntries)

// profileSlack covers in-flight instructions beyond the commit budget.
const profileSlack = 4096

// ProfileFor returns the (cached) offline vulnerability profile of bench
// covering at least n dynamic instructions with the given analysis window
// (≤ 0 means ace.DefaultWindow). Concurrent callers for the same key share
// one profiling pass.
func ProfileFor(bench workload.Benchmark, n uint64, window int) (*ace.Profile, error) {
	if window <= 0 {
		window = ace.DefaultWindow
	}
	return profiles.get(profileKey{bench.Name, n, window}, func() (*ace.Profile, error) {
		prog, err := ProgramFor(bench)
		if err != nil {
			return nil, err
		}
		// Thread 0 unconditionally: the address-space tag does not
		// affect ACE-ness (it is a bijection on addresses), so one
		// profile serves every thread slot.
		return ace.Run(prog, bench.Params.Seed, 0, n, window)
	})
}

// threadStreams builds one trace stream per benchmark, thread i executing
// benchmarks[i]: each stream runs the benchmark's shared program image and
// carries its offline profile (profLen instructions under window) for
// ground-truth ACE bits and per-PC tags. The profiles come back in thread
// order.
func threadStreams(benchmarks []string, profLen uint64, window int) ([]*trace.Stream, []*ace.Profile, error) {
	streams := make([]*trace.Stream, len(benchmarks))
	profs := make([]*ace.Profile, len(benchmarks))
	for i, name := range benchmarks {
		b, err := workload.Get(name)
		if err != nil {
			return nil, nil, err
		}
		prog, err := ProgramFor(b)
		if err != nil {
			return nil, nil, fmt.Errorf("core: generating %s: %w", name, err)
		}
		prof, err := ProfileFor(b, profLen, window)
		if err != nil {
			return nil, nil, fmt.Errorf("core: profiling %s: %w", name, err)
		}
		streams[i] = trace.NewStream(trace.NewExecutor(prog, b.Params.Seed, i), prof.Bits, prof.Tag)
		profs[i] = prof
	}
	return streams, profs, nil
}
