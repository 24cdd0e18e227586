package core

import (
	"container/list"
	"fmt"
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

// profileCacheEntries caps the profiles kept live. It is above every key
// set perfbench or experiments keeps live (one key per benchmark and
// budget: 45 for perfbench's service workload, 75 for its figs setup), so
// their cells never re-profile; a sweep over more keys re-profiles what it
// evicted, to the same bytes. An entry costs L/8 + PCs/8 bytes for a
// profile of L instructions over PCs static instructions (about 32 KB at a
// figs cell's length), so a full cache of mem-long-length profiles stays
// near 40 MB.
const profileCacheEntries = 256

// profileEntry is one slot of profileLRU.
type profileEntry struct {
	key  profileKey
	once sync.Once
	p    *ace.Profile
	err  error
}

// profileLRU is a fixed-capacity least-recently-used cache of offline
// profiles with one profiling pass per key: the first caller of a key
// inserts its entry and every caller runs the entry's sync.Once, so
// concurrent callers share one pass. Evicting an entry whose pass is in
// flight is safe — its callers hold the entry — and a later call for the
// key profiles again, deterministically to the same profile.
type profileLRU struct {
	mu      sync.Mutex
	max     int
	entries map[profileKey]*list.Element // of *profileEntry
	order   *list.List                   // front = most recently used
}

func newProfileLRU(max int) *profileLRU {
	return &profileLRU{max: max, entries: map[profileKey]*list.Element{}, order: list.New()}
}

// get returns key's profile, computing it with profile on a miss.
func (c *profileLRU) get(key profileKey, profile func() (*ace.Profile, error)) (*ace.Profile, error) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&profileEntry{key: key})
		c.entries[key] = el
		if c.order.Len() > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*profileEntry).key)
		}
	}
	e := el.Value.(*profileEntry)
	c.mu.Unlock()

	e.once.Do(func() { e.p, e.err = profile() })
	return e.p, e.err
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
