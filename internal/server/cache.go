package server

import (
	"container/list"
	"sync"

	"visasim/internal/core"
	"visasim/internal/harness"
)

// cacheEntry is one content-addressed result slot. Its result fields are
// written once, by fill or fail, before resolved is set under
// resultCache.mu; claimants read them only after seeing resolved under the
// same lock, so the lock is the publication barrier.
type cacheEntry struct {
	hash     string
	resolved bool
	res      *core.Result
	stats    harness.CellStats
	err      error
	// waiters are the follower cells of an in-flight entry, run by
	// whoever resolves it.
	waiters []func(*cacheEntry)

	// elem is the entry's LRU position, set under resultCache.mu when the
	// entry resolves successfully; nil while in flight (in-flight entries
	// are never evicted — their followers wait on them and the leader
	// must be able to publish to them).
	elem *list.Element
}

// resultCache is the in-memory content-addressed result tier with
// single-flight semantics: the first claimant of a hash becomes the leader
// and runs the simulation; everyone else waits on the same entry without
// a goroutine of their own.
// Determinism makes this sound — a config hash fully determines the
// Result, so sharing one run is indistinguishable from running again (see
// DESIGN.md §7).
//
// Resolved entries are bounded by an LRU cap (max): beyond it the
// least-recently-claimed resolved entries are dropped, so a long-running
// daemon's memory is bounded regardless of how large a config space its
// clients explore. With a persistent store configured (DESIGN.md §8) an
// evicted address is re-served from disk; without one it re-simulates.
// Failed entries are always evicted so a transient failure does not poison
// the address.
type resultCache struct {
	mu        sync.Mutex
	max       int // resolved-entry cap, positive
	entries   map[string]*cacheEntry
	lru       *list.List // of *cacheEntry, front = most recently used
	evictions int64
}

func newResultCache(maxResolved int) *resultCache {
	return &resultCache{
		max:     maxResolved,
		entries: map[string]*cacheEntry{},
		lru:     list.New(),
	}
}

// claim returns hash's entry and whether the caller leads it. A leader
// must eventually call fill or fail. A non-leader gets the entry when it is
// already resolved; when it is still in flight, claim instead registers
// follow to run with the entry once it resolves and returns nil.
func (c *resultCache) claim(hash string, follow func(*cacheEntry)) (e *cacheEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	switch {
	case !ok:
		e = &cacheEntry{hash: hash}
		c.entries[hash] = e
		return e, true
	case !e.resolved:
		e.waiters = append(e.waiters, follow)
		return nil, false
	}
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	return e, false
}

// fill publishes a successful result to future claimants, enforces the
// resolved-entry cap and then runs the entry's waiters.
func (c *resultCache) fill(e *cacheEntry, res *core.Result, stats harness.CellStats) {
	c.mu.Lock()
	e.res = res
	e.stats = stats
	// The entry may have been failed-and-reclaimed only for errors, never
	// for fills, so e is still the map's entry for its hash here.
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		victim := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, victim.hash)
		victim.elem = nil
		c.evictions++
	}
	c.resolveLocked(e)
}

// fail publishes an error to the entry's waiters and evicts the address so
// a later submission retries.
func (c *resultCache) fail(e *cacheEntry, err error) {
	c.mu.Lock()
	e.err = err
	delete(c.entries, e.hash)
	c.resolveLocked(e)
}

// resolveLocked marks e resolved, releases c.mu (which the caller holds)
// and runs e's waiters outside it.
func (c *resultCache) resolveLocked(e *cacheEntry) {
	e.resolved = true
	waiters := e.waiters
	e.waiters = nil
	c.mu.Unlock()
	for _, follow := range waiters {
		follow(e)
	}
}

// size returns the number of live entries (resolved or in flight).
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// resolvedLen returns how many resolved entries are resident (the number
// the LRU cap bounds).
func (c *resultCache) resolvedLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// evicted returns how many resolved entries the cap has dropped.
func (c *resultCache) evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
