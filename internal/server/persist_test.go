package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestart extends TestCachedResultByteIdentical across a
// daemon restart: a second daemon sharing the first one's store directory
// serves the whole sweep from disk — zero fresh simulations — with Result
// JSON byte-identical to the first daemon's responses.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := SubmitRequest{Cells: []SubmitCell{
		{Key: "base", Config: testCfg("gcc", core.SchemeBase)},
		{Key: "visa", Config: testCfg("gcc", core.SchemeVISA)},
	}}

	// First life: simulate fresh, write through to disk.
	s1 := New(Options{Store: openStore(t, dir)})
	ts1 := newHTTPServer(t, s1)
	first := waitJob(t, ts1, submit(t, ts1, req))
	if first.State != StateDone {
		t.Fatalf("first run state %s (%s)", first.State, first.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Second life: fresh process state, same directory.
	s2 := New(Options{Store: openStore(t, dir)})
	ts2 := newHTTPServer(t, s2)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s2.Shutdown(ctx) //nolint:errcheck
	}()
	second := waitJob(t, ts2, submit(t, ts2, req))
	if second.State != StateDone {
		t.Fatalf("second run state %s (%s)", second.State, second.Error)
	}

	for key, c := range second.Cells {
		if !c.CacheHit {
			t.Fatalf("cell %s re-simulated after restart", key)
		}
		if !bytes.Equal(c.Result, first.Cells[key].Result) {
			t.Fatalf("cell %s Result differs across restart", c.Key)
		}
	}
	m := getMetrics(t, ts2)
	if sims := m["visasimd_sims_run_total"]; sims != 0 {
		t.Fatalf("restarted daemon ran %v simulations, want 0", sims)
	}
	if hits := m["visasimd_store_hits_total"]; hits != float64(len(req.Cells)) {
		t.Fatalf("visasimd_store_hits_total = %v, want %d", hits, len(req.Cells))
	}
}

// TestCacheEvictionBound pins the in-memory LRU cap: with CacheEntries 1
// and no store, a third distinct cell evicts the oldest resolved entry, so
// resubmitting it re-simulates — deterministically byte-identical.
func TestCacheEvictionBound(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheEntries: 1})
	cfgA := testCfg("gcc", core.SchemeBase)
	cfgB := testCfg("gcc", core.SchemeVISA)

	runOne := func(key string, cfg core.Config) CellStatus {
		st := waitJob(t, ts, submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: key, Config: cfg}}}))
		if st.State != StateDone {
			t.Fatalf("job for %s ended %s (%s)", key, st.State, st.Error)
		}
		return st.Cells[key]
	}

	firstA := runOne("a", cfgA)
	runOne("b", cfgB) // evicts A from the bounded memory tier
	if got := s.cache.resolvedLen(); got != 1 {
		t.Fatalf("resolved entries resident = %d, want 1", got)
	}
	if ev := s.cache.evicted(); ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}

	secondA := runOne("a2", cfgA)
	if secondA.CacheHit {
		t.Fatal("evicted cell still reported a cache hit")
	}
	if !bytes.Equal(firstA.Result, secondA.Result) {
		t.Fatal("re-simulated Result differs from the evicted one")
	}
	if sims := getMetrics(t, ts)["visasimd_sims_run_total"]; sims != 3 {
		t.Fatalf("visasimd_sims_run_total = %v, want 3 (A, B, A-again)", sims)
	}
}

// TestCacheEvictionFallsBackToStore is the two-tier interaction: an entry
// evicted from the bounded memory tier is re-served from the durable store
// without re-simulating.
func TestCacheEvictionFallsBackToStore(t *testing.T) {
	s := New(Options{CacheEntries: 1, Store: openStore(t, t.TempDir())})
	ts := newHTTPServer(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})

	runOne := func(key string, cfg core.Config) CellStatus {
		st := waitJob(t, ts, submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: key, Config: cfg}}}))
		if st.State != StateDone {
			t.Fatalf("job for %s ended %s (%s)", key, st.State, st.Error)
		}
		return st.Cells[key]
	}
	first := runOne("a", testCfg("gcc", core.SchemeBase))
	runOne("b", testCfg("gcc", core.SchemeVISA)) // evicts A from memory
	again := runOne("a2", testCfg("gcc", core.SchemeBase))

	if !again.CacheHit {
		t.Fatal("store-backed re-serve not reported as a hit")
	}
	if !bytes.Equal(first.Result, again.Result) {
		t.Fatal("store-served Result differs from the original")
	}
	m := getMetrics(t, ts)
	if sims := m["visasimd_sims_run_total"]; sims != 2 {
		t.Fatalf("visasimd_sims_run_total = %v, want 2", sims)
	}
	if hits := m["visasimd_store_hits_total"]; hits != 1 {
		t.Fatalf("visasimd_store_hits_total = %v, want 1", hits)
	}
}
