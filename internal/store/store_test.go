package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
)

// simOnce runs one tiny simulation and returns its hash, result, and cost
// record. Results are cached per scheme across the package's tests (the
// simulator's own profile cache makes repeats cheap anyway).
func simOnce(t *testing.T, scheme core.Scheme) (string, *core.Result, harness.CellStats) {
	t.Helper()
	cfg := core.Config{
		Benchmarks:      []string{"gcc"},
		Scheme:          scheme,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: 6000,
	}
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := harness.RunStats([]harness.Cell{{Key: "c", Cfg: cfg}}, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return hash, res["c"], stats["c"]
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, res, stats := simOnce(t, core.SchemeBase)

	if _, _, ok := s.Get(hash); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(hash, res, stats); err != nil {
		t.Fatal(err)
	}
	got, gotStats, ok := s.Get(hash)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if gotStats != stats {
		t.Fatalf("stats changed across the store: %+v != %+v", gotStats, stats)
	}
	// The byte-identical guarantee: re-encoding the loaded Result matches
	// the original encoding exactly.
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Fatal("stored Result JSON differs from the original")
	}
	if s.Len() != 1 || s.Bytes() <= 0 {
		t.Fatalf("index: len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

func TestReopenServesEntries(t *testing.T) {
	dir := t.TempDir()
	hash, res, stats := simOnce(t, core.SchemeVISA)

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(hash, res, stats); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok := s2.Get(hash)
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if got.Cycles != res.Cycles {
		t.Fatalf("cycles %d != %d after reopen", got.Cycles, res.Cycles)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened index has %d entries", s2.Len())
	}
}

func TestCorruptEntryIsAMissAndRemoved(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, res, stats := simOnce(t, core.SchemeBase)
	if err := s.Put(hash, res, stats); err != nil {
		t.Fatal(err)
	}
	path := s.path(hash)

	cases := []struct {
		name string
		blob []byte
	}{
		{"truncated json", []byte(`{"hash":"` + hash + `","result":`)},
		{"hash mismatch", mustEnvelope(t, strings.Repeat("ab", 32), res, stats)},
		{"empty result", []byte(`{"hash":"` + hash + `","result":null}`)},
		{"garbage result", []byte(`{"hash":"` + hash + `","result":{"Cycles":"NaN-ish"}}`)},
	}
	for _, tc := range cases {
		if err := os.WriteFile(path, tc.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.Get(hash); ok {
			t.Fatalf("%s: corrupt entry served as a hit", tc.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt entry not removed (stat err %v)", tc.name, err)
		}
		// Heal for the next case.
		if err := s.Put(hash, res, stats); err != nil {
			t.Fatal(err)
		}
	}
}

func mustEnvelope(t *testing.T, hash string, res *core.Result, stats harness.CellStats) []byte {
	t.Helper()
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(envelope{Hash: hash, Stats: stats, Result: resJSON})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRetiredStatsFieldsStillRead pins that layout v1 entries written
// before CellStats lost its derived rate fields (such as CyclesPerSec and
// InstrsPerSec) still load: unknown fields are ignored.
func TestRetiredStatsFieldsStillRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, res, stats := simOnce(t, core.SchemeBase)
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`{"hash":"` + hash + `","stats":{"Seconds":1.5,"Cycles":` +
		strconv.FormatUint(stats.Cycles, 10) + `,"Instructions":7,"CyclesPerSec":2,` +
		`"InstrsPerSec":3,"SimSeconds":0.5},"result":` + string(resJSON) + `}`)
	if err := os.WriteFile(s.path(hash), old, 0o644); err != nil {
		t.Fatal(err)
	}
	got, gotStats, ok := s.Get(hash)
	if !ok {
		t.Fatal("entry with the retired rate fields missed")
	}
	want := harness.CellStats{Seconds: 1.5, Cycles: stats.Cycles, Instructions: 7, SimSeconds: 0.5}
	if gotStats != want || got.Cycles != res.Cycles {
		t.Fatalf("stats %+v (want %+v), cycles %d (want %d)", gotStats, want, got.Cycles, res.Cycles)
	}
}

func TestInvalidAddressesRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, res, stats := simOnce(t, core.SchemeBase)
	for _, bad := range []string{"", "../escape", "a/b", "ABCZ", strings.Repeat("f", 200)} {
		if err := s.Put(bad, res, stats); err == nil {
			t.Errorf("Put(%q) accepted an invalid address", bad)
		}
		if _, _, ok := s.Get(bad); ok {
			t.Errorf("Get(%q) hit on an invalid address", bad)
		}
	}
}

// TestOpenSweepsTempFiles checks crashed-writer hygiene: stray tmpPrefix
// files are removed on Open and never indexed.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	vdir := filepath.Join(dir, layoutVersion)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(vdir, tmpPrefix+"deadbeef-123")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("temp file was indexed (%d entries)", s.Len())
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open (stat err %v)", err)
	}
}

// TestConcurrentPutGet exercises the index under parallel access (run with
// -race in CI's race job).
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, res, stats := simOnce(t, core.SchemeBase)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := s.Put(hash, res, stats); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.Get(hash) // must never observe a partial entry (checked below)
		select {
		case <-done:
			// The writes have all landed; the final read must hit.
			if _, _, ok := s.Get(hash); !ok {
				t.Fatal("entry missing after concurrent writes finished")
			}
			return
		default:
		}
	}
	t.Fatal("writer never finished")
}
