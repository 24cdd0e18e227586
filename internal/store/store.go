// Package store is the durable tier under the simulation system's
// content-addressed caches: one file per core.Config.Hash address holding
// the simulation's Result and cost record, under a versioned directory
// root. The simulator is deterministic, so an address fully determines its
// contents — which is what makes serving a stored result (across daemon
// restarts, across sweeps, across machines sharing a filesystem)
// indistinguishable from re-simulating, and what makes checkpointed resume
// sound: a sweep's progress *is* the set of addresses present in the
// store. See DESIGN.md §8.
//
// Writes are atomic (temp file + rename in the same directory), so a
// crashed writer never leaves a half-written entry at a live address.
// Reads are corruption-tolerant: an entry that fails to decode or whose
// recorded hash mismatches its address is treated as a miss and removed.
// The store enforces an optional LRU size cap; entry access order is
// approximated across restarts by file modification times, which Get
// refreshes best-effort.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"visasim/internal/core"
	"visasim/internal/harness"
)

// layoutVersion names the on-disk layout. Entries live under
// <root>/<layoutVersion>/<hash>.json; bumping it (e.g. if the entry
// envelope changes incompatibly) orphans old entries instead of
// misreading them. The *addresses* are already versioned independently by
// core's hash domain, so a Config semantics change never aliases here.
const layoutVersion = "v1"

// entryExt is the filename suffix of one stored result.
const entryExt = ".json"

// envelope is the JSON form of one entry file.
type envelope struct {
	// Hash echoes the entry's address so a misplaced or tampered file is
	// detected on read.
	Hash string `json:"hash"`
	// Stats is the cost record of the run that produced the result.
	Stats harness.CellStats `json:"stats"`
	// Result is the simulation outcome, exactly core.Result's JSON.
	Result json.RawMessage `json:"result"`
}

// Store is a persistent content-addressed result store. It is safe for
// concurrent use by multiple goroutines. Multiple processes may share one
// root: writes are atomic renames and equal addresses hold byte-identical
// contents (determinism), so concurrent writers of the same address
// converge; a reader either sees a complete entry or a miss.
type Store struct {
	dir string // <root>/<layoutVersion>

	mu    sync.Mutex
	sizes map[string]int64 // hash -> entry file size
	total int64
}

// Open creates (if needed) and indexes the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	vdir := filepath.Join(dir, layoutVersion)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: vdir, sizes: map[string]int64{}}
	ents, err := os.ReadDir(vdir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		// Abandoned temp files (crashed writers) are junk at non-live
		// names; sweep them so the directory doesn't accumulate them
		// forever.
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(vdir, name)) //nolint:errcheck
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.note(strings.TrimSuffix(name, entryExt), info.Size())
	}
	return s, nil
}

// tmpPrefix marks in-progress writes; Open sweeps abandoned ones.
const tmpPrefix = ".tmp-"

// Dir returns the versioned directory entries live in.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+entryExt)
}

// validHash guards against path escape: addresses are hex SHA-256 digests,
// so anything with separators or traversal parts is rejected outright.
func validHash(hash string) bool {
	if hash == "" || len(hash) > 128 {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		default:
			return false
		}
	}
	return true
}

// Get returns the stored result and cost record at hash, or ok=false on a
// miss. A corrupt entry (undecodable, or recorded hash differing from its
// address) counts as a miss and is removed so a later Put can heal it.
func (s *Store) Get(hash string) (res *core.Result, stats harness.CellStats, ok bool) {
	if !validHash(hash) {
		return nil, harness.CellStats{}, false
	}
	blob, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, harness.CellStats{}, false
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil || env.Hash != hash ||
		len(env.Result) == 0 || string(env.Result) == "null" {
		s.drop(hash)
		return nil, harness.CellStats{}, false
	}
	var r core.Result
	if err := json.Unmarshal(env.Result, &r); err != nil {
		s.drop(hash)
		return nil, harness.CellStats{}, false
	}
	// A hit also adopts an entry written by another process sharing the
	// root, which Open never saw.
	s.note(hash, int64(len(blob)))
	return &r, env.Stats, true
}

// note indexes hash at size bytes, replacing any earlier size.
func (s *Store) note(hash string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += size - s.sizes[hash]
	s.sizes[hash] = size
}

// drop removes a corrupt entry from disk and the index.
func (s *Store) drop(hash string) {
	os.Remove(s.path(hash)) //nolint:errcheck
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total -= s.sizes[hash]
	delete(s.sizes, hash)
}

// Put stores res and stats at hash, overwriting any previous entry. The
// write is atomic: the entry is staged in a temp file in the same
// directory and renamed into place, so readers never observe a partial
// entry.
func (s *Store) Put(hash string, res *core.Result, stats harness.CellStats) error {
	if !validHash(hash) {
		return fmt.Errorf("store: invalid address %q", hash)
	}
	if res == nil {
		return errors.New("store: nil result")
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding result: %w", err)
	}
	blob, err := json.Marshal(envelope{Hash: hash, Stats: stats, Result: resJSON})
	if err != nil {
		return fmt.Errorf("store: encoding entry: %w", err)
	}
	blob = append(blob, '\n')

	tmp, err := os.CreateTemp(s.dir, tmpPrefix+hash+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(hash)); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}

	s.note(hash, int64(len(blob)))
	return nil
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes)
}

// Bytes returns the total indexed entry size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
