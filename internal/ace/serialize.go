package ace

import (
	"encoding/gob"
	"fmt"
	"io"

	"visasim/internal/trace"
)

// profileFileVersion guards the on-disk format. Version 2 stores the
// per-PC instance counters as 32-bit values.
const profileFileVersion = 2

// profileFile is the serialised form of a Profile plus the provenance
// needed to detect mismatched reuse.
type profileFile struct {
	Version   int
	Benchmark string
	Seed      uint64
	Window    int

	BitWords     []uint64
	BitLen       uint64
	Tag          []bool
	Instances    []uint32
	ACEInstances []uint32
	DynInstrs    uint64
	DynACE       uint64
	LateMarks    uint64
}

// Save writes the profile to w with its provenance (benchmark name, seed
// and analysis window), so a later Load can refuse a mismatched program.
func (p *Profile) Save(w io.Writer, benchmark string, seed uint64, window int) error {
	if window <= 0 {
		window = DefaultWindow
	}
	return gob.NewEncoder(w).Encode(profileFile{
		Version:      profileFileVersion,
		Benchmark:    benchmark,
		Seed:         seed,
		Window:       window,
		BitWords:     p.Bits.Words(),
		BitLen:       p.Bits.Len(),
		Tag:          p.Tag,
		Instances:    p.Instances,
		ACEInstances: p.ACEInstances,
		DynInstrs:    p.DynInstrs,
		DynACE:       p.DynACE,
		LateMarks:    p.LateMarks,
	})
}

// Load reads a profile written by Save. It verifies provenance: the stored
// benchmark and seed must match, and the static-instruction count must
// agree with staticLen (0 skips that check).
func Load(r io.Reader, benchmark string, seed uint64, staticLen int) (*Profile, error) {
	var f profileFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("ace: decoding profile: %w", err)
	}
	switch {
	case f.Version != profileFileVersion:
		return nil, fmt.Errorf("ace: profile version %d, want %d", f.Version, profileFileVersion)
	case f.Benchmark != benchmark:
		return nil, fmt.Errorf("ace: profile is for %q, not %q", f.Benchmark, benchmark)
	case f.Seed != seed:
		return nil, fmt.Errorf("ace: profile seed %d, want %d", f.Seed, seed)
	case staticLen > 0 && len(f.Tag) != staticLen:
		return nil, fmt.Errorf("ace: profile covers %d static instructions, program has %d",
			len(f.Tag), staticLen)
	case len(f.Instances) != len(f.Tag) || len(f.ACEInstances) != len(f.Tag):
		return nil, fmt.Errorf("ace: inconsistent profile arrays")
	}
	bits, err := trace.NewBitSetFromWords(f.BitWords, f.BitLen)
	if err != nil {
		return nil, fmt.Errorf("ace: %w", err)
	}
	return &Profile{
		Bits:         bits,
		Tag:          f.Tag,
		Instances:    f.Instances,
		ACEInstances: f.ACEInstances,
		DynInstrs:    f.DynInstrs,
		DynACE:       f.DynACE,
		LateMarks:    f.LateMarks,
	}, nil
}
