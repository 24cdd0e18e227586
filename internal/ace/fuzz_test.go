package ace

import (
	"bytes"
	"reflect"
	"testing"

	"visasim/internal/trace"
)

// fuzzSeedProfile builds a small but fully-populated profile for the fuzz
// corpus.
func fuzzSeedProfile() *Profile {
	bits := trace.NewBitSet(130)
	for i := uint64(0); i < 130; i += 3 {
		bits.Set(i, true)
	}
	return &Profile{
		Bits:         bits,
		Tag:          []bool{true, false, true, true},
		Instances:    []uint32{40, 30, 40, 20},
		ACEInstances: []uint32{40, 2, 39, 0},
		DynInstrs:    130,
		DynACE:       44,
		LateMarks:    1,
	}
}

// FuzzProfileRoundTrip feeds arbitrary bytes to Load. Load must never panic;
// whenever it accepts an input, saving the decoded profile and loading it
// back must reproduce it exactly — the serialize round-trip property the
// profile cache relies on.
func FuzzProfileRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedProfile().Save(&seed, "bench", 7, DefaultWindow); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	truncated := seed.Bytes()
	f.Add(truncated[:len(truncated)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data), "bench", 7, 0)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.Save(&out, "bench", 7, DefaultWindow); err != nil {
			t.Fatalf("saving an accepted profile: %v", err)
		}
		p2, err := Load(&out, "bench", 7, 0)
		if err != nil {
			t.Fatalf("re-loading a saved profile: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", p2, p)
		}
	})
}
