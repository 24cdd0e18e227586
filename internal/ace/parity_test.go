package ace

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"visasim/internal/program"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

// syncProfile profiles prog like Run, but drives both analysis stages
// synchronously through the streaming API (New, one Retire per committed
// instruction, Flush) and keeps its own ring of static indices.
func syncProfile(prog *program.Program, seed uint64, thread int, dynInstrs uint64, window int) *Profile {
	if window <= 0 {
		window = DefaultWindow
	}
	p := &Profile{
		Bits:         trace.NewBitSet(dynInstrs),
		Tag:          make([]bool, prog.Len()),
		Instances:    make([]uint32, prog.Len()),
		ACEInstances: make([]uint32, prog.Len()),
	}
	staticIdx := make([]int, window)
	an := New(window, func(seq uint64, isACE bool) {
		if seq >= dynInstrs {
			return
		}
		p.Bits.Set(seq, isACE)
		si := staticIdx[seq%uint64(window)]
		p.Instances[si]++
		if isACE {
			p.ACEInstances[si]++
			p.Tag[si] = true
			p.DynACE++
		}
		p.DynInstrs++
	})
	exec := trace.NewExecutor(prog, seed, thread)
	var d trace.DynInst
	for i := uint64(0); i < dynInstrs+uint64(window); i++ {
		exec.Next(&d)
		// Retire first: it may resolve seq-window, whose slot this
		// instruction's static index is about to overwrite.
		an.Retire(&d)
		staticIdx[d.Seq%uint64(window)] = prog.IndexOf(d.Static.PC)
	}
	an.Flush()
	p.LateMarks = an.LateMarks()
	return p
}

// profileDiff names the first field in which two profiles differ, or
// returns "" if they are identical.
func profileDiff(got, want *Profile) string {
	switch {
	case got.Bits.Len() != want.Bits.Len() || !slices.Equal(got.Bits.Words(), want.Bits.Words()):
		return "Bits"
	case !slices.Equal(got.Tag, want.Tag):
		return "Tag"
	case !slices.Equal(got.Instances, want.Instances):
		return "Instances"
	case !slices.Equal(got.ACEInstances, want.ACEInstances):
		return "ACEInstances"
	case got.DynInstrs != want.DynInstrs:
		return fmt.Sprintf("DynInstrs %d vs %d", got.DynInstrs, want.DynInstrs)
	case got.DynACE != want.DynACE:
		return fmt.Sprintf("DynACE %d vs %d", got.DynACE, want.DynACE)
	case got.LateMarks != want.LateMarks:
		return fmt.Sprintf("LateMarks %d vs %d", got.LateMarks, want.LateMarks)
	}
	return ""
}

// TestRunMatchesSynchronousDrive checks that the pipelined Run produces
// exactly the profile of a synchronous drive of the same stages, over every
// benchmark, tiny to paper-sized windows, lengths from a single
// instruction to several batches, and two address-space tags.
func TestRunMatchesSynchronousDrive(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			b := workload.MustGet(name)
			prog, err := b.Generate()
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{1, 2, 7, 1000, 3000, DefaultWindow} {
				for _, n := range []uint64{1, 100, 30_000, 204_096} {
					for _, thread := range []int{0, 2} {
						got, err := Run(prog, b.Params.Seed, thread, n, window)
						if err != nil {
							t.Fatal(err)
						}
						want := syncProfile(prog, b.Params.Seed, thread, n, window)
						if d := profileDiff(got, want); d != "" {
							t.Fatalf("window %d, %d instrs, thread %d: %s differs", window, n, thread, d)
						}
					}
				}
			}
		})
	}
}

// profileFile is the gob record TestProfileBytesPinned hashes: every field
// of a Profile plus its provenance. It is the version-2 layout of the
// retired on-disk profile format, kept byte for byte (gob encodes the type
// name and field names too) so the pinned digests still apply.
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

// profileBytes gob-encodes p as a profileFile record.
func profileBytes(p *Profile, benchmark string, seed uint64, window int) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(profileFile{
		Version:      2,
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
	return buf.Bytes(), err
}

// TestProfileBytesPinned pins the encoded bytes of the MEM-A benchmarks'
// profiles at a mem-long cell's profile length (1M committed plus the
// quarter warmup plus the in-flight slack). The digests were first
// recorded with the single-stage analyzer this package replaced, so they
// hold the two-stage analysis to its output; they were re-recorded for
// file version 2 (32-bit instance counters) after a format-independent
// digest of every field showed the profiles themselves unchanged.
func TestProfileBytesPinned(t *testing.T) {
	const n = 1_254_096
	want := map[string]string{
		"mcf":    "f2ac232b36ade31b57e0188515c528834f7586238a2a3619d0001b5a1f48ee97",
		"equake": "34d4ff431591984acd4c19197f1211d84de05d0c4a47d2bda4a2e2009ba4f8c8",
		"vpr":    "542dcd53983ec7e9437dcf2c34801bd85a30d6ac7162619e1fbb0df42c6de132",
		"swim":   "3765542a3eddf66df9e1756e35e5d7039d9211ede143736312e21fadebfa596f",
	}
	for _, name := range []string{"mcf", "equake", "vpr", "swim"} {
		b := workload.MustGet(name)
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(prog, b.Params.Seed, 0, n, DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := profileBytes(p, name, b.Params.Seed, DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: encoded profile sha256 %s, want %s", name, got, want[name])
		}
	}
}
