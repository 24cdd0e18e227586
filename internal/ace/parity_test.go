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
// instruction, Flush) and keeps its own ring of static indices. It also
// returns the per-PC instance and ACE-instance counts of the drive.
func syncProfile(prog *program.Program, seed uint64, thread int, dynInstrs uint64, window int) (p *Profile, instances, aceInstances []uint32) {
	if window <= 0 {
		window = DefaultWindow
	}
	p = &Profile{
		Bits: trace.NewBitSet(dynInstrs),
		Tag:  trace.NewBitSet(uint64(prog.Len())),
	}
	instances = make([]uint32, prog.Len())
	aceInstances = make([]uint32, prog.Len())
	staticIdx := make([]int, window)
	an := New(window, func(seq uint64, isACE bool) {
		if seq >= dynInstrs {
			return
		}
		p.Bits.Set(seq, isACE)
		si := staticIdx[seq%uint64(window)]
		instances[si]++
		if isACE {
			aceInstances[si]++
			p.Tag.Set(uint64(si), true)
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
	for si, n := range instances {
		if aceInstances[si] > 0 { // a tagged PC
			p.TagMismatches += uint64(n - aceInstances[si])
		}
	}
	return p, instances, aceInstances
}

// bitsEqual reports whether two bit sets have the same length and bits.
func bitsEqual(a, b *trace.BitSet) bool {
	return a.Len() == b.Len() && slices.Equal(a.Words(), b.Words())
}

// profileDiff names the first field in which two profiles differ, or
// returns "" if they are identical.
func profileDiff(got, want *Profile) string {
	switch {
	case !bitsEqual(got.Bits, want.Bits):
		return "Bits"
	case !bitsEqual(got.Tag, want.Tag):
		return "Tag"
	case got.DynInstrs != want.DynInstrs:
		return fmt.Sprintf("DynInstrs %d vs %d", got.DynInstrs, want.DynInstrs)
	case got.DynACE != want.DynACE:
		return fmt.Sprintf("DynACE %d vs %d", got.DynACE, want.DynACE)
	case got.LateMarks != want.LateMarks:
		return fmt.Sprintf("LateMarks %d vs %d", got.LateMarks, want.LateMarks)
	case got.TagMismatches != want.TagMismatches:
		return fmt.Sprintf("TagMismatches %d vs %d", got.TagMismatches, want.TagMismatches)
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
						want, _, _ := syncProfile(prog, b.Params.Seed, thread, n, window)
						if d := profileDiff(got, want); d != "" {
							t.Fatalf("window %d, %d instrs, thread %d: %s differs", window, n, thread, d)
						}
					}
				}
			}
		})
	}
}

// TestPCCountsMatchesSynchronousDrive checks the per-PC counts PCCounts
// replays from a profile against the counts a synchronous drive keeps while
// it profiles, and the per-PC invariants of the profile's tags and
// TagMismatches against those counts, over every benchmark.
func TestPCCountsMatchesSynchronousDrive(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			b := workload.MustGet(name)
			prog, err := b.Generate()
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{1, 1000, DefaultWindow} {
				for _, n := range []uint64{1, 30_000, 204_096} {
					p, err := Run(prog, b.Params.Seed, 0, n, window)
					if err != nil {
						t.Fatal(err)
					}
					_, wantInst, wantACE := syncProfile(prog, b.Params.Seed, 0, n, window)
					inst, aceInst := PCCounts(prog, b.Params.Seed, 0, p)
					if !slices.Equal(inst, wantInst) || !slices.Equal(aceInst, wantACE) {
						t.Fatalf("window %d, %d instrs: PCCounts differ from the synchronous drive", window, n)
					}
					var mismatches uint64
					for i := range inst {
						if p.Tag.Get(uint64(i)) != (aceInst[i] > 0) {
							t.Fatalf("window %d, %d instrs: tag %d = %v with %d ACE instances",
								window, n, i, p.Tag.Get(uint64(i)), aceInst[i])
						}
						if p.Tag.Get(uint64(i)) {
							mismatches += uint64(inst[i] - aceInst[i])
						}
					}
					if mismatches != p.TagMismatches {
						t.Fatalf("window %d, %d instrs: TagMismatches %d, per-PC sum %d",
							window, n, p.TagMismatches, mismatches)
					}
				}
			}
		})
	}
}

// profileFile is the gob record TestProfileBytesPinned hashes: every field
// of a profile plus its provenance. It is the version-2 layout of the
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

// profileBytes gob-encodes p, profiled from prog on thread 0, as a
// profileFile record. The record's byte-per-PC tags and per-PC counters
// are rebuilt from the tag bits and by PCCounts.
func profileBytes(p *Profile, prog *program.Program, benchmark string, seed uint64, window int) ([]byte, error) {
	tag := make([]bool, p.Tag.Len())
	for i := range tag {
		tag[i] = p.Tag.Get(uint64(i))
	}
	instances, aceInstances := PCCounts(prog, seed, 0, p)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(profileFile{
		Version:      2,
		Benchmark:    benchmark,
		Seed:         seed,
		Window:       window,
		BitWords:     p.Bits.Words(),
		BitLen:       p.Bits.Len(),
		Tag:          tag,
		Instances:    instances,
		ACEInstances: aceInstances,
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
// digest of every field showed the profiles themselves unchanged. The
// profile no longer holds the counters or byte tags; profileBytes rebuilds
// them, and the digests apply unchanged.
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
		blob, err := profileBytes(p, prog, name, b.Params.Seed, DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: encoded profile sha256 %s, want %s", name, got, want[name])
		}
	}
}
