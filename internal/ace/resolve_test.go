package ace

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestRecordSizes keeps the window's ring slots and the hand-over records
// packed: the ring for the paper's window must stay cache-friendly, and
// every record crosses between the stages' goroutines.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 20 {
		t.Errorf("ring slot is %d bytes, want at most 20", n)
	}
	if n := unsafe.Sizeof(edge{}); n > 24 {
		t.Errorf("edge record is %d bytes, want at most 24", n)
	}
}

// live filters a last-store reference the way the resolver reads it:
// references at or below the floor belong to stores outside the window.
func live(ref, floor uint64) uint64 {
	if ref > floor {
		return ref
	}
	return 0
}

// TestLastStoreMatchesMap runs random sequences of inserts, lookups and
// window advances (which expire old stores) against a map reference. The
// table starts tiny so the sequences force many rehashes, and every
// rehash must keep the table bounded by the live entries, not by every
// word ever stored.
func TestLastStoreMatchesMap(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		tab := newLastStore(2)
		ref := map[uint64]uint64{}
		keys := make([]uint64, 1+rnd.Intn(200))
		for i := range keys {
			keys[i] = rnd.Uint64() &^ 7
			if trial%2 == 0 {
				keys[i] = uint64(i) * 8 // dense words, as sequential streams produce
			}
		}
		var next, floor uint64 = 1, 0
		maxLive := 0
		for op := 0; op < 2000; op++ {
			k := keys[rnd.Intn(len(keys))]
			switch r := rnd.Intn(10); {
			case r < 5:
				n := 0
				for _, v := range ref {
					if v > floor {
						n++
					}
				}
				maxLive = max(maxLive, n)
				got := tab.swap(k, next, floor)
				if want := ref[k]; live(got, floor) != live(want, floor) {
					t.Fatalf("trial %d op %d: swap(%#x) returned %d, want %d", trial, op, k, live(got, floor), live(want, floor))
				}
				ref[k] = next
				next++
			case r < 9:
				if got, want := live(tab.get(k), floor), live(ref[k], floor); got != want {
					t.Fatalf("trial %d op %d: get(%#x) = %d, want %d", trial, op, k, got, want)
				}
			default:
				floor += uint64(rnd.Intn(int(next - floor)))
			}
		}
		for k, want := range ref {
			if got := live(tab.get(k), floor); got != live(want, floor) {
				t.Fatalf("trial %d: final get(%#x) = %d, want %d", trial, k, got, live(want, floor))
			}
		}
		if limit := max(4, 8*(maxLive+1)); len(tab.slots) > limit {
			t.Fatalf("trial %d: %d slots for at most %d live stores", trial, len(tab.slots), maxLive)
		}
	}
}

// TestLastStoreProbeWraps fills the last slot's probe chain so it wraps
// past the end of the slot array, and checks lookups on both sides of the
// wrap, including a miss that must walk through it.
func TestLastStoreProbeWraps(t *testing.T) {
	tab := newLastStore(3)
	last := uint64(len(tab.slots) - 1)
	var atLast, atZero []uint64
	for w := uint64(8); len(atLast) < 4 || len(atZero) < 1; w += 8 {
		switch tab.home(w) {
		case last:
			atLast = append(atLast, w)
		case 0:
			atZero = append(atZero, w)
		}
	}
	// Three words homed at the last slot occupy it and wrap into slots
	// 0 and 1; a word homed at slot 0 lands in slot 2. Four entries in
	// eight slots stay under the rehash threshold.
	words := []uint64{atLast[0], atLast[1], atLast[2], atZero[0]}
	for i, w := range words {
		if old := tab.swap(w, uint64(i+1), 0); old != 0 {
			t.Fatalf("fresh word %#x had reference %d", w, old)
		}
	}
	if len(tab.slots) != 8 || tab.slots[0].word != words[1] || tab.slots[2].word != words[3] {
		t.Fatalf("probe chain did not wrap as laid out: %+v", tab.slots)
	}
	for i, w := range words {
		if got := tab.get(w); got != uint64(i+1) {
			t.Fatalf("get(%#x) = %d, want %d", w, got, i+1)
		}
	}
	// A miss homed at the last slot walks the wrapped chain to slot 3.
	if got := tab.get(atLast[3]); got != 0 {
		t.Fatalf("absent word %#x found with reference %d", atLast[3], got)
	}
	// Overwriting across the wrap returns the old reference.
	if old := tab.swap(words[2], 9, 0); old != 3 {
		t.Fatalf("swap returned %d, want 3", old)
	}
	if got := tab.get(words[2]); got != 9 {
		t.Fatalf("get after overwrite = %d, want 9", got)
	}
}
