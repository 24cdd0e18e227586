package trace

import (
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if b.Len() != 130 {
		t.Fatalf("len %d", b.Len())
	}
	for _, i := range []uint64{0, 1, 63, 64, 65, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set initially", i)
		}
		b.Set(i, true)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := b.Count(130); got != 6 {
		t.Fatalf("count %d, want 6", got)
	}
	b.Set(63, false)
	if b.Get(63) || b.Count(130) != 5 {
		t.Fatal("clear failed")
	}
	if got := b.Count(64); got != 2 { // bits 0,1 set below 64
		t.Fatalf("partial count %d, want 2", got)
	}
}

func TestBitSetOutOfRangePanics(t *testing.T) {
	b := NewBitSet(8)
	for _, f := range []func(){
		func() { b.Get(8) },
		func() { b.Set(9, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestBitSetPrefixView(t *testing.T) {
	b := NewBitSet(200)
	for _, i := range []uint64{0, 64, 99, 100, 130, 199} {
		b.Set(i, true)
	}
	v := b.Prefix(100)
	if v.Len() != 100 || len(v.Words()) != 2 || &v.Words()[0] != &b.Words()[0] {
		t.Fatalf("view of 100 bits: len %d over %d words, shared %v", v.Len(), len(v.Words()), &v.Words()[0] == &b.Words()[0])
	}
	for i := range uint64(100) {
		if v.Get(i) != b.Get(i) {
			t.Fatalf("view bit %d = %v, set says %v", i, v.Get(i), b.Get(i))
		}
	}
	if got := v.Count(200); got != 3 {
		t.Fatalf("view count %d, want 3", got)
	}
	if got := b.Prefix(100).Prefix(65).Count(65); got != 2 {
		t.Fatalf("view of a view counts %d, want 2", got)
	}
	for name, f := range map[string]func(){
		"get at length":  func() { v.Get(100) },
		"set in range":   func() { v.Set(0, false) },
		"longer than b":  func() { b.Prefix(201) },
		"longer than v":  func() { v.Prefix(101) },
		"empty view get": func() { b.Prefix(0).Get(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if !b.Get(0) {
		t.Fatal("a refused Set on the view changed the set")
	}
}

// Property: Count equals a naive recount after arbitrary set/clear actions.
func TestQuickBitSetCount(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 257
		b := NewBitSet(n)
		ref := make([]bool, n)
		for _, op := range ops {
			i := uint64(op) % n
			v := op&0x8000 == 0
			b.Set(i, v)
			ref[i] = v
		}
		want := uint64(0)
		for _, v := range ref {
			if v {
				want++
			}
		}
		return b.Count(n) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamWindow(t *testing.T) {
	prog := testProgram(10)
	s := NewStream(NewExecutor(prog, 1, 0), nil, nil)

	d0 := *s.At(0)
	if s.At(0).Seq != 0 || s.At(5).Seq != 5 {
		t.Fatal("positions do not match sequence numbers")
	}
	if *s.At(0) != d0 {
		t.Fatal("re-read changed the instruction")
	}
	s.Release(3)
	if s.At(3).Seq != 3 {
		t.Fatal("position 3 should still be readable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reading a released position must panic")
			}
		}()
		s.At(2)
	}()
}

func TestStreamOverflowPanics(t *testing.T) {
	prog := testProgram(11)
	s := NewStream(NewExecutor(prog, 1, 0), nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("window overflow must panic")
		}
	}()
	s.At(streamCap + 1) // never released: exceeds the ring
}

func TestStreamCarriesACEBits(t *testing.T) {
	prog := testProgram(12)
	ace := NewBitSet(100)
	ace.Set(4, true)
	ace.Set(7, true)
	s := NewStream(NewExecutor(prog, 1, 0), ace, nil)
	for i := uint64(0); i < 100; i++ {
		want := i == 4 || i == 7
		if got := s.At(i).ACE; got != want {
			t.Fatalf("position %d ACE=%v want %v", i, got, want)
		}
		s.Release(i)
	}
	// Beyond the profiled prefix: defaults to un-ACE.
	if s.At(200).ACE {
		t.Fatal("unprofiled position marked ACE")
	}
}

func TestStreamCarriesTags(t *testing.T) {
	prog := testProgram(14)
	untagged := NewStream(NewExecutor(prog, 1, 0), nil, nil)
	tag := NewBitSet(uint64(prog.Len()))
	for i := range prog.Len() {
		tag.Set(uint64(i), i%3 == 0)
	}
	tagged := NewStream(NewExecutor(prog, 1, 0), nil, tag)
	for i := range prog.Len() {
		if untagged.Tag(i) {
			t.Fatalf("untagged stream reports a tag at %d", i)
		}
		if want := i%3 == 0; tagged.Tag(i) != want {
			t.Fatalf("tag %d = %v, want %v", i, tagged.Tag(i), want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a tag bit set of the wrong length must panic")
		}
	}()
	NewStream(NewExecutor(prog, 1, 0), nil, NewBitSet(uint64(prog.Len()-1)))
}

func TestStreamMatchesExecutor(t *testing.T) {
	prog := testProgram(13)
	s := NewStream(NewExecutor(prog, 9, 0), nil, nil)
	ref := NewExecutor(prog, 9, 0)
	var d DynInst
	for i := uint64(0); i < 5000; i++ {
		ref.Next(&d)
		got := *s.At(i)
		got.ACE = d.ACE // stream may default ACE; executor leaves false too
		if got != d {
			t.Fatalf("position %d: %+v vs %+v", i, got, d)
		}
		if i > 64 {
			s.Release(i - 64)
		}
	}
}
