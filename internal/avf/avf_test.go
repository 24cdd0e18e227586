package avf

import (
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	a := NewAccumulator(2, 100) // 200 bits total
	a.AddAt(50, 0)
	a.SubAt(50, 2)
	a.AddAt(100, 2)
	a.SettleTo(3)
	// Sum = 50 + 50 + 100 = 200 over 3 cycles of 200 bits.
	if got, want := a.AVF(), 200.0/600.0; got != want {
		t.Fatalf("AVF %v, want %v", got, want)
	}
	if a.Current() != 100 || a.Sum() != 200 || a.Cycles() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestAccumulatorUnderflowPanics(t *testing.T) {
	a := NewAccumulator(1, 10)
	a.AddAt(5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on underflow")
		}
	}()
	a.SubAt(6, 0)
}

func TestAccumulatorAVFSince(t *testing.T) {
	a := NewAccumulator(1, 100)
	a.AddAt(100, 0)
	a.SettleTo(1) // cycle 0 full
	s, c := a.Sum(), a.Cycles()
	a.SubAt(100, 1)
	a.SettleTo(3) // cycles 1 and 2 empty
	if got := a.AVFSince(s, c); got != 0 {
		t.Fatalf("window AVF %v, want 0", got)
	}
	if got := a.AVF(); got != 100.0/300.0 {
		t.Fatalf("overall AVF %v", got)
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulator(1, 100)
	a.AddAt(40, 0)
	a.ResetStatsAt(1)
	if a.Sum() != 0 || a.Cycles() != 0 {
		t.Fatal("reset incomplete")
	}
	if a.Current() != 40 {
		t.Fatal("reset dropped resident bits")
	}
	a.SettleTo(2)
	if a.AVF() != 0.4 {
		t.Fatalf("post-reset AVF %v", a.AVF())
	}
}

func TestEmptyAVFZero(t *testing.T) {
	if NewAccumulator(4, 64).AVF() != 0 {
		t.Fatal("idle accumulator AVF nonzero")
	}
	if NewSpanAccumulator(4, 64).AVF() != 0 {
		t.Fatal("idle span accumulator AVF nonzero")
	}
}

func TestSpanAccumulator(t *testing.T) {
	a := NewSpanAccumulator(2, 64) // 128 bits
	a.SettleTo(10)
	a.AddSpan(64, 5) // one register live 5 of 10 cycles
	if got, want := a.AVF(), 64.0*5/(128*10); got != want {
		t.Fatalf("AVF %v want %v", got, want)
	}
	a.ResetStatsAt(10)
	if a.AVF() != 0 {
		t.Fatal("reset failed")
	}
}

func TestBitHelpers(t *testing.T) {
	if IQBits(true, true) != 0 || ROBBits(true, true) != 0 {
		t.Fatal("wrong-path entries must contribute no ACE bits")
	}
	if IQBits(false, true) != IQACEBitsACE || IQBits(false, false) != IQACEBitsUnACE {
		t.Fatal("IQ bit split wrong")
	}
	if ROBBits(false, true) != ROBACEBitsACE || ROBBits(false, false) != ROBACEBitsUnACE {
		t.Fatal("ROB bit split wrong")
	}
	if IQACEBitsACE <= IQACEBitsUnACE || IQACEBitsACE > IQEntryBits {
		t.Fatal("IQ bit constants inconsistent")
	}
	if ROBACEBitsACE <= ROBACEBitsUnACE || ROBACEBitsACE > ROBEntryBits {
		t.Fatal("ROB bit constants inconsistent")
	}
}

// Property: AVF is always within [0, 1] for arbitrary add/sub/advance
// schedules that never exceed capacity.
func TestQuickAVFBounded(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewAccumulator(2, 64) // 128 bits
		cur, now := uint64(0), uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if cur+16 <= 128 {
					a.AddAt(16, now)
					cur += 16
				}
			case 1:
				if cur >= 16 {
					a.SubAt(16, now)
					cur -= 16
				}
			default:
				now++
			}
		}
		a.SettleTo(now)
		v := a.AVF()
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
