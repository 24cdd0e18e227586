package isa

import (
	"strings"
	"testing"
	"unsafe"
)

func TestKindClassification(t *testing.T) {
	tests := []struct {
		k       Kind
		mem     bool
		control bool
		fp      bool
	}{
		{Nop, false, false, false},
		{IntALU, false, false, false},
		{IntMul, false, false, false},
		{IntDiv, false, false, false},
		{Load, true, false, false},
		{Store, true, false, false},
		{FPALU, false, false, true},
		{FPMul, false, false, true},
		{FPDiv, false, false, true},
		{Branch, false, true, false},
		{Jump, false, true, false},
		{Call, false, true, false},
		{Return, false, true, false},
	}
	for _, tt := range tests {
		if tt.k.IsMem() != tt.mem {
			t.Errorf("%v IsMem = %v", tt.k, tt.k.IsMem())
		}
		if tt.k.IsControl() != tt.control {
			t.Errorf("%v IsControl = %v", tt.k, tt.k.IsControl())
		}
		if tt.k.IsFP() != tt.fp {
			t.Errorf("%v IsFP = %v", tt.k, tt.k.IsFP())
		}
	}
}

func TestFUMapping(t *testing.T) {
	tests := []struct {
		k Kind
		c FUClass
	}{
		{IntALU, FUIntALU},
		{Nop, FUIntALU},
		{Branch, FUIntALU},
		{IntMul, FUIntMulDiv},
		{IntDiv, FUIntMulDiv},
		{Load, FULoadStore},
		{Store, FULoadStore},
		{FPALU, FUFPALU},
		{FPMul, FUFPMulDiv},
		{FPDiv, FUFPMulDiv},
	}
	for _, tt := range tests {
		if got := tt.k.FU(); got != tt.c {
			t.Errorf("%v FU = %v, want %v", tt.k, got, tt.c)
		}
	}
}

func TestLatencies(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.Latency() < 1 {
			t.Errorf("%v latency %d < 1", k, k.Latency())
		}
	}
	if IntDiv.Latency() <= IntMul.Latency() {
		t.Error("divide should be slower than multiply")
	}
	if FPDiv.Latency() <= FPMul.Latency() {
		t.Error("FP divide should be slower than FP multiply")
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); int(k) < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(Kind(200).String(), "kind(") {
		t.Error("out-of-range kind should render numerically")
	}
}

func TestRegProperties(t *testing.T) {
	if !RegZero.Valid() || RegZero.IsFP() {
		t.Error("zero register misclassified")
	}
	if !FPBase.IsFP() {
		t.Error("FPBase must be FP")
	}
	if RegNone.Valid() {
		t.Error("RegNone must be invalid")
	}
	if Reg(NumRegs).Valid() {
		t.Error("register beyond file must be invalid")
	}
	if got := Reg(5).String(); got != "r5" {
		t.Errorf("r5 renders %q", got)
	}
	if got := (FPBase + 3).String(); got != "f3" {
		t.Errorf("f3 renders %q", got)
	}
	if got := RegNone.String(); got != "-" {
		t.Errorf("RegNone renders %q", got)
	}
}

func TestInstHelpers(t *testing.T) {
	in := Inst{PC: 0x1000, Kind: IntALU, Dest: 5, Src1: 6, Src2: RegNone}
	if !in.HasDest() {
		t.Error("HasDest false for r5 dest")
	}
	if in.FallThrough() != 0x1004 {
		t.Errorf("fall-through %#x", in.FallThrough())
	}
	zero := Inst{Kind: IntALU, Dest: RegZero}
	if zero.HasDest() {
		t.Error("write to zero register counts as dest")
	}
	none := Inst{Kind: Store, Dest: RegNone}
	if none.HasDest() {
		t.Error("RegNone dest counts as dest")
	}
}

func TestInstString(t *testing.T) {
	in := Inst{PC: 0x2000, Kind: Branch, Dest: RegNone, Src1: 7, Src2: RegNone, Target: 0x2100}
	s := in.String()
	for _, want := range []string{"br", "r7", "0x00002100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestInstSize keeps the program image packed: every benchmark's image is
// resident for the life of a process, and fetch reads it every cycle.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 32 {
		t.Errorf("Inst is %d bytes, want at most 32", n)
	}
}
