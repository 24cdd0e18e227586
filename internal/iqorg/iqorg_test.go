package iqorg

import (
	"math"
	"testing"

	"visasim/internal/config"
	"visasim/internal/isa"
	"visasim/internal/trace"
	"visasim/internal/uarch"
)

func mkUop(age uint64, thread int32) *uarch.Uop {
	in := &isa.Inst{Kind: isa.IntALU, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	return &uarch.Uop{
		Dyn:     trace.DynInst{Static: in},
		Thread:  thread,
		Age:     age,
		IQSlot:  -1,
		LSQSlot: -1,
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != UnifiedAGE {
		t.Errorf("empty spelling must parse to UnifiedAGE, got %v, %v", k, err)
	}
	if _, err := ParseKind("ring"); err == nil {
		t.Error("unknown organization must not parse")
	}
	if len(Kinds()) != numKinds {
		t.Errorf("Kinds() lists %d of %d kinds", len(Kinds()), numKinds)
	}
}

func TestParseProtectionRoundTrip(t *testing.T) {
	for _, p := range Protections() {
		got, err := ParseProtection(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtection(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParseProtection(""); err != nil || p != None {
		t.Errorf("empty spelling must parse to None, got %v, %v", p, err)
	}
	if _, err := ParseProtection("tmr"); err == nil {
		t.Error("unknown protection must not parse")
	}
	if len(Protections()) != numProtections {
		t.Errorf("Protections() lists %d of %d modes", len(Protections()), numProtections)
	}
}

func TestProtectionCostModel(t *testing.T) {
	if c := None.Cost(); c != (ProtCost{}) {
		t.Errorf("None must cost nothing, got %+v", c)
	}
	for _, p := range []Protection{Parity, ECC, PartialReplication} {
		c := p.Cost()
		if c.Mitigation <= 0 || c.Mitigation >= 1 {
			t.Errorf("%s mitigation %v out of (0,1)", p, c.Mitigation)
		}
		if c.AreaPerEntry <= 0 {
			t.Errorf("%s must cost area", p)
		}
		if s := p.AVFScale(); s != 1-c.Mitigation {
			t.Errorf("%s AVFScale %v != 1-mitigation", p, s)
		}
	}
	// The modes must present a real tradeoff: ECC mitigates the most and is
	// the only mode taxing the wakeup path; replication burns the most area.
	if !(ECC.Cost().Mitigation > PartialReplication.Cost().Mitigation &&
		PartialReplication.Cost().Mitigation > Parity.Cost().Mitigation) {
		t.Error("mitigation order must be ecc > partial-replication > parity")
	}
	if !(PartialReplication.Cost().AreaPerEntry > ECC.Cost().AreaPerEntry &&
		ECC.Cost().AreaPerEntry > Parity.Cost().AreaPerEntry) {
		t.Error("area order must be partial-replication > ecc > parity")
	}
	if ECC.Cost().WakeupLatency != 1 || Parity.Cost().WakeupLatency != 0 {
		t.Error("only ECC taxes the wakeup path")
	}
	if a := ECC.AreaCost(96); math.Abs(a-76.8) > 1e-9 {
		t.Errorf("ECC area for 96 entries = %v, want 76.8", a)
	}
	if a := None.AreaCost(96); a != 0 {
		t.Errorf("None area must be 0, got %v", a)
	}
}

func TestNewSelectsOrganization(t *testing.T) {
	for _, tc := range []struct {
		org  string
		want Kind
	}{
		{"", UnifiedAGE},
		{config.OrgUnifiedAGE, UnifiedAGE},
		{config.OrgSWQUE, SWQUE},
		{config.OrgPartitioned, Partitioned},
	} {
		m := config.Default()
		m.IQOrg = tc.org
		o, err := New(m)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.org, err)
		}
		if o.Kind() != tc.want {
			t.Errorf("New(%q).Kind() = %v, want %v", tc.org, o.Kind(), tc.want)
		}
		if o.Queue().Size() != m.IQSize {
			t.Errorf("New(%q) queue size %d, want %d", tc.org, o.Queue().Size(), m.IQSize)
		}
	}
	m := config.Default()
	m.IQOrg = "bogus"
	if _, err := New(m); err == nil {
		t.Error("New must reject unknown organizations")
	}
}

// TestUnifiedDelegates pins that the baseline organization is a transparent
// wrapper: same census, same candidate set and order as the bare queue.
func TestUnifiedDelegates(t *testing.T) {
	o := NewUnified(uarch.NewIQ(8))
	var uops []*uarch.Uop
	for i := 0; i < 4; i++ {
		u := mkUop(uint64(i), int32(i%2))
		u.SrcPending = 1
		o.Insert(u)
		uops = append(uops, u)
	}
	if c := o.Census(); c.Waiting != 4 || c.Ready != 0 {
		t.Fatalf("census %+v after 4 waiting inserts", c)
	}
	for _, u := range uops {
		u.SrcPending = 0
		o.Wake(u)
	}
	cands := o.Select(uarch.SchedOldestFirst)
	if len(cands) != 4 {
		t.Fatalf("got %d candidates, want 4", len(cands))
	}
	for i, slot := range cands {
		u := o.Queue().At(int(slot))
		if u == nil || u.Age != uint64(i) {
			t.Fatalf("candidates not age-ordered at position %d: %+v", i, u)
		}
	}
	if !o.CanAccept(0) || !o.CanAccept(7) {
		t.Error("unified admission must be unconditional")
	}
	o.Remove(uops[0])
	if o.Queue().Len() != 3 {
		t.Error("remove must delegate")
	}
}

// TestSWQUEModes pins the mode machine: starts circular with 3/4 capacity and
// strict oldest-first selection, switches to AGE after a high-occupancy
// window, and back after a quiet one.
func TestSWQUEModes(t *testing.T) {
	o := NewSWQUEOrg(uarch.NewIQ(8)) // circCap = 6
	if !o.CircularMode() {
		t.Fatal("must start in circular mode")
	}
	var uops []*uarch.Uop
	for i := 0; i < 6; i++ {
		u := mkUop(uint64(i), 0)
		u.ACETag = i%2 == 0
		o.Insert(u)
		uops = append(uops, u)
	}
	if o.CanAccept(0) {
		t.Fatal("circular mode must refuse dispatch at 3/4 occupancy")
	}
	// Circular mode ignores VISA's ACE-tag partitioning: candidates stay in
	// pure age order even though tagged and untagged uops interleave.
	cands := o.Select(uarch.SchedVISA)
	for i, slot := range cands {
		if u := o.Queue().At(int(slot)); u.Age != uint64(i) {
			t.Fatalf("circular VISA select reordered: age %d at %d", u.Age, i)
		}
	}
	// A window that saw occupancy at circCap switches to AGE mode.
	o.EndCycle(swqueWindow - 1)
	if o.CircularMode() {
		t.Fatal("high-occupancy window must switch to AGE mode")
	}
	if !o.CanAccept(0) {
		t.Fatal("AGE mode admits up to full occupancy")
	}
	age := o.Select(uarch.SchedVISA)
	if len(age) != 6 ||
		!o.Queue().At(int(age[0])).ACETag ||
		o.Queue().At(int(age[len(age)-1])).ACETag {
		t.Fatal("AGE mode must honour VISA partitioning (ACE-tagged first)")
	}
	// Drain and run a quiet window: back to circular.
	for _, u := range uops {
		o.Remove(u)
	}
	for c := uint64(swqueWindow); c < 2*swqueWindow; c++ {
		o.EndCycle(c)
	}
	if !o.CircularMode() {
		t.Fatal("quiet window must switch back to circular mode")
	}
	if o.Switches() != 2 {
		t.Fatalf("switch count %d, want 2", o.Switches())
	}
}

// TestPartitionedWatermark pins per-thread admission and the SMTcheck
// defaults.
func TestPartitionedWatermark(t *testing.T) {
	o := NewPartitioned(uarch.NewIQ(70), 0)
	if o.Watermark() != config.DefaultWatermark {
		t.Fatalf("default watermark %d, want %d", o.Watermark(), config.DefaultWatermark)
	}
	small := NewPartitioned(uarch.NewIQ(8), 0)
	if small.Watermark() != 8 {
		t.Fatalf("watermark must clamp to queue size, got %d", small.Watermark())
	}

	o = NewPartitioned(uarch.NewIQ(16), 3)
	age := uint64(0)
	for i := 0; i < 3; i++ {
		if !o.CanAccept(1) {
			t.Fatalf("thread 1 refused below watermark at %d entries", i)
		}
		o.Insert(mkUop(age, 1))
		age++
	}
	if o.CanAccept(1) {
		t.Fatal("thread 1 must be refused at its watermark")
	}
	if !o.CanAccept(0) {
		t.Fatal("other threads must stay admissible")
	}
	u := mkUop(age, 0)
	o.Insert(u)
	o.Remove(u)
	if !o.CanAccept(0) {
		t.Fatal("thread 0 admissible after its entry drains")
	}
}
