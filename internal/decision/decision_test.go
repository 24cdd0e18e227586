package decision

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testTrace builds a fully populated trace exercising every field the codec
// carries, including zero-delta (same-cycle) events.
func testTrace() *Trace {
	return &Trace{
		Controller:   "dvm",
		Scheme:       "dvm",
		Policy:       "ICOUNT",
		CellKey:      "MEM-A/dvm/ICOUNT",
		ConfigHash:   "deadbeef",
		ConfigJSON:   []byte(`{"Benchmarks":["mcf"]}`),
		Level:        2,
		MeasureStart: 7000,
		Events: []Event{
			{Cycle: 100, Kind: KindIQLCap,
				Inputs: Inputs{IntervalIndex: 1, PrevIPC: 3.5, PrevMeanReadyLen: 11.25, PrevL2Misses: 4, IQLen: 40, ReadyLen: 12, WaitingLen: 28},
				Action: Action{IQLCap: 48, WaitingCap: -1}},
			{Cycle: 100, Kind: KindGate,
				Inputs: Inputs{IntervalIndex: 1, SampleIndex: 5, SampleAVF: 0.41, IntervalAVF: 0.39},
				Action: Action{IQLCap: -1, WaitingCap: 12, GateMask: 0b0101}},
			{Cycle: 350, Kind: KindPolicySwitch, Forced: true,
				Inputs: Inputs{IntervalIndex: 2, PrevL2Misses: 40},
				Action: Action{IQLCap: -1, WaitingCap: -1, UseFlush: true}},
			{Cycle: 9999, Kind: KindDVMTrigger,
				Inputs: Inputs{SampleIndex: 9, SampleAVF: 0.9, IntervalAVF: 0.7, ReadyLen: 3},
				Action: Action{IQLCap: -1, WaitingCap: 6}},
		},
		Summary: Summary{Cycles: 20000, Commits: 60000, ThroughputIPC: 3.0,
			IQAVF: 0.21, ROBAVF: 0.11, MaxIQAVF: 0.44, PolicySwitches: 1, DVMTriggers: 1},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := testTrace()
	var buf bytes.Buffer
	if err := want.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", got, want)
	}

	// The file form: gzip'd NDJSON, byte-deterministic.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ndjson.gz"), filepath.Join(dir, "b.ndjson.gz")
	if err := WriteFile(a, want); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadFile(a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file round trip changed the trace:\n got %+v\nwant %+v", got, want)
	}
	if err := WriteFile(b, got); err != nil {
		t.Fatal(err)
	}
	blobA, _ := os.ReadFile(a)
	blobB, _ := os.ReadFile(b)
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("writing an identical trace produced a different file")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	var good bytes.Buffer
	if err := testTrace().WriteNDJSON(&good); err != nil {
		t.Fatal(err)
	}
	g := good.String()
	lines := strings.SplitAfter(g, "\n")
	cases := map[string]string{
		"empty":              "",
		"gzip bytes":         "\x1f\x8b\x08\x00",
		"truncated":          g[:len(g)/2],
		"header only":        lines[0],
		"no summary":         strings.Join(lines[:len(lines)-2], ""),
		"count too high":     strings.Replace(g, `"events":4`, `"events":5`, 1),
		"count too low":      strings.Replace(g, `"events":4`, `"events":3`, 1),
		"negative count":     strings.Replace(g, `"events":4`, `"events":-1`, 1),
		"unknown kind":       strings.Replace(g, `"kind":"gate"`, `"kind":"gates"`, 1),
		"unknown field":      strings.Replace(g, `"forced":true`, `"forced":true,"extra":1`, 1),
		"wrong first line":   strings.Replace(g, `"type":"header"`, `"type":"summary"`, 1),
		"trailing line":      g + lines[1],
		"trailing garbage":   g + "x",
		"NaN":                strings.Replace(g, `"prev_ipc":3.5`, `"prev_ipc":NaN`, 1),
		"Inf":                strings.Replace(g, `"prev_ipc":3.5`, `"prev_ipc":Infinity`, 1),
		"cycle out of order": strings.Replace(g, `"cycle":350`, `"cycle":50`, 1),
		"int overflow":       strings.Replace(g, `"iq_len":40`, `"iq_len":4000000000`, 1),
	}
	for name, data := range cases {
		if data == g {
			t.Fatalf("%s: the mutation did not apply", name)
		}
		if _, err := ReadNDJSON(strings.NewReader(data)); err == nil {
			t.Errorf("%s: ReadNDJSON accepted corrupt input", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}

	// A trace file must be gzip'd.
	path := filepath.Join(t.TempDir(), "plain.ndjson.gz")
	if err := os.WriteFile(path, good.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFile of a plain NDJSON file: %v, want ErrCorrupt", err)
	}
}

func TestEncodeRejectsUnorderedEvents(t *testing.T) {
	tr := testTrace()
	tr.Events[0].Cycle, tr.Events[1].Cycle = 500, 100
	if err := tr.WriteNDJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteNDJSON accepted events out of cycle order")
	}
}

func TestNDJSONShape(t *testing.T) {
	var buf bytes.Buffer
	tr := testTrace()
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := len(tr.Events) + 2; len(lines) != want {
		t.Fatalf("%d NDJSON lines, want %d (header + events + summary)", len(lines), want)
	}
	if !strings.Contains(lines[0], `"type":"header"`) {
		t.Errorf("first line is not a header: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"kind":"iql-cap"`) {
		t.Errorf("event line missing kind name: %s", lines[1])
	}
	if !strings.Contains(lines[len(lines)-1], `"type":"summary"`) {
		t.Errorf("last line is not a summary: %s", lines[len(lines)-1])
	}
	// Determinism: identical traces render identical NDJSON.
	var buf2 bytes.Buffer
	if err := testTrace().WriteNDJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("NDJSON output is not deterministic")
	}
}

func TestScheduleOverrides(t *testing.T) {
	s := Schedule{
		{From: 100, Until: 200, Mask: ForceUseFlush, Action: Action{UseFlush: true}},
		{From: 150, Until: 160, Mask: ForceWaitingCap, Action: Action{WaitingCap: 5}},
	}
	if _, _, any := s.OverridesAt(99); any {
		t.Fatal("override before window")
	}
	if _, _, any := s.OverridesAt(200); any {
		t.Fatal("override at exclusive end")
	}
	act, mask, any := s.OverridesAt(155)
	if !any || mask != ForceUseFlush|ForceWaitingCap || !act.UseFlush || act.WaitingCap != 5 {
		t.Fatalf("merged override wrong: act=%+v mask=%#x any=%v", act, mask, any)
	}
	act, mask, _ = s.OverridesAt(199)
	if mask != ForceUseFlush || !act.UseFlush {
		t.Fatalf("single override wrong: act=%+v mask=%#x", act, mask)
	}
}

func TestScheduleNormalizeOrdersByFrom(t *testing.T) {
	s := Schedule{{From: 500}, {From: 10}, {From: 200}}
	s.Normalize()
	for i := 1; i < len(s); i++ {
		if s[i-1].From > s[i].From {
			t.Fatalf("schedule not sorted: %v", s)
		}
	}
}

func TestAlternativeFlips(t *testing.T) {
	cases := []struct {
		ev   Event
		mask uint8
		want Action
	}{
		{Event{Kind: KindPolicySwitch, Action: Action{UseFlush: true}}, ForceUseFlush, Action{UseFlush: false}},
		{Event{Kind: KindPolicySwitch, Action: Action{UseFlush: false}}, ForceUseFlush, Action{UseFlush: true}},
		{Event{Kind: KindDVMTrigger, Action: Action{WaitingCap: 12}}, ForceWaitingCap, Action{WaitingCap: -1}},
		{Event{Kind: KindDVMRelease, Action: Action{WaitingCap: -1}}, ForceWaitingCap, Action{WaitingCap: 1}},
		{Event{Kind: KindIQLCap, Action: Action{IQLCap: 32}}, ForceIQLCap, Action{IQLCap: -1}},
		{Event{Kind: KindGate, Action: Action{GateMask: 0b11}}, ForceGates, Action{GateMask: 0}},
	}
	for i, c := range cases {
		c.ev.Cycle = 42
		f, ok := Alternative(c.ev, 100)
		if !ok {
			t.Fatalf("case %d: no alternative", i)
		}
		if f.From != 42 || f.Until != 100 || f.Mask != c.mask || f.Action != c.want {
			t.Errorf("case %d (%v): force %+v, want mask %#x action %+v", i, c.ev.Kind, f, c.mask, c.want)
		}
	}
	if _, ok := Alternative(Event{Kind: KindSample}, 100); ok {
		t.Fatal("sample events must have no alternative")
	}
}

func TestEventsFrom(t *testing.T) {
	tr := testTrace()
	if got := tr.EventsFrom(0); len(got) != len(tr.Events) {
		t.Fatalf("EventsFrom(0) returned %d events", len(got))
	}
	if got := tr.EventsFrom(101); len(got) != 2 || got[0].Cycle != 350 {
		t.Fatalf("EventsFrom(101) wrong: %+v", got)
	}
	if got := tr.EventsFrom(10_000); got != nil {
		t.Fatalf("EventsFrom past end returned %+v", got)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if !k.Valid() || strings.Contains(k.String(), "?") {
			t.Errorf("kind %d invalid or unnamed", k)
		}
	}
	if numKinds.Valid() || Kind(200).Valid() {
		t.Fatal("out-of-range kind reported valid")
	}
}
