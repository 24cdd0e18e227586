package replay

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/pipeline"
)

// Budget mirrors the root determinism suite: large enough for the control
// loops to act, small enough to keep the suite fast.
const budget = 12_000

func dvmConfig() core.Config {
	return core.Config{
		Benchmarks:      []string{"mcf", "equake", "vpr", "swim"},
		Scheme:          core.SchemeDVM,
		Policy:          pipeline.PolicyICOUNT,
		DVMTarget:       0.04,
		MaxInstructions: budget,
	}
}

func opt2Config() core.Config {
	return core.Config{
		Benchmarks:      []string{"mcf", "equake", "vpr", "swim"},
		Scheme:          core.SchemeVISAOpt2,
		Policy:          pipeline.PolicyFLUSH,
		MaxInstructions: budget,
	}
}

func encodeTrace(t *testing.T, tr *decision.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshalResult(t *testing.T, r *core.Result) []byte {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestUntouchedReplayByteIdentical is the core replay guarantee: replaying a
// recorded trace, read back from its trace file, with an empty forced
// schedule reproduces the original result and the original trace byte for
// byte.
func TestUntouchedReplayByteIdentical(t *testing.T) {
	for name, cfg := range map[string]core.Config{"dvm": dvmConfig(), "opt2": opt2Config()} {
		t.Run(name, func(t *testing.T) {
			baseRes, baseTr, err := Record(cfg, 1, "replay-test/"+name)
			if err != nil {
				t.Fatal(err)
			}
			if len(baseTr.Events) == 0 {
				t.Fatal("recorded trace is empty; cell exercises no decisions")
			}
			path := filepath.Join(t.TempDir(), name+".ndjson.gz")
			if err := decision.WriteFile(path, baseTr); err != nil {
				t.Fatal(err)
			}
			fileTr, err := decision.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			replayRes, replayTr, err := Replay(fileTr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalResult(t, baseRes), marshalResult(t, replayRes)) {
				t.Error("untouched replay changed the result")
			}
			if !bytes.Equal(encodeTrace(t, baseTr), encodeTrace(t, replayTr)) {
				t.Error("untouched replay changed the trace encoding")
			}
		})
	}
}

// TestCounterfactualProducesMeasurableDiff pins the acceptance criterion: a
// K=1 forced-alternative replay of a control-loop cell must move AVF/IPC.
func TestCounterfactualProducesMeasurableDiff(t *testing.T) {
	_, tr, err := Record(dvmConfig(), 1, "replay-test/dvm")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Counterfactual(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Forced) != 1 {
		t.Fatalf("K=1 schedule has %d forces", len(out.Forced))
	}
	if out.Diff.Zero() {
		t.Fatalf("counterfactual produced no measurable difference: %+v", out.Diff)
	}
	forced := 0
	for _, ev := range out.Trace.Events {
		if ev.Forced {
			forced++
		}
	}
	if forced == 0 {
		t.Error("alternative trace records no Forced events")
	}
}

// TestCounterfactualScheduleWindows checks the schedule construction: at
// most k forces, chained windows, last one open-ended.
func TestCounterfactualScheduleWindows(t *testing.T) {
	_, tr, err := Record(dvmConfig(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := CounterfactualSchedule(tr, 3)
	if len(sched) == 0 || len(sched) > 3 {
		t.Fatalf("schedule has %d forces, want 1..3", len(sched))
	}
	for i := 0; i < len(sched)-1; i++ {
		if sched[i].Until != sched[i+1].From {
			t.Errorf("force %d window [%d,%d) not chained to next start %d",
				i, sched[i].From, sched[i].Until, sched[i+1].From)
		}
	}
	if last := sched[len(sched)-1]; last.Until != decision.Forever {
		t.Errorf("last force ends at %d, want Forever", last.Until)
	}
}

// TestConfigFromTraceRejectsHashMismatch guards against replaying a trace
// recorded by an incompatible build.
func TestConfigFromTraceRejectsHashMismatch(t *testing.T) {
	_, tr, err := Record(opt2Config(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigFromTrace(tr); err != nil {
		t.Fatalf("genuine trace rejected: %v", err)
	}
	tr.ConfigHash = "0000000000000000000000000000000000000000000000000000000000000000"
	if _, err := ConfigFromTrace(tr); err == nil {
		t.Fatal("tampered config hash accepted")
	}
	tr.ConfigHash = ""
	tr.ConfigJSON = nil
	if _, err := ConfigFromTrace(tr); err == nil {
		t.Fatal("trace without configuration accepted")
	}
}
