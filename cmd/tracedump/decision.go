package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"

	"visasim/internal/decision"
	"visasim/internal/replay"
)

// readInput reads a subcommand's trace file: the -in flag or a single
// positional argument.
func readInput(fs *flag.FlagSet, in, sub string) (*decision.Trace, error) {
	switch {
	case in != "" && fs.NArg() == 0:
	case in == "" && fs.NArg() == 1:
		in = fs.Arg(0)
	default:
		return nil, usageError{fmt.Errorf("%s: want one trace file (-in FILE or a positional argument)", sub)}
	}
	return decision.ReadFile(in)
}

// cmdShow pretty-prints a recorded decision trace.
func cmdShow(fs *flag.FlagSet) func(io.Writer) error {
	var (
		in       = fs.String("in", "", "decision trace file (.ndjson.gz)")
		measured = fs.Bool("measured", false, "only events in the measured region (after warmup)")
	)
	return func(w io.Writer) error {
		tr, err := readInput(fs, *in, "show")
		if err != nil {
			return err
		}
		if *measured {
			tr.Events = tr.EventsFrom(tr.MeasureStart)
		}
		printTrace(w, tr)
		return nil
	}
}

func printTrace(w io.Writer, tr *decision.Trace) {
	fmt.Fprintf(w, "cell            %s\n", orDash(tr.CellKey))
	fmt.Fprintf(w, "scheme/policy   %s / %s  (controller %s)\n", tr.Scheme, tr.Policy, orDash(tr.Controller))
	fmt.Fprintf(w, "config hash     %s\n", orDash(tr.ConfigHash))
	fmt.Fprintf(w, "trace level     %d   measure start cycle %d\n", tr.Level, tr.MeasureStart)
	fmt.Fprintf(w, "events          %d\n\n", len(tr.Events))
	fmt.Fprintf(w, "%-10s %-14s %-3s %-5s %-22s %-24s %s\n",
		"cycle", "kind", "fcd", "ivl", "iq(r/w)", "action", "avf(sample/interval)")
	for _, ev := range tr.Events {
		forced := ""
		if ev.Forced {
			forced = "F"
		}
		fmt.Fprintf(w, "%-10d %-14s %-3s %-5d %-22s %-24s %.4f / %.4f\n",
			ev.Cycle, ev.Kind, forced, ev.Inputs.IntervalIndex,
			fmt.Sprintf("%d (%d/%d)", ev.Inputs.IQLen, ev.Inputs.ReadyLen, ev.Inputs.WaitingLen),
			fmtAction(ev.Action),
			ev.Inputs.SampleAVF, ev.Inputs.IntervalAVF)
	}
	s := tr.Summary
	fmt.Fprintf(w, "\nsummary: %d cycles, %d commits, IPC %.3f, IQ AVF %.4f (max %.4f), ROB AVF %.4f, %d switches, %d triggers\n",
		s.Cycles, s.Commits, s.ThroughputIPC, s.IQAVF, s.MaxIQAVF, s.ROBAVF, s.PolicySwitches, s.DVMTriggers)
}

func fmtAction(a decision.Action) string {
	flush := "icount"
	if a.UseFlush {
		flush = "flush"
	}
	return fmt.Sprintf("iql=%d wq=%d %s gate=%08b", a.IQLCap, a.WaitingCap, flush, a.GateMask)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// cmdDiff compares two decision traces: where the event streams diverge and
// how the run summaries differ.
func cmdDiff(fs *flag.FlagSet) func(io.Writer) error {
	return func(w io.Writer) error {
		if fs.NArg() != 2 {
			return usageError{fmt.Errorf("diff: want exactly two trace files, got %d", fs.NArg())}
		}
		a, err := decision.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := decision.ReadFile(fs.Arg(1))
		if err != nil {
			return err
		}

		if a.ConfigHash != b.ConfigHash {
			fmt.Fprintf(w, "config hash     %s vs %s (different cells)\n", orDash(a.ConfigHash), orDash(b.ConfigHash))
		}
		fmt.Fprintf(w, "events          %d vs %d\n", len(a.Events), len(b.Events))
		div := -1
		n := min(len(a.Events), len(b.Events))
		for i := 0; i < n; i++ {
			if a.Events[i] != b.Events[i] {
				div = i
				break
			}
		}
		switch {
		case div >= 0:
			fmt.Fprintf(w, "first diverging event: #%d\n  %s: cycle %d %s %s\n  %s: cycle %d %s %s\n",
				div,
				fs.Arg(0), a.Events[div].Cycle, a.Events[div].Kind, fmtAction(a.Events[div].Action),
				fs.Arg(1), b.Events[div].Cycle, b.Events[div].Kind, fmtAction(b.Events[div].Action))
		case len(a.Events) != len(b.Events):
			fmt.Fprintf(w, "event streams agree for %d events, then one trace ends\n", n)
		default:
			fmt.Fprintf(w, "event streams identical\n")
		}

		d := replay.SummaryDiff(a.Summary, b.Summary)
		if d.Zero() {
			fmt.Fprintf(w, "summaries identical\n")
			return nil
		}
		fmt.Fprintf(w, "summary deltas (%s − %s):\n", fs.Arg(1), fs.Arg(0))
		printDiff(w, d)
		return nil
	}
}

func printDiff(w io.Writer, d replay.Diff) {
	fmt.Fprintf(w, "  cycles          %+d\n", d.DCycles)
	fmt.Fprintf(w, "  commits         %+d\n", d.DCommits)
	fmt.Fprintf(w, "  throughput IPC  %+.4f\n", d.DThroughputIPC)
	fmt.Fprintf(w, "  IQ AVF          %+.4f   (max interval %+.4f)\n", d.DIQAVF, d.DMaxIQAVF)
	fmt.Fprintf(w, "  ROB AVF         %+.4f\n", d.DROBAVF)
	fmt.Fprintf(w, "  policy switches %+d   dvm triggers %+d\n", d.DPolicySwitches, d.DDVMTriggers)
}

// cmdReplay re-runs the cell recorded in a trace — untouched or with the
// first K decisions flipped — and reports the outcome.
func cmdReplay(fs *flag.FlagSet) func(io.Writer) error {
	var (
		in      = fs.String("in", "", "decision trace file (.ndjson.gz)")
		k       = fs.Int("counterfactual-k", 0, "flip the first K recorded decisions (0 = untouched replay)")
		out     = fs.String("out", "", "write the replay's trace here (.ndjson.gz)")
		jsonOut = fs.Bool("json", false, "emit the outcome as JSON")
	)
	return func(w io.Writer) error {
		if *k < 0 {
			return usageError{fmt.Errorf("replay: -counterfactual-k %d is negative", *k)}
		}
		tr, err := readInput(fs, *in, "replay")
		if err != nil {
			return err
		}

		if *k == 0 {
			_, alt, err := replay.Replay(tr, nil)
			if err != nil {
				return err
			}
			if d := replay.SummaryDiff(tr.Summary, alt.Summary); !d.Zero() {
				fmt.Fprintf(w, "untouched replay DIVERGED from the recorded run:\n")
				printDiff(w, d)
				return errors.New("replay: untouched replay diverged")
			}
			fmt.Fprintf(w, "untouched replay reproduced the recorded run (%d events, %d cycles)\n",
				len(alt.Events), alt.Summary.Cycles)
			if *out != "" {
				return decision.WriteFile(*out, alt)
			}
			return nil
		}

		outc, err := replay.Counterfactual(tr, *k)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := decision.WriteFile(*out, outc.Trace); err != nil {
				return err
			}
		}
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(outc)
		}
		fmt.Fprintf(w, "counterfactual replay: %d forced decision(s)\n", len(outc.Forced))
		for i, f := range outc.Forced {
			until := fmt.Sprintf("%d", f.Until)
			if f.Until == decision.Forever {
				until = "end"
			}
			fmt.Fprintf(w, "  force %d: cycles [%d, %s) mask %#x %s\n", i, f.From, until, f.Mask, fmtAction(f.Action))
		}
		fmt.Fprintf(w, "deltas (alternative − recorded):\n")
		printDiff(w, outc.Diff)
		return nil
	}
}
