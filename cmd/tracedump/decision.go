package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"visasim/internal/decision"
	"visasim/internal/replay"
)

// inputPath resolves a subcommand's trace file: the -in flag or a single
// positional argument.
func inputPath(fs *flag.FlagSet, in, sub string) string {
	switch {
	case in != "" && fs.NArg() == 0:
		return in
	case in == "" && fs.NArg() == 1:
		return fs.Arg(0)
	default:
		fatal(fmt.Errorf("%s: want one trace file (-in FILE or a positional argument)", sub))
		panic("unreachable")
	}
}

// cmdShow pretty-prints a recorded decision trace.
func cmdShow(args []string) {
	fs := flag.NewFlagSet("tracedump show", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "decision trace file (.ndjson.gz)")
		measured = fs.Bool("measured", false, "only events in the measured region (after warmup)")
	)
	fs.Parse(args)
	tr, err := decision.ReadFile(inputPath(fs, *in, "show"))
	if err != nil {
		fatal(err)
	}
	if *measured {
		tr.Events = tr.EventsFrom(tr.MeasureStart)
	}
	printTrace(tr)
}

func printTrace(tr *decision.Trace) {
	fmt.Printf("cell            %s\n", orDash(tr.CellKey))
	fmt.Printf("scheme/policy   %s / %s  (controller %s)\n", tr.Scheme, tr.Policy, orDash(tr.Controller))
	fmt.Printf("config hash     %s\n", orDash(tr.ConfigHash))
	fmt.Printf("trace level     %d   measure start cycle %d\n", tr.Level, tr.MeasureStart)
	fmt.Printf("events          %d\n\n", len(tr.Events))
	fmt.Printf("%-10s %-14s %-3s %-5s %-22s %-24s %s\n",
		"cycle", "kind", "fcd", "ivl", "iq(r/w)", "action", "avf(sample/interval)")
	for _, ev := range tr.Events {
		forced := ""
		if ev.Forced {
			forced = "F"
		}
		fmt.Printf("%-10d %-14s %-3s %-5d %-22s %-24s %.4f / %.4f\n",
			ev.Cycle, ev.Kind, forced, ev.Inputs.IntervalIndex,
			fmt.Sprintf("%d (%d/%d)", ev.Inputs.IQLen, ev.Inputs.ReadyLen, ev.Inputs.WaitingLen),
			fmtAction(ev.Action),
			ev.Inputs.SampleAVF, ev.Inputs.IntervalAVF)
	}
	s := tr.Summary
	fmt.Printf("\nsummary: %d cycles, %d commits, IPC %.3f, IQ AVF %.4f (max %.4f), ROB AVF %.4f, %d switches, %d triggers\n",
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
func cmdDiff(args []string) {
	fs := flag.NewFlagSet("tracedump diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("diff: want exactly two trace files, got %d", fs.NArg()))
	}
	a, err := decision.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := decision.ReadFile(fs.Arg(1))
	if err != nil {
		fatal(err)
	}

	if a.ConfigHash != b.ConfigHash {
		fmt.Printf("config hash     %s vs %s (different cells)\n", orDash(a.ConfigHash), orDash(b.ConfigHash))
	}
	fmt.Printf("events          %d vs %d\n", len(a.Events), len(b.Events))
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
		fmt.Printf("first diverging event: #%d\n  %s: cycle %d %s %s\n  %s: cycle %d %s %s\n",
			div,
			fs.Arg(0), a.Events[div].Cycle, a.Events[div].Kind, fmtAction(a.Events[div].Action),
			fs.Arg(1), b.Events[div].Cycle, b.Events[div].Kind, fmtAction(b.Events[div].Action))
	case len(a.Events) != len(b.Events):
		fmt.Printf("event streams agree for %d events, then one trace ends\n", n)
	default:
		fmt.Printf("event streams identical\n")
	}

	d := replay.SummaryDiff(a.Summary, b.Summary)
	if d.Zero() {
		fmt.Printf("summaries identical\n")
		return
	}
	fmt.Printf("summary deltas (%s − %s):\n", fs.Arg(1), fs.Arg(0))
	printDiff(d)
}

func printDiff(d replay.Diff) {
	fmt.Printf("  cycles          %+d\n", d.DCycles)
	fmt.Printf("  commits         %+d\n", d.DCommits)
	fmt.Printf("  throughput IPC  %+.4f\n", d.DThroughputIPC)
	fmt.Printf("  IQ AVF          %+.4f   (max interval %+.4f)\n", d.DIQAVF, d.DMaxIQAVF)
	fmt.Printf("  ROB AVF         %+.4f\n", d.DROBAVF)
	fmt.Printf("  policy switches %+d   dvm triggers %+d\n", d.DPolicySwitches, d.DDVMTriggers)
}

// cmdReplay re-runs the cell recorded in a trace — untouched or with the
// first K decisions flipped — and reports the outcome.
func cmdReplay(args []string) {
	fs := flag.NewFlagSet("tracedump replay", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "decision trace file (.ndjson.gz)")
		k       = fs.Int("counterfactual-k", 0, "flip the first K recorded decisions (0 = untouched replay)")
		out     = fs.String("out", "", "write the replay's trace here (.ndjson.gz)")
		jsonOut = fs.Bool("json", false, "emit the outcome as JSON")
	)
	fs.Parse(args)
	tr, err := decision.ReadFile(inputPath(fs, *in, "replay"))
	if err != nil {
		fatal(err)
	}

	if *k <= 0 {
		_, alt, err := replay.Replay(tr, nil)
		if err != nil {
			fatal(err)
		}
		d := replay.SummaryDiff(tr.Summary, alt.Summary)
		if !d.Zero() {
			fmt.Printf("untouched replay DIVERGED from the recorded run:\n")
			printDiff(d)
			os.Exit(1)
		}
		fmt.Printf("untouched replay reproduced the recorded run (%d events, %d cycles)\n",
			len(alt.Events), alt.Summary.Cycles)
		if *out != "" {
			if err := decision.WriteFile(*out, alt); err != nil {
				fatal(err)
			}
		}
		return
	}

	outc, err := replay.Counterfactual(tr, *k)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := decision.WriteFile(*out, outc.Trace); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outc); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("counterfactual replay: %d forced decision(s)\n", len(outc.Forced))
	for i, f := range outc.Forced {
		until := fmt.Sprintf("%d", f.Until)
		if f.Until == decision.Forever {
			until = "end"
		}
		fmt.Printf("  force %d: cycles [%d, %s) mask %#x %s\n", i, f.From, until, f.Mask, fmtAction(f.Action))
	}
	fmt.Printf("deltas (alternative − recorded):\n")
	printDiff(outc.Diff)
}
