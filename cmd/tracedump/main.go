// Command tracedump inspects visasim traces.
//
// Subcommands:
//
//	tracedump ace    -benchmark mcf -skip 1000 -n 40
//	    print a window of a benchmark's committed instruction stream with
//	    its ground-truth ACE classification and per-PC tag
//	tracedump show   -in cell.ndjson.gz [-measured]
//	    pretty-print a recorded decision trace
//	tracedump diff   a.ndjson.gz b.ndjson.gz
//	    compare two decision traces: event divergence and summary deltas
//	tracedump replay -in cell.ndjson.gz [-counterfactual-k K] [-out alt.ndjson.gz]
//	    re-run the recorded cell, untouched (K=0, byte-identical) or with
//	    the first K decisions flipped, and report the AVF/IPC diff
//
// Decision traces are gzip'd NDJSON (a header line, one line per event, a
// summary line), so `zcat cell.ndjson.gz` prints the raw records.
//
// Bare flags (no subcommand) keep their historical meaning: `tracedump
// -benchmark mcf` is `tracedump ace -benchmark mcf`.
package main

import (
	"fmt"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	cmd := "ace"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "ace":
		cmdACE(args)
	case "show":
		cmdShow(args)
	case "diff":
		cmdDiff(args)
	case "replay":
		cmdReplay(args)
	default:
		fmt.Fprintf(os.Stderr, "tracedump: unknown subcommand %q (want ace, show, diff or replay)\n", cmd)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}
