// Command tracedump inspects offline ACE profiles and decision traces.
//
// Subcommands:
//
//	tracedump profile -benchmark mcf -n 1000000 [-top 10]
//	    report a benchmark's offline vulnerability profile (§2.1): ACE
//	    fraction, per-PC tag accuracy, late marks, one row per instruction
//	    kind and the K ACE-tagged PCs with the most un-ACE instances
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
// Decision traces are gzip'd NDJSON, so `zcat cell.ndjson.gz` prints the
// raw records. A command line that cannot run as given exits 2; a failed
// run, a diverging untouched replay included, exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommands maps each name to a function that declares the subcommand's
// flags on fs and returns its body, which runs once fs has parsed the
// command line and reads its positional arguments from fs.
var subcommands = map[string]func(fs *flag.FlagSet) func(stdout io.Writer) error{
	"profile": cmdProfile,
	"ace":     cmdACE,
	"show":    cmdShow,
	"diff":    cmdDiff,
	"replay":  cmdReplay,
}

// usageError is a command line that cannot run as given; it exits 2.
type usageError struct{ error }

// run is the whole command: it dispatches to the subcommand named by
// args[0] and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: tracedump profile|ace|show|diff|replay [flags]")
		return 2
	}
	fs := flag.NewFlagSet("tracedump "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := subcommands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := body(stdout); err != nil {
		fmt.Fprintln(stderr, "tracedump:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}
