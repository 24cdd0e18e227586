// Command visasim runs one SMT simulation: a workload (a Table 3 mix name
// or an explicit comma-separated benchmark list) under a reliability scheme
// and fetch policy, printing performance and vulnerability results.
//
// Examples:
//
//	visasim -mix CPU-A
//	visasim -benchmarks mcf,gcc,swim,perlbmk -scheme visa+opt2 -policy FLUSH
//	visasim -mix MEM-B -scheme dvm -dvm-target-frac 0.5 -n 400000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

func main() {
	var (
		mixName    = flag.String("mix", "", "Table 3 workload mix (CPU-A … MEM-C)")
		benchList  = flag.String("benchmarks", "", "comma-separated benchmark list (alternative to -mix)")
		schemeName = flag.String("scheme", "base", "reliability scheme: base, visa, visa+opt1, visa+opt2, dvm, dvm-static")
		polName    = flag.String("policy", "ICOUNT", "fetch policy: ICOUNT, STALL, FLUSH, DG, PDG")
		budget     = flag.Uint64("n", core.DefaultInstructions, "committed instructions to simulate (after warmup)")
		warmup     = flag.Int64("warmup", 0, "warmup instructions (0 = budget/4, negative disables)")
		targetFrac = flag.Float64("dvm-target-frac", 0.5, "DVM reliability target as a fraction of the baseline MaxIQ_AVF")
		ratio      = flag.Float64("dvm-static-ratio", 1.5, "wq_ratio for the static DVM variant")
		intervals  = flag.Bool("intervals", false, "print per-interval statistics")
		jsonOut    = flag.Bool("json", false, "emit the full result as JSON instead of text")
		cfgPath    = flag.String("config", "", "machine configuration JSON file (default: the paper's machine)")
		iqOrg      = flag.String("iq-org", "", "issue-queue organization: unified-age, swque, partitioned (default: unified-age)")
		iqWM       = flag.Int("iq-watermark", 0, "per-thread entry cap for -iq-org partitioned (0 = default 17)")
		iqProt     = flag.String("iq-protection", "", "issue-queue protection: none, parity, ecc, partial-replication (default: none)")
		traceLvl   = flag.Int("trace-level", 0, "record a decision trace: 0 off, 1 decision edges, 2 adds per-sample observations")
		traceOut   = flag.String("trace-out", "", "decision trace output file (gzip'd NDJSON; default decisions.ndjson.gz when -trace-level > 0)")
	)
	flag.Parse()

	benchmarks, err := resolveWorkload(*mixName, *benchList)
	if err != nil {
		fatal(err)
	}
	scheme, err := parseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	policy, err := parsePolicy(*polName)
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		Benchmarks:      benchmarks,
		Scheme:          scheme,
		Policy:          policy,
		MaxInstructions: *budget,
		Warmup:          *warmup,
		DVMStaticRatio:  *ratio,
	}
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		m, err := config.Parse(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *cfgPath, err))
		}
		cfg.Machine = &m
	}
	if *iqOrg != "" || *iqWM != 0 || *iqProt != "" {
		// Overlay the IQ axes on whatever machine -config selected.
		m := config.Default()
		if cfg.Machine != nil {
			m = *cfg.Machine
		}
		if *iqOrg != "" {
			m.IQOrg = *iqOrg
		}
		if *iqWM != 0 {
			m.IQWatermark = *iqWM
		}
		if *iqProt != "" {
			m.IQProtection = *iqProt
		}
		m = m.Canonical()
		if err := m.Validate(); err != nil {
			fatal(err)
		}
		cfg.Machine = &m
	}
	if scheme == core.SchemeDVM || scheme == core.SchemeDVMStatic {
		// DVM needs an absolute target: derive it from a baseline run.
		fmt.Fprintf(os.Stderr, "measuring baseline MaxIQ_AVF for the DVM target...\n")
		base := cfg
		base.Scheme = core.SchemeBase
		b, err := core.Run(base)
		if err != nil {
			fatal(err)
		}
		cfg.DVMTarget = *targetFrac * b.MaxIQAVF
		fmt.Fprintf(os.Stderr, "MaxIQ_AVF %.4f → target %.4f\n", b.MaxIQAVF, cfg.DVMTarget)
	}

	res, tr, err := core.RunTraced(cfg, core.RunOptions{TraceLevel: *traceLvl})
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		path := *traceOut
		if path == "" {
			path = "decisions.ndjson.gz"
		}
		if err := decision.WriteFile(path, tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "decision trace: %d events → %s (inspect with `tracedump show -in %s`)\n",
			len(tr.Events), path, path)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	printResult(res, cfg)
	if *intervals {
		fmt.Printf("\n%-6s %-8s %-8s %-10s %-8s\n", "ivl", "IPC", "RQL", "L2miss", "IQ AVF")
		for _, iv := range res.Intervals {
			fmt.Printf("%-6d %-8.2f %-8.1f %-10d %-8.4f\n",
				iv.Index, iv.IPC, iv.AvgReadyLen, iv.L2Misses, iv.IQAVF)
		}
	}
}

func resolveWorkload(mixName, benchList string) ([]string, error) {
	switch {
	case mixName != "" && benchList != "":
		return nil, fmt.Errorf("use either -mix or -benchmarks, not both")
	case mixName != "":
		for _, m := range workload.Mixes() {
			if strings.EqualFold(m.Name, mixName) {
				return m.Benchmarks[:], nil
			}
		}
		return nil, fmt.Errorf("unknown mix %q (want one of CPU-A..MEM-C)", mixName)
	case benchList != "":
		return strings.Split(benchList, ","), nil
	default:
		return workload.Mixes()[0].Benchmarks[:], nil // CPU-A
	}
}

func parseScheme(s string) (core.Scheme, error) {
	for v := core.Scheme(0); int(v) < core.NumSchemes; v++ {
		if strings.EqualFold(v.String(), s) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

func parsePolicy(s string) (pipeline.FetchPolicyKind, error) {
	for _, p := range pipeline.AllPolicies() {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown fetch policy %q", s)
}

func printResult(r *core.Result, cfg core.Config) {
	fmt.Printf("workload        %s\n", strings.Join(r.Benchmarks, ","))
	fmt.Printf("scheme/policy   %v / %v\n", r.Scheme, r.Policy)
	if cfg.Machine != nil {
		m := cfg.Machine.Canonical()
		if m.IQOrg != config.OrgUnifiedAGE || m.IQProtection != config.ProtNone {
			line := fmt.Sprintf("IQ org/prot     %s", m.IQOrg)
			if m.IQOrg == config.OrgPartitioned {
				line += fmt.Sprintf(" (watermark %d)", m.IQWatermark)
			}
			fmt.Printf("%s / %s\n", line, m.IQProtection)
		}
	}
	fmt.Printf("cycles          %d\n", r.Cycles)
	fmt.Printf("throughput IPC  %.3f\n", r.ThroughputIPC)
	fmt.Printf("harmonic IPC    %.3f\n", r.HarmonicIPC)
	fmt.Printf("IQ AVF          %.4f (max interval %.4f, tag-estimated %.4f)\n",
		r.IQAVF, r.MaxIQAVF, r.IQAVFTagged)
	fmt.Printf("ROB/RF/FU AVF   %.4f / %.4f / %.4f\n", r.ROBAVF, r.RFAVF, r.FUAVF)
	fmt.Printf("ACE fraction    %.3f  (tag accuracy %.3f committed, %.3f incl. squashed)\n",
		r.ProfileACEFraction, r.CommittedTagAccuracy, r.CombinedTagAccuracy())
	fmt.Printf("mispredict rate %.3f  wrong-path fetched %d  squashed %d  flushes %d\n",
		r.MispredictRate, r.WrongPathFetched, r.Squashed, r.Flushes)
	fmt.Printf("L1D/L2/DTLB     %.3f / %.3f / %.3f miss   L2 misses %d\n",
		r.L1DMissRate, r.L2MissRate, r.DTLBMissRate, r.L2Misses)
	fmt.Printf("IQ occupancy    %.1f mean, ready %.1f mean\n", r.MeanIQOccupancy, r.MeanReadyLen)
	if cfg.DVMTarget > 0 {
		fmt.Printf("DVM             target %.4f  PVE %.1f%%  mean wq_ratio %.2f\n",
			cfg.DVMTarget, 100*r.PVE(cfg.DVMTarget), r.DVMMeanRatio)
	}
	for i, c := range r.Commits {
		share := 0.0
		if i < len(r.IQThreadShare) {
			share = r.IQThreadShare[i]
		}
		fmt.Printf("thread %d        %-8s %10d commits (IPC %.3f, %4.1f%% of IQ vulnerability)\n",
			i, r.Benchmarks[i], c, float64(c)/float64(r.Cycles), 100*share)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "visasim:", err)
	os.Exit(1)
}
