package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"visasim/internal/ace"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// profileSlack mirrors core's in-flight allowance: a cell with budget B
// and warmup W profiles B+W+profileSlack instructions, and setup must warm
// exactly that key. warmTagged fails the run if the two fall out of step.
const profileSlack = 4096

// profLen is the profile length core.RunTraced asks for with the default
// quarter-budget warmup.
func profLen(budget uint64) uint64 { return budget + budget/4 + profileSlack }

// timedLabel is the pprof label harness puts on the timed region's
// simulation goroutines, so the profile summary can keep to them.
var timedLabel = map[string]string{"perfbench": "timed"}

// warmTagged builds the tagged program of every (benchmark, budget) the
// workload uses before the timed region, so no batch's first run pays
// program synthesis. It asks core itself for each profile length: one
// cycle-bounded run per mix and budget, with the default warmup folded into
// the budget and warmup disabled, needs the same profile as the cells.
// It returns the elapsed seconds.
func warmTagged(spec inprocSpec) (float64, error) {
	t0 := time.Now()
	for _, budget := range spec.budgets {
		for _, m := range spec.mixes {
			cfg, err := core.Config{Benchmarks: m.Benchmarks[:], MaxInstructions: budget}.Canonical()
			if err != nil {
				return 0, err
			}
			cfg.MaxInstructions += uint64(cfg.Warmup)
			cfg.Warmup = -1
			cfg.MaxCycles = 1000
			if _, err := core.Run(cfg); err != nil {
				return 0, fmt.Errorf("warming %s: %w", m.Name, err)
			}
		}
	}
	return time.Since(t0).Seconds(), nil
}

// inprocSpec defines an in-process workload: which cells it runs, batched
// into the harness.RunStats calls ("sweeps") a caller would make.
type inprocSpec struct {
	name    string
	budgets []uint64
	mixes   []workload.Mix
	// batches returns the workload's distinct batches, chosen by rng. The
	// timed region runs them in turn, over and over.
	batches   func(rng *rand.Rand) [][]harness.Cell
	setupReps int
	// recheck is how many cells of the timed region are simulated again
	// afterwards and compared with the region's results.
	recheck int
	batch   string // what one batch is, for the record
}

var (
	allSchemes = []core.Scheme{core.SchemeBase, core.SchemeVISA, core.SchemeVISAOpt1,
		core.SchemeVISAOpt2, core.SchemeDVMStatic, core.SchemeDVM}
	allOrgs  = []string{config.OrgUnifiedAGE, config.OrgSWQUE, config.OrgPartitioned}
	allProts = []string{config.ProtNone, config.ProtParity, config.ProtECC, config.ProtPartialRepl}
)

// assignment is what the seed picks for one cell: its fetch policy, IQ
// organization, protection mode and absolute DVM target (used by the DVM
// schemes only).
type assignment struct {
	policy pipeline.FetchPolicyKind
	org    string
	prot   string
	target float64
}

const dvmTargetLo, dvmTargetHi = 0.08, 0.25

// randomAssignment draws every axis independently.
func randomAssignment(rng *rand.Rand) assignment {
	pols := pipeline.AllPolicies()
	return assignment{
		policy: pols[rng.Intn(len(pols))],
		org:    allOrgs[rng.Intn(len(allOrgs))],
		prot:   allProts[rng.Intn(len(allProts))],
		target: dvmTargetLo + (dvmTargetHi-dvmTargetLo)*rng.Float64(),
	}
}

// balancedAssignments returns n assignments in which every value of each
// axis appears equally often, up to a remainder that starts at a seeded
// offset, in seeded order; the DVM targets are stratified over the range.
// A group drawn this way has the same mix of policies, organizations and
// protection modes whatever the seed, so the seed changes which cell gets
// what, not how much work the group is.
func balancedAssignments(rng *rand.Rand, n int) []assignment {
	axis := func(k int) []int {
		off := rng.Intn(k)
		v := make([]int, n)
		for i := range v {
			v[i] = (off + i) % k
		}
		rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	pols := pipeline.AllPolicies()
	pi, oi, ri := axis(len(pols)), axis(len(allOrgs)), axis(len(allProts))
	ti := rng.Perm(n)
	out := make([]assignment, n)
	for i := range out {
		out[i] = assignment{
			policy: pols[pi[i]],
			org:    allOrgs[oi[i]],
			prot:   allProts[ri[i]],
			target: dvmTargetLo + (dvmTargetHi-dvmTargetLo)*(float64(ti[i])+rng.Float64())/float64(n),
		}
	}
	return out
}

// makeCell builds one cell of mix under scheme with the given assignment.
func makeCell(tag string, mix workload.Mix, scheme core.Scheme, a assignment, budget uint64) harness.Cell {
	m := config.Default()
	m.IQOrg, m.IQProtection = a.org, a.prot
	cfg := core.Config{
		Machine:         &m,
		Benchmarks:      append([]string(nil), mix.Benchmarks[:]...),
		Scheme:          scheme,
		Policy:          a.policy,
		MaxInstructions: budget,
	}
	if scheme == core.SchemeDVM || scheme == core.SchemeDVMStatic {
		cfg.DVMTarget = a.target
	}
	key := fmt.Sprintf("%s/%s/%s/%s/%s/%s/%d", tag, mix.Name, scheme, a.policy, a.org, a.prot, budget)
	return harness.Cell{Key: key, Cfg: cfg}
}

func mixByName(name string) workload.Mix {
	for _, m := range workload.Mixes() {
		if m.Name == name {
			return m
		}
	}
	panic("perfbench: no mix " + name)
}

// figsSpec is the paper-figure sweep: all nine Table 3 mixes × all six
// schemes at the experiments default budget. One batch is one mix's six
// schemes, with balanced assignments; mixes alternate CPU, MIX, MEM so that
// any prefix of the sequence is balanced across categories.
func figsSpec() inprocSpec {
	order := []string{"CPU-A", "MIX-A", "MEM-A", "CPU-B", "MIX-B", "MEM-B", "CPU-C", "MIX-C", "MEM-C"}
	const budget = 200_000
	return inprocSpec{
		name:    "figs",
		budgets: []uint64{budget},
		mixes:   workload.Mixes(),
		batches: func(rng *rand.Rand) [][]harness.Cell {
			var out [][]harness.Cell
			for _, name := range order {
				as := balancedAssignments(rng, len(allSchemes))
				cells := make([]harness.Cell, len(allSchemes))
				for k, s := range allSchemes {
					cells[k] = makeCell("figs", mixByName(name), s, as[k], budget)
				}
				out = append(out, cells)
			}
			return out
		},
		setupReps: 5,
		recheck:   3,
		batch:     "one Table 3 mix under all six schemes (one harness.RunStats call, 6 cells)",
	}
}

// memLongSpec is a few long memory-bound cells without controllers:
// MEM-A/B/C × {base, visa} at a large budget under ICOUNT; the seed assigns
// IQ organizations and protection modes. One batch is one cell.
func memLongSpec() inprocSpec {
	type pick struct {
		mix    string
		scheme core.Scheme
	}
	order := []pick{
		{"MEM-A", core.SchemeBase}, {"MEM-B", core.SchemeVISA}, {"MEM-C", core.SchemeBase},
		{"MEM-A", core.SchemeVISA}, {"MEM-B", core.SchemeBase}, {"MEM-C", core.SchemeVISA},
	}
	const budget = 1_000_000
	return inprocSpec{
		name:    "mem-long",
		budgets: []uint64{budget},
		mixes:   workload.MixesIn(workload.CatMEM),
		batches: func(rng *rand.Rand) [][]harness.Cell {
			// The fetch policy stays ICOUNT: the gating policies change how
			// many instructions a memory-bound cell commits per cycle several
			// fold, which would make the pass's cost depend on the seed.
			as := balancedAssignments(rng, len(order))
			out := make([][]harness.Cell, len(order))
			for k, p := range order {
				as[k].policy = pipeline.PolicyICOUNT
				out[k] = []harness.Cell{makeCell("mem-long", mixByName(p.mix), p.scheme, as[k], budget)}
			}
			return out
		},
		setupReps: 3,
		recheck:   0,
		batch:     "one cell (one harness.RunStats call)",
	}
}

// profileTargets lists the distinct benchmarks of the given mixes.
func profileTargets(mixes []workload.Mix) ([]workload.Benchmark, error) {
	seen := map[string]bool{}
	var names []string
	for _, m := range mixes {
		for _, b := range m.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	sort.Strings(names)
	out := make([]workload.Benchmark, len(names))
	for i, n := range names {
		b, err := workload.Get(n)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// regionStats is what one timed region measured.
type regionStats struct {
	batches int
	cells   int
	wall    float64 // summed batch wall time, seconds
	instrs  uint64  // measured-region committed instructions
	// One pass over the distinct batches, each timed by the fastest of its
	// runs in the region: the basis of the rate metrics. Host noise only
	// ever slows a run down, so the fastest run is the steadiest estimate.
	passWall   float64
	passInstrs uint64
	passCells  int
	cycles     uint64
	skipped    uint64
	simSec     float64
	cellSec    float64
	catSim     map[workload.Category]float64
	catCycles  map[workload.Category]uint64
	cellSim    map[string]float64 // SimSeconds by cell key
	go0, go1   goSample
}

// cellRecord is kept for every cell run so the region can be re-checked.
type cellRecord struct {
	key    string
	cfg    core.Config
	digest string
}

// resultDigest is the SHA-256 of a result's JSON encoding, which is
// byte-stable for a deterministic simulator.
func resultDigest(res *core.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checker validates cell outputs against the budget, the shipped seed's
// recorded digests and earlier runs of the same cell.
type checker struct {
	rep      *report
	recorded map[string]string // nil unless the seed is the shipped one
	seen     map[string]string
	cells    []cellRecord
}

func newChecker(rep *report, workloadName string, seed int64) *checker {
	c := &checker{rep: rep, seen: map[string]string{}}
	if seed == shippedSeed {
		c.recorded = recordedDigests(workloadName)
	}
	return c
}

// check validates one resolved cell and returns whether it passed.
func (c *checker) check(key string, cfg core.Config, res *core.Result, digest string) bool {
	if res.TotalCommits() < cfg.MaxInstructions {
		c.rep.fail("%s committed %d of %d instructions", key, res.TotalCommits(), cfg.MaxInstructions)
		return false
	}
	if want, ok := c.recorded[key]; ok && want != digest[:digestLen] {
		c.rep.fail("%s digest %s, recorded %s", key, digest[:digestLen], want)
		return false
	}
	if prev, ok := c.seen[key]; ok {
		if prev != digest {
			c.rep.fail("%s digest changed between runs (%s, %s)", key, prev[:12], digest[:12])
			return false
		}
		return true
	}
	c.seen[key] = digest
	c.cells = append(c.cells, cellRecord{key: key, cfg: cfg, digest: digest})
	return true
}

// runRegion runs the batches in turn, round after round, until d has
// elapsed. Only the harness calls are timed; output checks run between
// them.
func runRegion(d time.Duration, batches [][]harness.Cell, chk *checker, tr *tracer, traceID string) regionStats {
	rs := regionStats{
		catSim:    map[workload.Category]float64{},
		catCycles: map[workload.Category]uint64{},
		cellSim:   map[string]float64{},
	}
	times := make([][]float64, len(batches))
	instrs := make([]uint64, len(batches))
	rs.go0 = readGo()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		b := i % len(batches)
		cells := batches[b]
		t0 := time.Now()
		res, stats, err := harness.RunStats(cells, harness.Options{Workers: 1, Labels: timedLabel})
		t1 := time.Now()
		lat := t1.Sub(t0).Seconds()
		rs.batches++
		rs.cells += len(cells)
		chk.rep.attempted += len(cells)
		rs.wall += lat
		times[b] = append(times[b], lat)
		if err != nil {
			for range cells {
				chk.rep.fail("batch %s: %v", cells[0].Key, err)
			}
			continue
		}
		var parent int
		if tr != nil {
			parent = tr.add(fmt.Sprintf("%s-b%d", traceID, rs.batches), "harness.run", 0, t0, t1,
				map[string]string{"cells": strconv.Itoa(len(cells))})
		}
		cellStart := t0
		for _, c := range cells {
			r, st := res[c.Key], stats[c.Key]
			cat := mixCategory(c.Cfg.Benchmarks)
			rs.instrs += st.Instructions
			instrs[b] += st.Instructions
			rs.cycles += st.Cycles
			rs.skipped += r.SkippedCycles
			rs.simSec += st.SimSeconds
			rs.cellSec += st.Seconds
			rs.catSim[cat] += st.SimSeconds
			rs.catCycles[cat] += st.Cycles
			rs.cellSim[c.Key] = st.SimSeconds
			if tr != nil {
				// One worker runs a batch's cells in order, so each cell
				// starts where the previous one ended; the pipeline run is
				// the tail of its cell.
				cellEnd := cellStart.Add(secs(st.Seconds))
				id := tr.add(tr.spans[parent-1].Trace, "core.cell", parent, cellStart, cellEnd,
					map[string]string{"cell": c.Key})
				tr.add(tr.spans[parent-1].Trace, "pipeline.run", id, cellEnd.Add(-secs(st.SimSeconds)), cellEnd, nil)
				cellStart = cellEnd
			}
			digest, derr := resultDigest(r)
			if derr != nil {
				chk.rep.fail("%s: encoding result: %v", c.Key, derr)
				continue
			}
			chk.check(c.Key, c.Cfg, r, digest)
		}
	}
	rs.go1 = readGo()
	for b, ts := range times {
		if len(ts) > 0 {
			rs.passWall += slices.Min(ts)
			rs.passInstrs += instrs[b] / uint64(len(ts))
			rs.passCells += len(batches[b])
		}
	}
	return rs
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// mixCategory classifies a cell by its Table 3 mix.
func mixCategory(benchmarks []string) workload.Category {
	for _, m := range workload.Mixes() {
		if len(benchmarks) == 4 && m.Benchmarks == [4]string(benchmarks) {
			return m.Category
		}
	}
	return workload.CatMIX
}

func runInProc(o options, spec inprocSpec) (*report, error) {
	rep := newReport()
	benches, err := profileTargets(spec.mixes)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	profDir := filepath.Join(o.build, "profiles")
	if o.trace {
		tr = newTracer()
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return nil, err
		}
	}
	stem := fmt.Sprintf("%s-seed%d", spec.name, o.seed)

	// Setup: profile every (benchmark, budget) the workload uses, several
	// times. Repetition k > 0 asks for k more instructions than the cells
	// will, so it misses core's profile cache and does the same work;
	// repetition 0 warms the exact keys the cells use.
	var stopProf func() error
	if o.trace {
		if stopProf, err = startCPUProfile(filepath.Join(profDir, stem+"-setup.pprof")); err != nil {
			return nil, err
		}
	}
	var setupTimes, profileRates []float64
	var profiled uint64
	for k := spec.setupReps - 1; k >= 0; k-- {
		t0 := time.Now()
		profiled = 0
		for _, budget := range spec.budgets {
			for _, b := range benches {
				n := profLen(budget) + uint64(k)
				s0 := time.Now()
				if _, err := core.ProfileFor(b, n, ace.DefaultWindow); err != nil {
					return nil, fmt.Errorf("profiling %s: %w", b.Name, err)
				}
				if tr != nil {
					tr.add(fmt.Sprintf("%s-setup%d", stem, k), "ace.profile", 0, s0, time.Now(),
						map[string]string{"benchmark": b.Name, "instructions": strconv.FormatUint(n, 10)})
				}
				profiled += n
			}
		}
		el := time.Since(t0).Seconds()
		setupTimes = append(setupTimes, el)
		profileRates = append(profileRates, float64(profiled)/el/1e6)
	}
	if stopProf != nil {
		if err := stopProf(); err != nil {
			return nil, err
		}
	}
	rep.set("ace.profile_s", "s", setupTimes, "")
	rep.set("ace.profile_minstr_per_s", "Minstr/s", profileRates, "")

	warm, err := warmTagged(spec)
	if err != nil {
		return nil, err
	}
	// Program synthesis alone costs a small part of profiling. A warm pass
	// near setup's cost profiled again: setup warmed another key than core
	// uses, and setup_s no longer measures the workload's profiling.
	if setupMed := median(setupTimes); warm > setupMed/2 {
		rep.attempted++
		rep.fail("warming tagged programs took %.3fs against %.3fs of setup: profLen is out of step with core", warm, setupMed)
	}

	chk := newChecker(rep, spec.name, o.seed)
	batches := spec.batches(rand.New(rand.NewSource(o.seed)))
	var region regionStats
	if !o.trace {
		region = runRegion(o.seconds, batches, chk, nil, "")
	} else {
		// Half the time untraced, then the same cells again traced: the
		// difference in rate is the tracing overhead.
		plain := runRegion(o.seconds/2, batches, chk, nil, "")
		if stopProf, err = startCPUProfile(filepath.Join(profDir, stem+"-region.pprof")); err != nil {
			return nil, err
		}
		region = runRegion(o.seconds/2, batches, chk, tr, stem)
		if err := stopProf(); err != nil {
			return nil, err
		}
		// Compare the core-loop time of the cells both halves ran, so a
		// different share of slow cells in the halves does not show.
		var a, b float64
		for key, sim := range region.cellSim {
			if p, ok := plain.cellSim[key]; ok {
				a += p
				b += sim
			}
		}
		if a > 0 {
			rep.setValue("trace.overhead_frac", "fraction", b/a-1,
				"traced over untraced pipeline time of the same cells, minus one")
		}
	}
	if region.wall == 0 {
		return nil, fmt.Errorf("the timed region ran no batch")
	}

	rep.set("setup_s", "s", setupTimes, "core.ProfileFor for every (benchmark, budget)")
	rep.setValue("sim_minstr_per_s", "Minstr/s", float64(region.passInstrs)/region.passWall/1e6,
		"one round of the batches, each timed by the fastest of its runs")
	rep.setValue("cells_per_s", "1/s", float64(region.passCells)/region.passWall, "as for sim_minstr_per_s")
	// In-process the sweep a caller waits for is the workload's whole cell
	// set: one pass over the batches. Single cells or batches would not
	// do: the seed moves them between the CPU and MEM modes of their cost,
	// and the median with them, while the pass is balanced over the seed.
	// One pass is one sample, so its tail is itself.
	rep.setValue("sweep_p50_ms", "ms", region.passWall*1000, "one pass over the batches, each at its fastest")
	rep.setValue("sweep_tail_ms", "ms", region.passWall*1000, "one pass over the batches, each at its fastest")

	if o.trace {
		inprocLayers(rep, region, tr)
		harnessSelf := tr.selfTimes()["harness"]
		rep.setValue("harness.self_share", "fraction", harnessSelf/region.wall,
			"harness.run span time outside its cells over the traced half's timed wall time")
		if err := summarizeProfiles(rep, profDir, stem, region.wall, harnessSelf); err != nil {
			return nil, err
		}
		tr.write(filepath.Join(o.build, "traces", stem+".json"), region.wall)
	}

	// Re-run a seeded sample of the region's cells from scratch: results
	// must be byte-identical.
	prng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	for i := 0; i < spec.recheck && len(chk.cells) > 0; i++ {
		c := chk.cells[prng.Intn(len(chk.cells))]
		rep.attempted++
		res, err := core.Run(c.cfg)
		if err != nil {
			rep.fail("recheck %s: %v", c.key, err)
			continue
		}
		if d, err := resultDigest(res); err != nil || d != c.digest {
			rep.fail("recheck %s: result differs from the timed run", c.key)
		}
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.setValue("peak_rss_mb", "MB", rss, "VmHWM of the benchmark process")
	if o.record != "" {
		if err := writeDigests(o.record, spec.name, chk.cells); err != nil {
			return nil, err
		}
	}

	rep.params["budgets"] = spec.budgets
	rep.params["setup_reps"] = spec.setupReps
	rep.params["warm_tagged_s"] = warm
	rep.params["profiled_instructions_per_setup"] = profiled
	rep.params["batch"] = spec.batch
	rep.params["batches"] = region.batches
	rep.params["cells"] = region.cells
	rep.params["distinct_cells"] = len(chk.cells)
	// Cells repeat round after round; each repeat is simulated again.
	rep.params["repeat_fraction"] = 1 - float64(len(chk.cells))/float64(region.cells)
	rep.params["recheck_cells"] = spec.recheck
	rep.params["workers"] = 1
	return rep, nil
}

// inprocLayers derives the per-layer numbers the harness cost records and
// the Go runtime give for a traced region.
func inprocLayers(rep *report, rs regionStats, tr *tracer) {
	rep.setValue("core.cell_setup_ms", "ms", (rs.cellSec-rs.simSec)/float64(rs.cells)*1000,
		"mean CellStats.Seconds - SimSeconds")
	rep.setValue("pipeline.sim_s", "s", rs.simSec, "")
	if rs.instrs > 0 {
		rep.setValue("pipeline.ns_per_instr", "ns", rs.simSec/float64(rs.instrs)*1e9, "")
	}
	for cat, name := range map[workload.Category]string{workload.CatCPU: "cpu", workload.CatMIX: "mix", workload.CatMEM: "mem"} {
		if c := rs.catCycles[cat]; c > 0 {
			rep.setValue("pipeline.ns_per_cycle."+name, "ns", rs.catSim[cat]/float64(c)*1e9, "")
		}
	}
	if rs.cycles > 0 {
		rep.setValue("pipeline.skipped_cycle_frac", "fraction", float64(rs.skipped)/float64(rs.cycles), "")
	}
	goLayers(rep, rs.go0, rs.go1, rs.instrs)
}

// goSample is a reading of the Go runtime's cumulative counters.
type goSample struct {
	gcCPU, userCPU, allocBytes, gcCycles float64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goSample{gcCPU: v(0), userCPU: v(1), allocBytes: v(2), gcCycles: v(3)}
}

func goLayers(rep *report, a, b goSample, instrs uint64) {
	gc, user := b.gcCPU-a.gcCPU, b.userCPU-a.userCPU
	if gc+user > 0 {
		rep.setValue("go.gc_share", "fraction", gc/(gc+user), "GC CPU over GC plus user CPU")
	}
	if instrs > 0 {
		rep.setValue("go.alloc_mb_per_minstr", "MB/Minstr", (b.allocBytes-a.allocBytes)/1e6/(float64(instrs)/1e6), "")
	}
	rep.setValue("go.gc_cycles", "count", b.gcCycles-a.gcCycles, "")
}

// startCPUProfile profiles the whole process into path until the returned
// function is called.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
