package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"visasim/internal/ace"
	"visasim/internal/alloc"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/pipeline"
	"visasim/internal/report"
	"visasim/internal/workload"
)

// Table1Result is the accuracy of PC-based ACE identification over
// committed instructions, per benchmark (the paper reports ~93% average,
// ranging 74.9%–99.9%), plus the squashed-inclusive average (~83%).
type Table1Result struct {
	Benchmarks []string
	Accuracy   []float64 // committed-only, aligned with Benchmarks
	ACEFrac    []float64
	Average    float64
	// SquashedInclusive is the average accuracy when squashed (wrong
	// path) instructions count as un-ACE ground truth, measured on the
	// Table 3 workloads.
	SquashedInclusive float64
}

// Table1 reproduces Table 1.
func Table1(p Params) (*Table1Result, error) {
	acc, frac, err := profileSuite(p, ace.DefaultWindow)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{Benchmarks: workload.Table1Benchmarks(), Accuracy: acc, ACEFrac: frac, Average: mean(acc)}

	// Squashed-inclusive accuracy from the baseline SMT runs.
	res, err := runMixes(p, []core.Scheme{core.SchemeBase}, []pipeline.FetchPolicyKind{pipeline.PolicyICOUNT})
	if err != nil {
		return nil, err
	}
	var squashed []float64
	for _, mix := range workload.Mixes() {
		squashed = append(squashed, res[key(mix.Name, core.SchemeBase, pipeline.PolicyICOUNT)].CombinedTagAccuracy())
	}
	out.SquashedInclusive = mean(squashed)
	return out, nil
}

// profileSuite profiles every Table 1 benchmark single-threaded with the
// given analysis window, in parallel, and returns the committed tag
// accuracies and ACE fractions in workload.Table1Benchmarks order.
func profileSuite(p Params, window int) (acc, frac []float64, err error) {
	names := workload.Table1Benchmarks()
	acc, frac = make([]float64, len(names)), make([]float64, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			b, err := workload.Get(name)
			if err != nil {
				errs[i] = err
				return
			}
			prof, err := core.ProfileFor(b, p.budget(), window)
			if err != nil {
				errs[i] = err
				return
			}
			acc[i], frac[i] = prof.Accuracy(), prof.ACEFraction()
		}(i, name)
	}
	wg.Wait()
	return acc, frac, errors.Join(errs...)
}

// String renders the table.
func (r *Table1Result) String() string {
	t := report.NewTable("Table 1: accuracy of using PC to identify ACE instructions (committed only)",
		"benchmark", "accuracy", "ACE fraction")
	for i, n := range r.Benchmarks {
		t.AddRow(n, report.Pct(r.Accuracy[i]), report.Pct(r.ACEFrac[i]))
	}
	t.AddRow("AVG", report.Pct(r.Average), "")
	return t.String() + fmt.Sprintf("\naverage accuracy incl. squashed instructions: %s\n",
		report.Pct(r.SquashedInclusive))
}

// Table2 renders the simulated machine configuration.
func Table2() string {
	return "Table 2: simulated machine configuration\n" + config.Default().String() + "\n"
}

// Table3Result is Table 3's workload list with each mix's ICOUNT baseline
// cell: the characteristics workload calibration tunes against.
type Table3Result struct {
	Mixes []workload.Mix
	Base  []*core.Result // aligned with Mixes
}

// Table3 reproduces Table 3 and runs each mix's ICOUNT baseline.
func Table3(p Params) (*Table3Result, error) {
	res, err := runMixes(p, []core.Scheme{core.SchemeBase}, []pipeline.FetchPolicyKind{pipeline.PolicyICOUNT})
	if err != nil {
		return nil, err
	}
	out := &Table3Result{Mixes: workload.Mixes()}
	for _, m := range out.Mixes {
		out.Base = append(out.Base, res[key(m.Name, core.SchemeBase, pipeline.PolicyICOUNT)])
	}
	return out, nil
}

// l2Misses returns a run's data L2 misses per 1K committed instructions and
// the median of its intervals' data L2 misses, the count opt2 compares
// with Tcache_miss (0 with no interval).
func l2Misses(r *core.Result) (perK, medianInterval float64) {
	perK = 1000 * float64(r.L2Misses) / float64(r.TotalCommits())
	m := make([]uint64, len(r.Intervals))
	for i, iv := range r.Intervals {
		m[i] = iv.L2Misses
	}
	slices.Sort(m)
	switch h := len(m) / 2; {
	case len(m) == 0:
	case len(m)%2 == 1:
		medianInterval = float64(m[h])
	default:
		medianInterval = float64(m[h-1]+m[h]) / 2
	}
	return perK, medianInterval
}

// String renders the table.
func (r *Table3Result) String() string {
	t := report.NewTable("Table 3: the studied SMT workloads, with each mix's ICOUNT baseline",
		"type", "group", "benchmarks", "IPC", "IQ AVF", "RQL", "L2 miss/KI", "intervals", "median L2 miss/interval")
	under := 0
	for i, m := range r.Mixes {
		b := r.Base[i]
		perK, med := l2Misses(b)
		if med <= alloc.DefaultCacheMissThreshold {
			under++
		}
		t.AddRow(m.Category.String(), m.Group, strings.Join(m.Benchmarks[:], ", "),
			fmt.Sprintf("%.2f", b.ThroughputIPC), fmt.Sprintf("%.3f", b.IQAVF), fmt.Sprintf("%.1f", b.MeanReadyLen),
			fmt.Sprintf("%.1f", perK), fmt.Sprint(len(b.Intervals)), fmt.Sprintf("%.1f", med))
	}
	return t.String() + fmt.Sprintf("\nTcache_miss = %d (opt2 takes FLUSH above it): %d of %d mixes have a median at or under it\n",
		alloc.DefaultCacheMissThreshold, under, len(r.Mixes))
}
