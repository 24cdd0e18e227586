package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/stats"
)

// Fig2Result is the joint ready-queue-length / ACE-percentage
// characterisation of the baseline machine on the 4-context CPU workload
// (CPU-A: bzip2, eon, gcc, perlbmk) — the observation that motivates VISA issue.
type Fig2Result struct {
	Hist *stats.RQHistogram
	// MeanLen is the mean ready-queue length; the paper's histogram
	// peaks around 26 with abundant ready instructions relative to the
	// issue width of 8.
	MeanLen float64
	// MeanACEPct is the average ACE share of ready instructions
	// (~60% in the paper).
	MeanACEPct float64
	// FracBelowIssueWidth is the fraction of cycles with fewer ready
	// instructions than the issue width (~10% below 9 in the paper).
	FracBelowIssueWidth float64
	// MaxLen is the largest observed ready-queue length (73 in the
	// paper).
	MaxLen int
}

// Fig2 reproduces Figure 2.
func Fig2(p Params) (*Fig2Result, error) {
	mix, err := mixByName("CPU-A")
	if err != nil {
		return nil, err
	}
	cell := mixCell(p, mix, core.SchemeBase, pipeline.PolicyICOUNT)
	res, err := p.Run([]harness.Cell{cell})
	if err != nil {
		return nil, err
	}
	h := res[cell.Key].RQHist
	out := &Fig2Result{
		Hist:       h,
		MeanLen:    h.MeanLen(),
		MeanACEPct: h.MeanACEPct(),
		MaxLen:     h.MaxObserved(),
	}
	var below, total uint64
	for l, c := range h.Cycles {
		if l < 9 {
			below += c
		}
		total += c
	}
	if total > 0 {
		out.FracBelowIssueWidth = float64(below) / float64(total)
	}
	return out, nil
}

// String renders the histogram in 4-entry buckets with per-bucket ACE%.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: ready-queue length histogram and ACE%% (CPU group A)\n")
	fmt.Fprintf(&b, "mean RQL %.1f  max %d  ACE%% of ready %.1f  cycles with RQL<9: %.1f%%\n\n",
		r.MeanLen, r.MaxLen, r.MeanACEPct, 100*r.FracBelowIssueWidth)
	fmt.Fprintf(&b, "%-8s %-8s %-8s %s\n", "RQL", "cycles%", "ACE%", "")
	h := r.Hist
	maxFrac := 0.0
	type bucket struct {
		frac, ace float64
	}
	var buckets []bucket
	for lo := 0; lo <= r.MaxLen; lo += 4 {
		var frac, aceSum, cyc float64
		for l := lo; l < lo+4 && l < len(h.Cycles); l++ {
			frac += h.Frac(l)
			aceSum += h.ACEPct(l) * float64(h.Cycles[l])
			cyc += float64(h.Cycles[l])
		}
		ace := 0.0
		if cyc > 0 {
			ace = aceSum / cyc
		}
		buckets = append(buckets, bucket{frac, ace})
		if frac > maxFrac {
			maxFrac = frac
		}
	}
	for i, bk := range buckets {
		bar := ""
		if maxFrac > 0 {
			n := int(bk.frac / maxFrac * 40)
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%3d-%-3d  %-8.2f %-8.1f %s\n", i*4, i*4+3, 100*bk.frac, bk.ace, bar)
	}
	return b.String()
}
