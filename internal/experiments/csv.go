package experiments

import (
	"fmt"
	"io"

	"visasim/internal/report"
)

// CSV emitters for the figure results, so plots can be regenerated outside
// Go. Each writes one flat table: categories and thresholds become columns
// rather than panels.

var catNames = [3]string{"CPU", "MIX", "MEM"}

// WriteCSV emits structure,category,avf rows.
func (r *Fig1Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for si, s := range fig1Structures {
		for ci, cat := range catNames {
			rows = append(rows, []string{s, cat, fmt.Sprintf("%.6f", r.AVF[ci][si])})
		}
	}
	return report.WriteCSV(w, []string{"structure", "category", "avf"}, rows)
}

// WriteCSV emits length,cycles_frac,ace_pct rows.
func (r *Fig2Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for l := 0; l <= r.MaxLen; l++ {
		rows = append(rows, []string{
			fmt.Sprint(l),
			fmt.Sprintf("%.6f", r.Hist.Frac(l)),
			fmt.Sprintf("%.3f", r.Hist.ACEPct(l)),
		})
	}
	return report.WriteCSV(w, []string{"ready_len", "cycles_frac", "ace_pct"}, rows)
}

// WriteCSV emits benchmark,accuracy,ace_fraction rows.
func (r *Table1Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for i, b := range r.Benchmarks {
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%.6f", r.Accuracy[i]),
			fmt.Sprintf("%.6f", r.ACEFrac[i]),
		})
	}
	return report.WriteCSV(w, []string{"benchmark", "accuracy", "ace_fraction"}, rows)
}

// WriteCSV emits one row per mix: its ICOUNT baseline characteristics.
func (r *Table3Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for i, m := range r.Mixes {
		b := r.Base[i]
		perK, med := l2Misses(b)
		rows = append(rows, []string{m.Name, m.Category.String(),
			fmt.Sprintf("%.6f", b.ThroughputIPC), fmt.Sprintf("%.6f", b.IQAVF), fmt.Sprintf("%.3f", b.MeanReadyLen),
			fmt.Sprintf("%.3f", perK), fmt.Sprint(len(b.Intervals)), fmt.Sprintf("%.1f", med)})
	}
	return report.WriteCSV(w, []string{"mix", "category", "ipc", "iq_avf", "mean_ready_len",
		"l2_misses_per_ki", "intervals", "median_interval_l2_misses"}, rows)
}

// WriteCSV emits scheme,category,norm_avf,norm_ipc rows.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for si, s := range fig5Schemes {
		for ci, cat := range catNames {
			rows = append(rows, []string{
				s.String(), cat,
				fmt.Sprintf("%.6f", r.NormAVF[si][ci]),
				fmt.Sprintf("%.6f", r.NormIPC[si][ci]),
			})
		}
	}
	return report.WriteCSV(w, []string{"scheme", "category", "norm_iq_avf", "norm_ipc"}, rows)
}

// WriteCSV emits policy,scheme,category,norm_avf,norm_ipc rows.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for pi, pol := range r.Policies {
		for si, s := range fig5Schemes {
			for ci, cat := range catNames {
				rows = append(rows, []string{
					pol.String(), s.String(), cat,
					fmt.Sprintf("%.6f", r.NormAVF[pi][si][ci]),
					fmt.Sprintf("%.6f", r.NormIPC[pi][si][ci]),
				})
			}
		}
	}
	return report.WriteCSV(w, []string{"policy", "scheme", "category", "norm_iq_avf", "norm_ipc"}, rows)
}

// WriteCSV emits category,target_frac,pve_base,pve_dvm,thru_deg,harm_deg.
func (r *Fig8Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for ci, cat := range catNames {
		for fi, f := range r.Fracs {
			rows = append(rows, []string{
				cat,
				fmt.Sprintf("%.1f", f),
				fmt.Sprintf("%.6f", r.PVEBase[ci][fi]),
				fmt.Sprintf("%.6f", r.PVEDVM[ci][fi]),
				fmt.Sprintf("%.3f", r.ThruDeg[ci][fi]),
				fmt.Sprintf("%.3f", r.HarmDeg[ci][fi]),
			})
		}
	}
	return report.WriteCSV(w,
		[]string{"category", "target_frac", "pve_base", "pve_dvm", "thru_deg_pct", "harm_deg_pct"}, rows)
}

// WriteCSV emits scheme,category,target_frac,pve rows.
func (r *Fig10Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for si, s := range r.Schemes {
		for ci, cat := range catNames {
			for fi, f := range r.Fracs {
				rows = append(rows, []string{
					s, cat,
					fmt.Sprintf("%.1f", f),
					fmt.Sprintf("%.6f", r.PVE[si][ci][fi]),
				})
			}
		}
	}
	return report.WriteCSV(w, []string{"scheme", "category", "target_frac", "pve"}, rows)
}

// WriteCSV emits mix,org,prot,scheme,ipc,iq_avf,iq_occ,dvm_triggers,area_extra rows.
func (r *IQMatrixResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Mix, c.Org.String(), c.Prot.String(), c.Scheme.String(),
			fmt.Sprintf("%.6f", c.IPC),
			fmt.Sprintf("%.6f", c.IQAVF),
			fmt.Sprintf("%.3f", c.IQOcc),
			fmt.Sprint(c.DVMTriggers),
			fmt.Sprintf("%.1f", c.AreaExtra),
		})
	}
	return report.WriteCSV(w,
		[]string{"mix", "org", "prot", "scheme", "ipc", "iq_avf", "iq_occ", "dvm_triggers", "area_extra"},
		rows)
}
