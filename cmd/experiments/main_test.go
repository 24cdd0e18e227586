package main

import (
	"strings"
	"testing"
)

// TestCheckArgs covers every command line checkArgs refuses, plus the
// accepted shapes next to each, so a refusal never spreads to a valid one.
func TestCheckArgs(t *testing.T) {
	const url = "http://localhost:8080"
	figs := []string{"fig5", "fig8"}
	for _, tc := range []struct {
		name string
		a    args
		want string // substring of the error; "" means accepted
	}{
		{"local", args{targets: figs}, ""},
		{"local traced", args{traceLevel: 1, targets: figs}, ""},
		{"every target", args{targets: []string{"fig1", "fig2", "fig5", "fig6", "fig8", "fig9",
			"fig10", "table1", "table2", "table3", "iqmatrix", "ext-rob", "ablations", "explore"}}, ""},
		{"server", args{server: url, targets: figs}, ""},
		{"backends with store", args{backends: url, store: "ckpt", resume: true, targets: figs}, ""},
		{"traced server", args{traceLevel: 1, server: url, targets: figs}, "-trace-level"},
		{"traced backends", args{traceLevel: 2, backends: url, targets: figs}, "-trace-level"},
		{"store without backends", args{store: "ckpt", targets: figs}, "-backends"},
		{"resume without backends", args{resume: true, targets: figs}, "-backends"},
		{"store and resume on server", args{server: url, store: "ckpt", resume: true, targets: figs}, "-backends"},
		{"resume without store", args{backends: url, resume: true, targets: figs}, "-store"},
		{"unknown target last", args{targets: []string{"fig5", "fgi6"}}, `"fgi6"`},
		{"retired bench target", args{targets: []string{"bench"}}, `"bench"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkArgs(tc.a)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %s", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %s", err, tc.want)
			}
		})
	}
}
