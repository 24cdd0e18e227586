// Service example: run the visasimd simulation service in-process, then use
// the programmatic client to submit a small VISA-vs-baseline sweep (ICOUNT
// fetch policy) and print the issue-queue AVF delta. The sweep is submitted
// twice to show the content-addressed cache at work: the second submission
// is served without re-simulating, byte-identical to the first.
//
// Run with: go run ./examples/service
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/server"
)

func main() {
	// The daemon, on a loopback port. Against a real deployment only the
	// client half of this program is needed.
	srv := server.New(server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck

	cli := &server.Client{BaseURL: "http://" + ln.Addr().String()}
	workload := []string{"bzip2", "eon", "gcc", "perlbmk"}
	cells := []harness.Cell{
		{Key: "base", Cfg: core.Config{Benchmarks: workload, Scheme: core.SchemeBase,
			Policy: pipeline.PolicyICOUNT, MaxInstructions: 100_000}},
		{Key: "visa", Cfg: core.Config{Benchmarks: workload, Scheme: core.SchemeVISA,
			Policy: pipeline.PolicyICOUNT, MaxInstructions: 100_000}},
	}

	t0 := time.Now()
	res, err := cli.Run(cells, harness.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cold := time.Since(t0)

	base, visa := res["base"], res["visa"]
	fmt.Printf("workload %v under ICOUNT\n\n", workload)
	fmt.Printf("%-16s %10s %10s\n", "", "base", "visa")
	fmt.Printf("%-16s %10.4f %10.4f\n", "IQ AVF", base.IQAVF, visa.IQAVF)
	fmt.Printf("%-16s %10.3f %10.3f\n", "throughput IPC", base.ThroughputIPC, visa.ThroughputIPC)
	fmt.Printf("\nVISA issue cuts IQ AVF by %.1f%% at %+.1f%% IPC\n",
		100*(1-visa.IQAVF/base.IQAVF),
		100*(visa.ThroughputIPC/base.ThroughputIPC-1))

	// Same sweep again: every cell is a cache hit.
	t0 = time.Now()
	if _, err := cli.Run(cells, harness.Options{}); err != nil {
		log.Fatal(err)
	}
	warm := time.Since(t0)
	fmt.Printf("\nfirst run %v, cached rerun %v\n", cold.Round(time.Millisecond), warm.Round(time.Millisecond))

	metrics, err := http.Get(cli.BaseURL + "/metrics/prom")
	if err != nil {
		log.Fatal(err)
	}
	defer metrics.Body.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(metrics.Body)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			m[name] = value
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon metrics: sims_run=%s cache_hits=%s\n",
		m["visasimd_sims_run_total"], m["visasimd_cache_hits_total"])

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	httpSrv.Shutdown(ctx) //nolint:errcheck
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}
