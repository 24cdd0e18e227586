package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
	"visasim/internal/workload"
)

// Service workload shape.
const (
	svcClients      = 2  // closed-loop client connections
	svcCellsPerFull = 3  // cells in a fresh sweep
	svcCacheEntries = 24 // daemon -cache-entries, below the distinct cells a run touches
	svcRepeatLag    = 4  // a repeat copies a sweep at least this many sweeps older,
	svcRepeatSpan   = 13 // and at most svcRepeatLag+svcRepeatSpan-1
	svcScrapeEvery  = 10 // client 0 scrapes /metrics/prom after every tenth sweep
	svcSetupReps    = 3
	svcRecheck      = 6
)

// svcRepeatFrac is the share of sweeps that repeat an earlier sweep, so
// every cell of a repeat is served from the LRU or the store.
const svcRepeatFrac = 1.0 / 3

var svcBudgets = []uint64{40_000, 50_000, 60_000}

// daemon is one visasimd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	store  string
	http   *http.Client
	exited chan struct{}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon execs visasimd and waits until /healthz answers 200.
func startDaemon(o options, tag string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	store := filepath.Join(o.build, "tmp", fmt.Sprintf("svc-store-%d-%s", os.Getpid(), tag))
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	d := &daemon{
		base:  "http://127.0.0.1:" + port,
		store: store,
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: svcClients + 1},
		},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(filepath.Join(o.build, "bin", "visasimd"),
		"-addr", "127.0.0.1:"+port, "-workers", "1", "-store", store,
		"-cache-entries", strconv.Itoa(svcCacheEntries), "-log-level", "warn")
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // the exit status is not needed; exited signals it
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("visasimd exited during start-up")
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("visasimd did not become healthy")
		}
	}
}

// stop shuts the daemon down (SIGTERM, then SIGKILL), waits for it to exit
// and removes its store.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
	d.http.CloseIdleConnections()
	os.RemoveAll(d.store) //nolint:errcheck // scratch space under .bench_build
}

// cellOut is one resolved cell as the stream reported it.
type cellOut struct {
	key     string
	hash    string
	hit     bool
	stats   harness.CellStats
	digest  string
	commits uint64
	cycles  uint64
	skipped uint64
	errMsg  string
}

// sweep submits cells under the given correlation ID and reads the job's
// NDJSON stream to its end event.
func (d *daemon) sweep(id string, cells []server.SubmitCell) (outs []cellOut, nbytes int, err error) {
	body, err := json.Marshal(server.SubmitRequest{Cells: cells})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, d.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.SweepHeader, id)
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	var sub server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("submit answered HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("decoding submit response: %w", err)
	}

	resp, err = d.http.Get(d.base + sub.Stream)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("stream answered HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		nbytes += len(line) + 1
		var ev server.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, nbytes, fmt.Errorf("decoding stream event: %w", err)
		}
		switch ev.Type {
		case "cell":
			outs = append(outs, decodeCell(ev.Cell))
		case "end":
			if ev.State != server.StateDone && ev.State != server.StateFailed {
				return outs, nbytes, fmt.Errorf("job ended %s: %s", ev.State, ev.Error)
			}
			return outs, nbytes, nil
		}
	}
	if err := sc.Err(); err != nil {
		return outs, nbytes, err
	}
	return outs, nbytes, fmt.Errorf("stream ended without an end event")
}

func decodeCell(cs *server.CellStatus) cellOut {
	out := cellOut{key: cs.Key, hash: cs.Hash, hit: cs.CacheHit, stats: cs.Stats, errMsg: cs.Error}
	if !cs.Done && out.errMsg == "" {
		out.errMsg = "cell reported before it resolved"
	}
	if len(cs.Result) > 0 {
		sum := sha256.Sum256(cs.Result)
		out.digest = hex.EncodeToString(sum[:])
		var r struct {
			Commits       []uint64
			Cycles        uint64
			SkippedCycles uint64
		}
		if err := json.Unmarshal(cs.Result, &r); err != nil {
			out.errMsg = "decoding result: " + err.Error()
		}
		for _, c := range r.Commits {
			out.commits += c
		}
		out.cycles, out.skipped = r.Cycles, r.SkippedCycles
	} else if out.errMsg == "" {
		out.errMsg = "cell has no result"
	}
	return out
}

// scrape fetches /metrics/prom and returns its unlabeled samples.
func (d *daemon) scrape() (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.http.Get(d.base + "/metrics/prom")
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	el := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics/prom answered HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, el, nil
}

// svcSweep is one sweep of the service workload.
type svcSweep struct {
	id     string
	cells  []server.SubmitCell
	repeat bool
}

// sweepGen yields the service workload's sweeps in a sequence fixed by the
// seed. Fresh sweeps draw cells no earlier sweep has used; repeats copy a
// sweep 4 to 16 sweeps older, so it has normally resolved. The daemon's
// LRU holds about the last 8 sweeps' cells, so a repeat of a recent sweep
// is served from memory and one of an older sweep from the store.
type sweepGen struct {
	mu     sync.Mutex
	seed   int64
	rng    *rand.Rand
	sweeps []svcSweep
	used   map[string]bool // content hashes of every cell drawn so far
	mixes  []workload.Mix
}

func newSweepGen(seed int64, warm []server.SubmitCell) *sweepGen {
	g := &sweepGen{seed: seed, rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}, mixes: workload.Mixes()}
	for _, c := range warm {
		if h, err := c.Config.Hash(); err == nil {
			g.used[h] = true
		}
	}
	return g
}

func (g *sweepGen) next() (int, svcSweep, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := len(g.sweeps)
	sw := svcSweep{id: fmt.Sprintf("perfbench-%d-%d", g.seed, i)}
	if i >= svcRepeatLag && g.rng.Float64() < svcRepeatFrac {
		src := g.sweeps[i-svcRepeatLag-g.rng.Intn(min(i-svcRepeatLag+1, svcRepeatSpan))]
		sw.cells, sw.repeat = src.cells, true
	} else {
		for k := 0; k < svcCellsPerFull; k++ {
			for {
				mix := g.mixes[g.rng.Intn(len(g.mixes))]
				scheme := allSchemes[g.rng.Intn(len(allSchemes))]
				budget := svcBudgets[g.rng.Intn(len(svcBudgets))]
				c := makeCell(fmt.Sprintf("s%d.%d", i, k), mix, scheme, randomAssignment(g.rng), budget)
				h, err := c.Cfg.Hash()
				if err != nil {
					return 0, sw, err
				}
				if !g.used[h] {
					g.used[h] = true
					sw.cells = append(sw.cells, server.SubmitCell{Key: c.Key, Config: c.Cfg})
					break
				}
			}
		}
	}
	g.sweeps = append(g.sweeps, sw)
	return i, sw, nil
}

// warmCells covers every (benchmark, budget) the workload uses with as few
// base-scheme cells as possible. Their benchmark lists are not Table 3
// mixes, so no timed cell repeats one.
func warmCells() ([]server.SubmitCell, error) {
	benches, err := profileTargets(workload.Mixes())
	if err != nil {
		return nil, err
	}
	var cells []server.SubmitCell
	for _, budget := range svcBudgets {
		for i := 0; i < len(benches); i += 4 {
			var names []string
			for k := 0; k < 4; k++ {
				names = append(names, benches[(i+k)%len(benches)].Name)
			}
			cells = append(cells, server.SubmitCell{
				Key:    fmt.Sprintf("warm/%d/%d", i/4, budget),
				Config: core.Config{Benchmarks: names, MaxInstructions: budget},
			})
		}
	}
	return cells, nil
}

// svcRegion is what one timed service region measured.
type svcRegion struct {
	wall      float64
	sweeps    int
	cells     int
	fresh     int
	latencies []float64 // ms, every sweep
	hitLat    []float64 // ms, sweeps whose every cell was a hit
	freshLat  []float64 // ms, sweeps with at least one fresh cell
	scrapes   []float64 // ms
	bytes     int
	instrs    uint64
	cycles    uint64
	skipped   uint64
	simSec    float64
	cellSec   float64
	catSim    map[workload.Category]float64
	catCycles map[workload.Category]uint64
	prom0     map[string]float64
	prom1     map[string]float64
}

// svcChecker validates cells the daemon returns: full budget, no error,
// one digest per content hash, and the shipped seed's recorded digests.
type svcChecker struct {
	mu       sync.Mutex
	rep      *report
	recorded map[string]string
	byHash   map[string]string
	records  []cellRecord
}

func (c *svcChecker) check(sc server.SubmitCell, out cellOut) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case out.errMsg != "":
		c.rep.fail("%s: %s", out.key, out.errMsg)
		return false
	case out.commits < sc.Config.MaxInstructions:
		c.rep.fail("%s committed %d of %d instructions", out.key, out.commits, sc.Config.MaxInstructions)
		return false
	}
	if want, ok := c.recorded[out.key]; ok && want != out.digest[:digestLen] {
		c.rep.fail("%s digest %s, recorded %s", out.key, out.digest[:digestLen], want)
		return false
	}
	if prev, ok := c.byHash[out.hash]; ok {
		if prev != out.digest {
			c.rep.fail("%s: a repeat returned different bytes", out.key)
			return false
		}
		return true
	}
	c.byHash[out.hash] = out.digest
	c.records = append(c.records, cellRecord{key: out.key, cfg: sc.Config, digest: out.digest})
	return true
}

// runSvcRegion runs the closed loop for d: each client submits its next
// sweep as soon as the previous one's stream ends.
func runSvcRegion(dmn *daemon, d time.Duration, gen *sweepGen, chk *svcChecker, tr *tracer) (svcRegion, error) {
	rg := svcRegion{
		catSim:    map[workload.Category]float64{},
		catCycles: map[workload.Category]uint64{},
	}
	var err error
	if rg.prom0, _, err = dmn.scrape(); err != nil {
		return rg, err
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for cl := 0; cl < svcClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for n := 1; time.Since(start) < d; n++ {
				i, sw, gerr := gen.next()
				if gerr != nil {
					mu.Lock()
					firstErr = gerr
					mu.Unlock()
					return
				}
				t0 := time.Now()
				outs, nb, serr := dmn.sweep(sw.id, sw.cells)
				t1 := time.Now()
				lat := t1.Sub(t0).Seconds() * 1000

				byKey := map[string]server.SubmitCell{}
				for _, c := range sw.cells {
					byKey[c.Key] = c
				}
				mu.Lock()
				chk.rep.attempted += len(sw.cells)
				rg.sweeps++
				rg.cells += len(sw.cells)
				rg.bytes += nb
				rg.latencies = append(rg.latencies, lat)
				if serr != nil || len(outs) != len(sw.cells) {
					chk.rep.fail("sweep %d: %d of %d cells resolved: %v", i, len(outs), len(sw.cells), serr)
					chk.rep.failed += len(sw.cells) - 1
					mu.Unlock()
					continue
				}
				allHit := true
				var parent int
				if tr != nil {
					parent = tr.add(sw.id, "client.sweep", 0, t0, t1,
						map[string]string{"cells": strconv.Itoa(len(outs)), "repeat": strconv.FormatBool(sw.repeat)})
				}
				childEnd := t1
				for _, out := range outs {
					sc := byKey[out.key]
					chk.check(sc, out)
					if out.hit {
						continue
					}
					allHit = false
					rg.fresh++
					cat := mixCategory(sc.Config.Benchmarks)
					rg.instrs += out.stats.Instructions
					rg.cycles += out.cycles
					rg.skipped += out.skipped
					rg.simSec += out.stats.SimSeconds
					rg.cellSec += out.stats.Seconds
					rg.catSim[cat] += out.stats.SimSeconds
					rg.catCycles[cat] += out.stats.Cycles
					if tr != nil {
						// The daemon's cost record of each fresh cell, laid
						// back to back before the stream's end: one
						// simulation worker runs a sweep's cells in turn.
						cs := childEnd.Add(-secs(out.stats.Seconds))
						id := tr.add(sw.id, "core.cell", parent, cs, childEnd, map[string]string{"cell": out.key})
						tr.add(sw.id, "pipeline.run", id, childEnd.Add(-secs(out.stats.SimSeconds)), childEnd, nil)
						childEnd = cs
					}
				}
				if allHit {
					rg.hitLat = append(rg.hitLat, lat)
				} else {
					rg.freshLat = append(rg.freshLat, lat)
				}
				mu.Unlock()

				if cl == 0 && n%svcScrapeEvery == 0 {
					_, el, serr := dmn.scrape()
					mu.Lock()
					if serr != nil {
						chk.rep.attempted++
						chk.rep.fail("scrape: %v", serr)
					} else {
						rg.scrapes = append(rg.scrapes, el.Seconds()*1000)
					}
					mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()
	rg.wall = time.Since(start).Seconds()
	if firstErr != nil {
		return rg, firstErr
	}
	rg.prom1, _, err = dmn.scrape()
	return rg, err
}

func runService(o options) (*report, error) {
	rep := newReport()
	warm, err := warmCells()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	stem := fmt.Sprintf("service-seed%d", o.seed)

	// Setup: daemon exec → /healthz 200 → a warm-up sweep that profiles
	// every (benchmark, budget). Repeated with fresh daemons and stores;
	// the last daemon serves the timed region.
	var (
		dmn                   *daemon
		setupTimes, profTimes []float64
		profiledPerSetup      uint64
	)
	benches, err := profileTargets(workload.Mixes())
	if err != nil {
		return nil, err
	}
	for _, b := range svcBudgets {
		profiledPerSetup += profLen(b) * uint64(len(benches))
	}
	for r := 0; r < svcSetupReps; r++ {
		if dmn != nil {
			dmn.stop()
		}
		t0 := time.Now()
		if dmn, err = startDaemon(o, strconv.Itoa(r)); err != nil {
			return nil, err
		}
		outs, _, err := dmn.sweep(fmt.Sprintf("perfbench-%d-warm%d", o.seed, r), warm)
		if err != nil {
			dmn.stop()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		t1 := time.Now()
		setupTimes = append(setupTimes, t1.Sub(t0).Seconds())
		var prof float64
		for _, out := range outs {
			if out.errMsg != "" {
				dmn.stop()
				return nil, fmt.Errorf("warm-up cell %s: %s", out.key, out.errMsg)
			}
			prof += out.stats.Seconds - out.stats.SimSeconds
		}
		profTimes = append(profTimes, prof)
		if tr != nil {
			tr.add(fmt.Sprintf("%s-setup%d", stem, r), "setup.daemon", 0, t0, t1, nil)
		}
	}
	defer dmn.stop()
	rep.set("setup_s", "s", setupTimes, "visasimd exec to /healthz 200 plus the warm-up sweep")
	rep.set("ace.profile_s", "s", profTimes, "warm-up cells' CellStats.Seconds - SimSeconds (synthesis, ACE profiling, assembly)")
	var profRates []float64
	for _, t := range profTimes {
		profRates = append(profRates, float64(profiledPerSetup)/t/1e6)
	}
	rep.set("ace.profile_minstr_per_s", "Minstr/s", profRates, "")

	chk := &svcChecker{rep: rep, byHash: map[string]string{}}
	if o.seed == shippedSeed {
		chk.recorded = recordedDigests("service")
	}
	gen := newSweepGen(o.seed, warm)
	var rg svcRegion
	if !o.trace {
		if rg, err = runSvcRegion(dmn, o.seconds, gen, chk, nil); err != nil {
			return nil, err
		}
	} else {
		plain, err := runSvcRegion(dmn, o.seconds/2, gen, chk, nil)
		if err != nil {
			return nil, err
		}
		if rg, err = runSvcRegion(dmn, o.seconds/2, gen, chk, tr); err != nil {
			return nil, err
		}
		if len(plain.freshLat) > 0 && len(rg.freshLat) > 0 {
			rep.setValue("trace.overhead_frac", "fraction", median(rg.freshLat)/median(plain.freshLat)-1,
				"traced over untraced median latency of sweeps with fresh cells, minus one")
		}
	}
	rss, err := peakRSSMB(strconv.Itoa(dmn.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	rep.setValue("peak_rss_mb", "MB", rss, "VmHWM of visasimd")

	if rg.wall == 0 || rg.sweeps == 0 {
		return nil, fmt.Errorf("the timed region ran no sweep")
	}
	rep.setValue("sim_minstr_per_s", "Minstr/s", float64(rg.instrs)/rg.wall/1e6,
		"committed instructions of freshly simulated cells per second of the timed region")
	rep.setValue("cells_per_s", "1/s", float64(rg.cells)/rg.wall, "hits and fresh cells")
	rep.set("sweep_p50_ms", "ms", rg.latencies, "submit to the stream's end event")
	pct, tail := tailPercentile(rg.latencies)
	rep.setValue("sweep_tail_ms", "ms", tail, fmt.Sprintf("p%d of %d sweeps", pct, len(rg.latencies)))

	if o.trace {
		svcLayers(rep, rg, tr)
		tr.write(filepath.Join(o.build, "traces", stem+".json"), rg.wall)
	}

	// Parity: a seeded sample of fresh cells, simulated in this process,
	// must be byte-identical to what the daemon served.
	prng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	for i := 0; i < svcRecheck && len(chk.records) > 0; i++ {
		c := chk.records[prng.Intn(len(chk.records))]
		rep.attempted++
		res, err := core.Run(c.cfg)
		if err != nil {
			rep.fail("parity %s: %v", c.key, err)
			continue
		}
		if d, err := resultDigest(res); err != nil || d != c.digest {
			rep.fail("parity %s: in-process result differs from the daemon's", c.key)
		}
	}
	if o.record != "" {
		if err := writeDigests(o.record, "service", chk.records); err != nil {
			return nil, err
		}
	}

	rep.params["budgets"] = svcBudgets
	rep.params["clients"] = svcClients
	rep.params["loop"] = "closed"
	rep.params["cells_per_fresh_sweep"] = svcCellsPerFull
	rep.params["repeat_fraction"] = svcRepeatFrac
	rep.params["cache_entries"] = svcCacheEntries
	rep.params["daemon_workers"] = 1
	rep.params["setup_reps"] = svcSetupReps
	rep.params["warm_cells"] = len(warm)
	rep.params["sweeps"] = rg.sweeps
	rep.params["cells"] = rg.cells
	rep.params["fresh_cells"] = rg.fresh
	rep.params["recheck_cells"] = svcRecheck
	return rep, nil
}

// svcLayers derives the per-layer numbers of a traced service region from
// /metrics/prom deltas and the stream bodies.
func svcLayers(rep *report, rg svcRegion, tr *tracer) {
	delta := func(name string) (float64, bool) {
		a, ok0 := rg.prom0[name]
		b, ok1 := rg.prom1[name]
		return b - a, ok0 && ok1
	}
	meanMs := func(metric, family string) {
		sum, ok1 := delta(family + "_sum")
		n, ok2 := delta(family + "_count")
		if ok1 && ok2 && n > 0 {
			rep.setValue(metric, "ms", sum/n*1000, family)
		}
	}
	meanMs("server.queue_wait_ms", "visasimd_queue_wait_seconds")
	meanMs("server.simulate_ms", "visasimd_simulate_seconds")
	cells, ok1 := delta("visasimd_cells_total")
	hits, ok2 := delta("visasimd_cache_hits_total")
	sHits, ok3 := delta("visasimd_store_hits_total")
	sMiss, ok4 := delta("visasimd_store_misses_total")
	if ok1 && ok2 && ok3 && cells > 0 {
		rep.setValue("server.cache_hit_ratio", "fraction", (hits-sHits)/cells, "in-memory hits over resolved cells")
	}
	if ok3 && ok4 && sHits+sMiss > 0 {
		rep.setValue("store.hit_ratio", "fraction", sHits/(sHits+sMiss), "")
	}
	if len(rg.hitLat) > 0 {
		rep.set("server.hit_sweep_ms", "ms", rg.hitLat, "sweeps whose every cell was a hit")
	}
	if len(rg.scrapes) > 0 {
		rep.set("obs.scrape_ms", "ms", rg.scrapes, "")
	}
	if rg.cells > 0 {
		rep.setValue("server.response_kb_per_cell", "KB", float64(rg.bytes)/1024/float64(rg.cells), "stream bytes per cell")
	}
	if rg.fresh > 0 {
		rep.setValue("core.cell_setup_ms", "ms", (rg.cellSec-rg.simSec)/float64(rg.fresh)*1000,
			"mean CellStats.Seconds - SimSeconds of fresh cells")
	}
	rep.setValue("pipeline.sim_s", "s", rg.simSec, "")
	if rg.instrs > 0 {
		rep.setValue("pipeline.ns_per_instr", "ns", rg.simSec/float64(rg.instrs)*1e9, "")
	}
	for cat, name := range map[workload.Category]string{workload.CatCPU: "cpu", workload.CatMIX: "mix", workload.CatMEM: "mem"} {
		if c := rg.catCycles[cat]; c > 0 {
			rep.setValue("pipeline.ns_per_cycle."+name, "ns", rg.catSim[cat]/float64(c)*1e9, "")
		}
	}
	if rg.cycles > 0 {
		rep.setValue("pipeline.skipped_cycle_frac", "fraction", float64(rg.skipped)/float64(rg.cycles), "")
	}
	var lat float64
	for _, l := range rg.latencies {
		lat += l / 1000
	}
	if lat > 0 {
		self := tr.selfTimes()
		// The client.sweep residual (HTTP, JSON, queueing, hits) is what is
		// left unattributed.
		rep.setValue("trace.attributed_frac", "fraction", (self["core"]+self["pipeline"])/lat,
			"core.cell and pipeline.run span self time over summed sweep latency")
		rep.setValue("core.self_share", "fraction", self["core"]/lat, "span self time over summed sweep latency")
		rep.setValue("pipeline.self_share", "fraction", self["pipeline"]/lat, "span self time over summed sweep latency")
	}
}
