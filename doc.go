// Package visasim reproduces "Optimizing Issue Queue Reliability to Soft
// Errors on Simultaneous Multithreaded Architectures" (Fu, Zhang, Li,
// Fortes — ICPP 2008) as a complete, deterministic SMT processor
// simulation stack written against the Go standard library, and grows it
// into a servable simulation system.
//
// # What the paper shows
//
// The shared issue queue (IQ) of an SMT processor is its soft-error
// hot-spot: it concentrates architecturally-correct-execution (ACE) bits
// for long residencies. The paper profiles each static instruction offline
// as ACE/un-ACE, feeds that 1-bit tag to issue priority (VISA), caps IQ
// allocation per control interval (opt1/opt2), and closes the loop with a
// feedback controller holding runtime IQ AVF below a target (DVM).
//
// # Layers
//
// The implementation lives under internal/ in four layers:
//
//   - Substrate — isa, program, trace, workload: a synthetic instruction
//     set, deterministic SPEC2000-like program generation, functional
//     execution into committed-path streams, and Table 3's workload mixes.
//   - Microarchitecture — config, cache, branch, uarch, pipeline: the
//     Table 2 machine; an 8-wide cycle-driven SMT core with five fetch
//     policies, wrong-path execution and squash, and bit-level AVF
//     accounting (avf) validated by statistical fault injection (inject).
//   - Paper mechanisms — ace (offline ACE analysis and per-PC tagging),
//     alloc (opt1/opt2 dispatch controllers), dvm (dynamic vulnerability
//     management), all assembled behind the core facade: one
//     core.Config in, one core.Result out.
//   - Experiment & service layer — harness (parallel sweep runner),
//     experiments (every table and figure), report (ASCII rendering),
//     server (the visasimd HTTP daemon with a job queue, a
//     content-addressed result cache, Prometheus metrics, and the
//     submit-and-stream client), store (a
//     persistent on-disk result store keyed by the same content hashes),
//     and dispatch (a coordinator sharding sweeps across several daemons
//     with retry, failover, and checkpointed resume).
//
// # Determinism as a load-bearing property
//
// Every (workload, seed, configuration) tuple reproduces bit-identically;
// the harness parallelises only across independent simulations, never
// within one. Golden tests (testdata/golden) pin byte-exact result
// summaries, which is what makes the service's result cache sound: a
// core.Config content hash (core.Config.Hash) fully determines its
// core.Result, so a cached result is indistinguishable from re-running.
//
// # Entry points
//
// Commands: cmd/visasim (one simulation), cmd/avfprof (offline profiling),
// cmd/faultsim (injection campaigns), cmd/tracedump (stream inspection),
// cmd/experiments (regenerate every table/figure or run a batch of cells,
// optionally through a static list of one or more daemons via -backends,
// and probe those daemons' health), and cmd/visasimd (the simulation
// service, optionally store-backed via -store; a client submits to POST
// /v1/sweeps, then reads the job's event stream).
// Runnable examples live under examples/; this root package holds the
// golden, parity and determinism tests. Simulator throughput is measured
// by the repository benchmark under perfbench/.
package visasim
