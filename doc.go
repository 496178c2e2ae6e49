// Package lapses reproduces "LAPSES: A Recipe for High Performance
// Adaptive Router Design" (Vaidya, Sivasubramaniam, Das; HPCA 1999) as a
// Go library: a cycle-level wormhole-network simulator with the paper's
// PROUD/LA-PROUD pipelined router models, Duato's fully adaptive routing,
// the LRU/LFU/MAX-CREDIT path-selection heuristics, and the full-table /
// meta-table / economical-storage / interval routing-table organizations.
//
// The public entry point is internal/core (Config, Run); experiment grids
// execute through internal/sweep, a deterministic concurrent grid runner
// with ordered results and a config-keyed memo cache (see README.md's
// "The sweep engine"). See README.md for a tour of the architecture and
// of every table and figure; cmd/lapses-experiments regenerates each of
// them, and "go run ./benchmark" measures the stack's own speed.
//
// Construction is organised as a few bulk operations: a structure's
// routing is programmed once as one table.Routes every router shares (one
// 3^n-entry sign row on a mesh; table.Program) and cached per process
// behind a single-flight (core's plumbing cache, 64 structures), and a
// run's network — routers, NIs, fabric bindings,
// traffic sources — is one arena of slabs (router.Block,
// traffic.Sources) that is reset, not rebuilt, between points. What
// sizes the slabs is the network's shape (network.Shape: nodes, ports,
// VCs, buffer depths, kernel, reliability on or off; the VCs and buffer
// depths are Table 2's core.VCs, core.BufDepth and core.OutDepth for
// every run, and the link delay is the kernel's constant
// network.LinkDelay); everything
// else is the point — tables, selection, look-ahead, load,
// pattern, seed, faults — and network.Reset, the only initialiser a
// network has (New is alloc + Reset), rewrites it in place. core.Run
// checks an idle arena of the point's shape out of a bounded
// process-wide free list, resets it, runs it, and returns it only after
// reading the Result out and never after a panic, so a point's fixed
// cost is what the point changes: a warm 16x16 one-message run
// allocates 17 objects and 6 KB (it was 497 and 2.6 MB), and the
// repository benchmark's kernel-short went from 0.754 to 0.657
// calibrated seconds per pass (-13%, 10 of 10 alternating pairs; peak
// RSS 67 -> 43 MB; CHANGES.md "PR 22"), results bit-identical. Each
// layer stores what is distinct, once: a structure's routing is one
// shared lookup whatever table organization it models (the organizations
// differ only in their storage cost, table.Kind.Entries), a router buffer
// is a ring of (message, first sequence number, count) runs from which
// flits are rebuilt (flow.FlitAt), and everything a router keeps per
// output port is one record. See README.md "Cost of a point".
//
// Inside a router no stage scans for work: the crossbar's requests per
// output port, the output multiplexer's and the free output VCs are bit
// masks the router edits at the events that change them (allocation,
// arrival into a drained buffer, a box filling or draining, a credit, a
// release), so a cycle costs O(ports with a request) and a blocked worm
// costs nothing until it is unblocked. On the repository benchmark that
// took kernel-congested (runs at and past saturation) from 0.877 to
// 0.691 calibrated seconds per round (-21%, 10 of 10 alternating pairs)
// and kernel-flow from 1.01 to 0.898 (-11%), results bit-identical. See
// README.md "Saturated points: standing requests".
//
// Beyond the paper's healthy-network evaluation, internal/fault models
// degraded topologies as one representation, a fault schedule of failed
// links and routers (a static plan is its one-epoch case; timed items fail
// and heal mid-run), threaded through routing (up*/down* escape over the
// live graph, Duato adaptivity on live minimal ports), the routes every
// table organization shares (one per epoch, looked up from the fault-aware
// function itself), and the fabric (gated dead ports, inert NIs, and at
// each timed transition a purge, a routes swap and a credit recompute).
// The resilience
// experiment (cmd/lapses-experiments -exp
// resilience) measures saturation throughput and latency versus the
// number of failed links, showing the adaptive recipe sustaining 1.5-2.3x
// deterministic routing's throughput at four or more failures — the
// degraded regime adaptive routing is designed for, which the original
// evaluation never exercises.
//
// Measurement follows the paper's section 2.2: a fixed count of warm-up
// messages is excluded and statistics cover a fixed count of measured
// messages; internal/stats supplies streaming moments, the latency
// histogram and batch-means confidence intervals (Result.CI95).
// Result.SkippedCycles — the idle cycles fast-forward jumped over — is
// simulated time like any other: the jump happens only when provably
// nothing is in flight.
//
// Saturation points are located by bisection instead of dense load
// grids: sweep.Bisect brackets the saturation load and narrows it by
// parallel k-section, with probes classified by acceptance (delivered
// throughput versus offered; sweep.OfferedFracSaturated) under
// load-scaled cycle budgets built by experiments.SaturationSpec. An
// experiment's searches advance in lockstep (sweep.BisectAll): each
// round of all of them is one executor call, so they reuse the sweep
// memo cache, -workers bounds every probe, and a served experiment costs
// one job per round. A search is deterministic for any worker count and
// costs a logarithmic number of probes — measured >= 2x fewer simulated
// cycles than a dense scan of the load axis, pinned by
// TestBisectCycleReduction against a live one. The resilience, scaling and congestion
// experiments and the saturation claims tests all report saturation
// through it.
//
// A single run is one scheduler on one goroutine: each cycle drains the
// due credit and flit events and ticks the active NIs and routers in
// ascending node order; the order-sensitive work — message ID assignment,
// arrivals and losses reaching the statistics — happens inline, in that
// execution order, with no end-of-cycle barrier. Parallelism lives one
// level up, in internal/sweep, whose
// worker pool (GOMAXPROCS wide by default) runs independent points
// concurrently with results that do not depend on the pool width. Within
// a run, idle-cycle fast-forward jumps the clock straight to the next NI
// wake whenever the network is globally empty: no events in flight and
// both active sets empty, which between steps means no buffered flits and
// no queued messages (the sets, not counters, answer it). It is
// observationally neutral
// and pays only on long empty stretches (drain tails, sparse traces, loads
// of 0.001 and below): a stepped idle cycle costs 15-32 ns. The scaling
// experiment (cmd/lapses-experiments -exp scaling) locates the saturation
// point from 8x8 to 32x32 meshes; host time per mesh size is the benchmark
// harness's to measure (go run ./benchmark).
//
// core.Config.EventMode selects the event-driven kernel: whole-message
// transfers collapse into single "worm" events (one event, one batched
// credit, one deferred VC release per uncontended hop), with any hop the
// router cannot absorb in O(1) unpacking back onto the unchanged
// cycle-accurate path. It runs several times the cycles/sec with
// throughput within fractions of a percent of the cycle kernel, but it is
// not bit-identical, and its mean latency is biased low: 1.65-6.03 cycles
// below cycle mode in 24 of 24 seeded runs, 11 of them outside the
// combined 95% CI, and -1.5% to -3.9% on a 16x16 LA-PROUD mesh. So
// Config.Key() marks it (",ev"), and only single runs opt in: lapses-sim
// -events and the benchmark's kernel-event workload. The experiments,
// served points and goldens, whose answers become paper tables and stored
// results, run on the cycle kernel. See README.md "Execution modes".
//
// internal/serve turns the sweep engine into a fault-tolerant service
// (cmd/lapses-serve): grid jobs arrive over HTTP/JSON, are leased one
// point a lease to workers (in-process, or worker processes in cluster
// mode), and
// every completed point persists to a crash-safe, content-addressed
// store keyed by Config.Key within one core.SemanticsVersion (an answer
// of other semantics is a miss, never served) — atomic temp-file+rename
// writes, per-entry checksums, and a startup recovery scan that quarantines corrupt
// entries rather than serving them, so a kill -9 loses only in-flight
// points and resubmitted jobs resume from disk. A failing or panicking
// point fails alone (the simulator is deterministic, so no point is
// retried); a leased point whose worker went silent, or drained before
// starting it, is requeued under a bounded attempt budget; the job queue applies 429
// backpressure; and SIGTERM drains in-flight points before exit.
// serve.Client.Run satisfies sweep.RunFunc, which
// experiments.Runner.Exec and sweep.Options.Exec accept —
// lapses-experiments -server routes every grid and saturation-search
// probe through a server byte-identically to the in-process path. See
// README.md "Service mode".
package lapses
