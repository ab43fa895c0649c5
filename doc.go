// Package ammboost is the root of the ammBoost reproduction: a state growth
// control and throughput boosting layer-2 for automated market makers, per
// "ammBoost: State Growth Control for AMMs" (DSN 2025).
//
// Clients program against the unified node API in internal/chain: a single
// chain.Chain interface with receipt-returning submission, typed
// lifecycle errors out of Run, and subscribable epoch lifecycle events.
// Every node runs one lifecycle, the sharded core.MultiSystem, and every
// epoch syncs through one verification path: MultiBank's signed sync
// parts. The constructor picks the deposit source. cmd/ammnode, Open and
// most examples fund trades from MultiBank's accounting; core.NewDriver —
// the paper's experiments and the tradingday, rollupcompare and failover
// examples — runs one pool against the paper's TokenBank, which embeds
// the MultiBank and adds the ERC20 custody and on-chain deposit flow. A
// storeless node of either kind recovers a skipped Sync by mass-sync:
// the lost epoch's signed parts are held and go out just before the next
// epoch's.
//
// Submission is a concurrent serving path: Submit(ctx, tx) and
// SubmitBatch(ctx, txs) are safe from any number of producer
// goroutines while the lifecycle runs. Admitted transactions land in a
// bounded mempool, one locked buffer in admission order, drained at
// round boundaries in that canonical global order (an N-producer run
// replays bit-identically from its arrival log — DESIGN.md invariant
// 13); a saturated node pushes back with typed, programmable errors
// instead of blocking forever.
// Backpressure quickstart:
//
//	res, err := node.SubmitBatch(ctx, batch) // partial-accept
//	if err != nil { // whole batch refused: halted, closed, ctx done
//	    return err
//	}
//	for i, e := range res.Errs {
//	    var ae *chain.AdmissionError
//	    if errors.Is(e, chain.ErrMempoolFull) && errors.As(e, &ae) {
//	        // Admission is order-preserving: the tail from i on was
//	        // refused. Resubmit it after the hint (the drain cadence).
//	        time.Sleep(ae.RetryAfter)
//	        res, err = node.SubmitBatch(ctx, batch[i:])
//	        break
//	    }
//	}
//
// Submit(ctx, tx) is the same admission path with a batch of one (see
// the benchmark module bench/ for a multi-producer client, internal/ingest
// for the mempool front end behind it, and chain.Config's IngestCapacity
// / IngestMaxWait fields for the admission policy knobs).
//
// The lifecycle is pipelined: a finished
// epoch's commitment build, sync chunking, and TSQC signing run on an
// asynchronous commit stage, bounded by a backpressured in-flight window
// of chain.Config.PipelineDepth epochs (default 2). With depth >= 2 the
// stage overlaps the next epoch's execution; depth 1 is a window of one,
// which retires each epoch as soon as it seals. Every depth starts epochs
// on the round grid and is bit-identical in every computed artifact —
// epoch summary roots and sync payload digests; the depth changes
// timing, never state.
//
// Multi-pool deployments are durable: core.Open(dir, cfg) opens (or
// creates) an append-only epoch store and returns a node that persists
// every retired epoch — pool snapshots, summary roots, payload digests,
// the receipt table, and the TSQC-signed sync-part log. A node killed at
// any point reopens from the newest valid snapshot, replays the sync
// log through the bank's verification chain, and resumes Run with
// summary roots and payload digests bit-identical to an uninterrupted
// run (DESIGN.md invariant 9). Recovery quickstart:
//
//	cfg := chain.Config{NumPools: 16, Users: users}
//	node, err := core.Open(dataDir, cfg) // fresh dir or crash survivor
//	if ms, ok := node.(*core.MultiSystem); ok && ms.Recovery() != nil {
//	    log.Printf("recovered at epoch %d", ms.Recovery().Epoch)
//	}
//	rep, err := node.Run(totalEpochs) // resumes mid-lifecycle
//	err = node.Close()
//
// (see cmd/ammnode -data-dir and examples/crashrecovery for the
// recovery-aware traffic pattern: derive epoch e's workload from
// (seed, e) so restarted nodes regenerate the same stream).
//
// Durable deployments restart at scale: with chain.Config.CompactEvery
// set to n the store folds its history into a checkpoint every n confirmed
// epochs (crash-atomically, via write-temp-fsync-rename), so Open's
// cost stays flat no matter how long the node has run. The compacted
// image doubles as the fast-sync unit — a fresh node bootstraps from a
// peer's exported snapshot and resumes at the peer's epoch without
// executing its history, bit-identical to a node that lived through
// the whole deployment (DESIGN.md invariant 14). Fast-sync quickstart:
//
//	// on the peer (at rest, after Run returns):
//	snap, err := peer.(chain.Compactor).ExportSnapshot()
//	// on the joining node (freshDir must not already hold a store):
//	node, err := core.Bootstrap(freshDir, snap, cfg) // same cfg params
//	rep, err := node.Run(totalEpochs) // resumes at the peer's epoch
//
// The snapshot is untrusted input: Bootstrap re-derives the boundary
// committee from the seed, recomputes pool roots, and TSQC-verifies the
// tail, so a tampered image fails with chain.ErrCorruptStore (see
// examples/fastsync and cmd/ammnode -compact-every / -bootstrap-from).
//
// Every node is observable: attach a lifecycle tracer via
// chain.Config.Tracer and the run report gains per-stage latency
// quantiles, a shard-imbalance gauge, and pipeline-stall attribution —
// trace.Summarize over the retained spans, the fold /metrics serves —
// while the tracer itself exports Chrome trace-event JSON (Perfetto-
// loadable, one track per lifecycle stage and per execute shard).
// Tracing is safe to leave on: a nil tracer costs zero allocations,
// an attached one is bit-identical to the untraced run (DESIGN.md
// invariant 10) and retains a bounded epoch window. Quickstart:
//
//	tr := trace.New(8) // retain the newest 8 epochs
//	cfg := chain.Config{NumPools: 16, Tracer: tr, ...}
//	// ... run the node ...
//	tr.WriteChrome(f, 0) // trace.json for Perfetto
//
// cmd/ammnode serves the same telemetry live: `ammnode -admin
// 127.0.0.1:6060` exposes /healthz, /metrics (epoch height, event
// counters, per-stage p50/p95/p99), /trace?epochs=N (Chrome trace
// JSON for the newest N epochs), and /debug/pprof; see
// examples/tracing for the end-to-end export-and-summarize flow.
//
// The example binaries and the experiments harness are built on that
// surface, type-asserting to core.MultiSystem only for its traffic hook
// and recovery state; see DESIGN.md for the system inventory (including
// the chain layer, the sharded multi-pool engine and its per-pool state
// roots, the pipelined lifecycle, the durable store, and the
// observability surface) and EXPERIMENTS.md for the paper-vs-measured
// results and the serving-path benchmark (bench/, BENCHMARK.json)
// measurements.
package ammboost
