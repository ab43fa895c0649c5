package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ammboost/internal/core"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
)

// perLayer is the per-layer metric table, grouped by the repo's modules.
// BENCHMARK.json carries the same names, units and directions. Every
// workload prints every name; layers a workload bypasses read zero (the
// store.* rows anywhere but on durable).
var perLayer = []metricDef{
	// ingest: the admission front end.
	{Name: "ingest.submit_batch_us_p50", Unit: "us", Better: "lower"},
	{Name: "ingest.submit_batch_us_p99", Unit: "us", Better: "lower"},
	{Name: "ingest.blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "ingest.peak_depth", Unit: "count", Better: "lower"},
	{Name: "ingest.rej_full", Unit: "count", Better: "lower"},
	{Name: "ingest.throttled", Unit: "count", Better: "lower"},
	{Name: "ingest.admit_ns_per_tx_1p", Unit: "ns", Better: "lower"},
	{Name: "ingest.admit_ns_per_tx_2p", Unit: "ns", Better: "lower"},
	{Name: "ingest.drain_ns_per_tx", Unit: "ns", Better: "lower"},
	// engine: sharded execution, seal, commitment build.
	{Name: "engine.execute_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.execute_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "engine.shard_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "engine.seal_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "engine.commit_build_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "engine.replay_execute_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "engine.replay_seal_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "engine.replay_finalize_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "engine.fold_roots_us", Unit: "us", Better: "lower"},
	// summary / amm / u256: one transaction's execution, by kind.
	{Name: "summary.apply_ns_per_tx.swap", Unit: "ns", Better: "lower"},
	{Name: "summary.apply_ns_per_tx.mint", Unit: "ns", Better: "lower"},
	{Name: "summary.apply_ns_per_tx.burn", Unit: "ns", Better: "lower"},
	{Name: "summary.apply_ns_per_tx.collect", Unit: "ns", Better: "lower"},
	{Name: "summary.apply_allocs_per_tx.swap", Unit: "count", Better: "lower"},
	{Name: "summary.apply_allocs_per_tx.mint", Unit: "count", Better: "lower"},
	{Name: "summary.apply_allocs_per_tx.burn", Unit: "count", Better: "lower"},
	{Name: "summary.apply_allocs_per_tx.collect", Unit: "count", Better: "lower"},
	{Name: "amm.swap_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "u256.muldiv_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "u256.muldiv_allocs_per_op", Unit: "count", Better: "lower"},
	// tsig: threshold signing of sync parts.
	{Name: "tsig.sign_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "tsig.sign_parts_per_epoch", Unit: "count", Better: "lower"},
	{Name: "tsig.sign_ms_per_part", Unit: "ms", Better: "lower"},
	{Name: "tsig.verify_ms_per_part", Unit: "ms", Better: "lower"},
	{Name: "tsig.deal_ms_per_epoch", Unit: "ms", Better: "lower"},
	// store: the durable epoch log (zero unless the workload is durable).
	{Name: "store.encode_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "store.append_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "store.fsync_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_per_epoch", Unit: "B", Better: "lower"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.export_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "store.bootstrap_ms", Unit: "ms", Better: "lower"},
	// mainchain / sidechain: the paper's cost and growth, per epoch.
	{Name: "mainchain.gas_per_epoch", Unit: "gas", Better: "lower"},
	{Name: "mainchain.bytes_per_epoch", Unit: "B", Better: "lower"},
	{Name: "mainchain.sync_parts_per_epoch", Unit: "count", Better: "lower"},
	{Name: "mainchain.sync_submit_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "sidechain.peak_bytes", Unit: "B", Better: "lower"},
	{Name: "sidechain.retained_bytes", Unit: "B", Better: "lower"},
	{Name: "sidechain.pruned_bytes", Unit: "B", Better: "higher"},
	// core: the lifecycle that ties the layers together.
	{Name: "core.epochs", Unit: "count", Better: "lower"},
	{Name: "core.txs_per_epoch", Unit: "count", Better: "higher"},
	{Name: "core.exec_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.submit_drain_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.chunk_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "core.prune_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "core.pipeline_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pipeline_occupancy", Unit: "ratio", Better: "lower"},
	{Name: "core.cpu_s_per_mtx", Unit: "s", Better: "lower"},
	{Name: "core.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "core.replay_txs_per_s", Unit: "tx/s", Better: "higher"},
	{Name: "core.traced_cpu_share", Unit: "ratio", Better: "higher"},
	// trace / workload: the harness's own layers.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "workload.gen_ns_per_tx", Unit: "ns", Better: "lower"},
}

// blockedAfter is the SubmitBatch duration above which a call counts as
// having waited at the admission wall: a batch of 64 admits in a few
// microseconds when the mempool has room.
const blockedAfter = 100 * time.Microsecond

// tracedRun is the -trace 1 run: one untraced trial (the overhead
// baseline), the same trial again with the tracer and the arrival log
// attached, a single-goroutine replay of the recorded arrival order (the
// correctness oracle and the single-threaded baseline), and the isolated
// layer drives on the recorded transactions. Nothing measured here mixes
// into the end-to-end numbers.
func tracedRun(w spec, seed int64, outDir string, opts trialOpts) (*report, *result, error) {
	rep := newReport(w, seed, true)
	m := make(map[string]float64, len(perLayer))
	ts := trialSeed(seed, 0)

	plain, err := runTrial(w, ts, opts)
	if err != nil {
		return nil, nil, err
	}
	rep.addTrial(plain, 0)
	opts.traced = true
	t, err := runTrial(w, ts, opts)
	if err != nil {
		return nil, nil, err
	}
	rep.addTrial(t, 1)
	m["trace.overhead_pct"] = 100 * (t.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	m["workload.gen_ns_per_tx"] = perOp(plain.gen, plain.offered)

	t.spanMetrics(m)
	replayRate, misses, err := replay(w, t)
	if err != nil {
		return nil, nil, err
	}
	m["core.replay_txs_per_s"] = replayRate
	for _, miss := range misses {
		rep.GateMisses = append(rep.GateMisses, "replay: "+miss)
	}
	if err := driveLayers(w, t, m); err != nil {
		return nil, nil, err
	}
	if outDir != "" {
		if err := writeTraces(outDir, w.name, t); err != nil {
			return nil, nil, err
		}
	}

	res := &result{Metrics: make(map[string]metricValue, len(perLayer))}
	for _, def := range perLayer {
		v := m[def.Name]
		rep.Metrics = append(rep.Metrics, metricReport{metricDef: def, Value: v, Min: v, Max: v})
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	rep.finish(res)
	return rep, res, nil
}

// spanMetrics aggregates the traced trial's lifecycle spans, report
// counters and bench-side spans into the per-layer metrics. Stage numbers
// come from Tracer.Snapshot span records, not Report.Stages, whose
// sync-confirm row is virtual time (README, "found while building" (c)).
func (t *trial) spanMetrics(m map[string]float64) {
	epochs := float64(max(t.epochs, 1))
	var busy [16]time.Duration
	var stageTxs, stageBytes [16]int
	shardBusy := make(map[uint64][]time.Duration) // per epoch, per shard span
	for _, sp := range t.tracer.Snapshot(0) {
		busy[sp.Stage] += sp.Dur
		stageTxs[sp.Stage] += sp.Txs
		stageBytes[sp.Stage] += sp.Bytes
		if sp.Stage == trace.StageExecute {
			shardBusy[sp.Epoch] = append(shardBusy[sp.Epoch], sp.Dur)
		}
	}
	perEpoch := func(s trace.Stage) float64 { return ms(busy[s]) / epochs }

	sort.Slice(t.submitSpans, func(i, j int) bool { return t.submitSpans[i] < t.submitSpans[j] })
	us := make([]float64, len(t.submitSpans))
	blocked := 0
	for i, d := range t.submitSpans {
		us[i] = float64(d) / float64(time.Microsecond)
		if d >= blockedAfter {
			blocked++
		}
	}
	m["ingest.submit_batch_us_p50"] = percentile(us, 50)
	m["ingest.submit_batch_us_p99"] = percentile(us, 99)
	m["ingest.blocked_share"] = float64(blocked) / float64(max(len(us), 1))
	m["ingest.peak_depth"] = float64(t.rep.IngestPeak)
	m["ingest.rej_full"] = float64(t.rep.IngestRejFull)
	m["ingest.throttled"] = float64(t.rep.IngestThrottled)

	m["engine.execute_busy_ms"] = ms(busy[trace.StageExecute])
	m["engine.execute_ns_per_tx"] = perOp(busy[trace.StageExecute], stageTxs[trace.StageExecute])
	// Imbalance: per epoch, the busiest shard's execute time over the
	// mean across the configured shards (1.0 = balanced), averaged.
	imbalance := 0.0
	for _, shards := range shardBusy {
		var sum, top time.Duration
		for _, d := range shards {
			sum += d
			top = max(top, d)
		}
		if sum > 0 {
			imbalance += float64(top) * numShards / float64(sum)
		}
	}
	m["engine.shard_imbalance"] = imbalance / float64(max(len(shardBusy), 1))
	m["engine.seal_ms_per_epoch"] = perEpoch(trace.StageSeal)
	m["engine.commit_build_ms_per_epoch"] = perEpoch(trace.StageCommitBuild)

	parts := float64(stageTxs[trace.StageSign]) / epochs
	m["tsig.sign_busy_ms"] = ms(busy[trace.StageSign])
	m["tsig.sign_parts_per_epoch"] = parts

	m["store.encode_ms_per_epoch"] = perEpoch(trace.StageEncode)
	m["store.append_ms_per_epoch"] = perEpoch(trace.StageStoreAppend)
	m["store.fsync_ms_per_epoch"] = perEpoch(trace.StageStoreFsync)
	m["store.bytes_per_epoch"] = float64(stageBytes[trace.StageEncode]) / epochs
	m["store.compact_ms"] = ms(t.compact)
	m["store.open_ms"] = ms(t.reopen)
	m["store.export_ms"] = ms(t.export)
	m["store.snapshot_bytes"] = float64(t.snapshotBytes)
	m["store.bootstrap_ms"] = ms(t.bootstrap)

	m["mainchain.gas_per_epoch"] = float64(t.rep.MainchainGas) / epochs
	m["mainchain.bytes_per_epoch"] = float64(t.rep.MainchainBytes) / epochs
	m["mainchain.sync_parts_per_epoch"] = parts
	m["mainchain.sync_submit_ms_per_epoch"] = perEpoch(trace.StageSyncSubmit)
	m["sidechain.peak_bytes"] = float64(t.rep.SidechainPeakBytes)
	m["sidechain.retained_bytes"] = float64(t.rep.SidechainRetainedBytes)
	m["sidechain.pruned_bytes"] = float64(t.rep.SidechainPrunedBytes)

	m["core.epochs"] = float64(t.epochs)
	m["core.txs_per_epoch"] = float64(t.pruned) / epochs
	m["core.exec_latency_p50_ms"] = percentile(t.execMs, 50)
	m["core.submit_drain_busy_ms"] = ms(busy[trace.StageSubmit])
	m["core.chunk_ms_per_epoch"] = perEpoch(trace.StageChunk)
	m["core.prune_ms_per_epoch"] = perEpoch(trace.StagePrune)
	m["core.pipeline_stall_ms"] = ms(t.rep.PipelineStallWall)
	m["core.pipeline_occupancy"] = t.rep.PipelineOccupancy
	m["core.cpu_s_per_mtx"] = t.cpu.Seconds() / float64(max(t.offered, 1)) * 1e6
	m["core.heap_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	// Everything the tracer covers that is work rather than waiting:
	// sync-confirm is elapsed time overlapping later epochs and
	// pipeline-stall is the run loop blocked, so neither is CPU.
	var work time.Duration
	for s := trace.StageSubmit; s <= trace.StagePrune; s++ {
		if s != trace.StageSyncConfirm {
			work += busy[s]
		}
	}
	m["core.traced_cpu_share"] = work.Seconds() / max(t.cpu.Seconds(), 1e-9)
}

// replay feeds the traced trial's arrival log back through a fresh
// single-goroutine node (one shard, pipeline depth 1, no store, no
// producers): boundary k's transactions are injected on the simulator
// goroutine right before round k's drain, exactly as the concurrent run
// drained them. Its wall-clock rate is the single-threaded baseline, and
// its per-epoch summary roots must equal the two-producer run's
// (DESIGN.md invariant 13).
func replay(w spec, t *trial) (txsPerS float64, misses []string, err error) {
	cfg := t.cfg
	cfg.NumShards, cfg.PipelineDepth = 1, 1
	cfg.Tracer, cfg.ArrivalLog = nil, nil
	cfg.CompactEvery = 0
	// The simulator goroutine is both producer and consumer here, so it
	// must never block on a drain only it can perform.
	cfg.IngestCapacity, cfg.IngestMaxWait = 0, -1
	sys, err := core.NewMultiSystem(cfg, t.users)
	if err != nil {
		return 0, nil, fmt.Errorf("replay node: %w", err)
	}
	log := t.arrivals
	ctx := context.Background()
	accepted := 0
	inject := func(txs []*summary.Tx) {
		res, err := sys.SubmitBatch(ctx, txs)
		if err != nil {
			misses = append(misses, fmt.Sprintf("submit: %v", err))
			return
		}
		accepted += res.Accepted
	}
	if txs := log.Txs(0); len(txs) > 0 {
		sys.Sim().At(0, func() { inject(txs) })
	}
	boundary := 0
	sys.OnRoundStart = func(epoch, round uint64) {
		boundary++
		if txs := log.Txs(boundary); len(txs) > 0 {
			sys.Sim().At(sys.Sim().Now(), func() { inject(txs) })
		}
	}
	start := time.Now()
	rep, runErr := sys.Run(1)
	wall := time.Since(start)
	if runErr != nil {
		misses = append(misses, fmt.Sprintf("Run: %v", runErr))
	}
	if accepted != log.Total() {
		misses = append(misses, fmt.Sprintf("accepted %d of %d logged txs", accepted, log.Total()))
	}
	if err := sys.Validate(); err != nil {
		misses = append(misses, fmt.Sprintf("Validate: %v", err))
	}
	if rep != nil {
		want := t.rep.SummaryRoots
		if len(rep.SummaryRoots) != len(want) {
			misses = append(misses, fmt.Sprintf("%d summary roots, two-producer run has %d", len(rep.SummaryRoots), len(want)))
		}
		for e, root := range want {
			if rep.SummaryRoots[e] != root {
				misses = append(misses, fmt.Sprintf("epoch %d summary root differs from the two-producer run", e))
			}
		}
	}
	return float64(accepted) / wall.Seconds(), misses, sys.Close()
}

// writeTraces writes the traced trial's lifecycle spans (the node's own
// Chrome trace export) and the bench-side spans around the calls into the
// node as two Chrome trace-event files under dir.
func writeTraces(dir, name string, t *trial) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+"-lifecycle.json"))
	if err != nil {
		return err
	}
	if err := t.tracer.WriteChrome(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, len(t.spans))
	for i, sp := range t.spans {
		events[i] = event{sp.name, "X", float64(sp.start) / 1e3, float64(sp.dur) / 1e3, 1, 1}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+"-bench.json"), b, 0o644)
}
