// Command ammnode runs a live ammBoost deployment at demo scale and logs
// the epoch lifecycle — committee election, meta-block rounds, summary
// blocks, TSQC-authenticated syncs, and pruning — from the node's event
// stream (chain.Subscribe), so the chain dynamics are observable end to
// end exactly as a client would see them.
//
// Usage:
//
//	ammnode [-epochs N] [-daily V] [-committee N] [-seed S] [-v]
//	ammnode -data-dir DIR -pools N [...]            # durable multi-pool node
//	ammnode -data-dir DIR -pools N -kill-at-epoch E # die after epoch E persists
//	ammnode -data-dir DIR -pools N -compact-every K # checkpoint every K epochs
//	ammnode -data-dir DIR -pools N -bootstrap-from PEER/ammboost.store
//
// With -data-dir the node runs the sharded multi-pool backend and
// persists every retired epoch to an append-only store in DIR. Re-running
// with the same flags resumes from the newest valid snapshot — try the
// kill/restart demo:
//
//	ammnode -data-dir /tmp/amm -pools 16 -epochs 6 -kill-at-epoch 3
//	ammnode -data-dir /tmp/amm -pools 16 -epochs 6   # recovers, runs 4-6
//
// -compact-every K rewrites the log as [header, checkpoint, tail] every K
// confirmed epochs, so restart cost stays flat no matter how long the
// node has run. -bootstrap-from seeds a FRESH -data-dir from a peer's
// store image (its ammboost.store file, ideally freshly compacted) and
// resumes from the peer's epoch instead of epoch 0 — the fast-sync path;
// the config must match the peer's chain parameters.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

func main() {
	epochs := flag.Int("epochs", 4, "epochs to run")
	daily := flag.Int("daily", 500_000, "daily transaction volume (V_D)")
	committee := flag.Int("committee", 20, "sidechain committee size")
	seed := flag.Int64("seed", 1, "deterministic run seed")
	verbose := flag.Bool("v", false, "log meta-blocks and per-op gas")
	dataDir := flag.String("data-dir", "", "durable store directory (enables the multi-pool persistent node)")
	pools := flag.Int("pools", 0, "registered pools (required with -data-dir)")
	killAt := flag.Int("kill-at-epoch", 0, "exit abruptly (kill -9 style) once epoch N has persisted")
	compactEvery := flag.Int("compact-every", 0, "compact the durable store every N confirmed epochs (0 = never; requires -data-dir)")
	bootstrapFrom := flag.String("bootstrap-from", "", "fast-sync a fresh -data-dir from this peer store image (a compacted ammboost.store file)")
	adminAddr := flag.String("admin", "", "serve the telemetry surface (/metrics /healthz /trace /debug/pprof) on this address, e.g. 127.0.0.1:6060; the process stays alive after the run until SIGINT")
	flag.Parse()

	if *dataDir != "" {
		os.Exit(runDurable(*dataDir, *pools, *epochs, *daily, *committee, *seed, *killAt, *compactEvery, *bootstrapFrom, *verbose, *adminAddr))
	}
	if *compactEvery > 0 || *bootstrapFrom != "" {
		fmt.Fprintln(os.Stderr, "ammnode: -compact-every and -bootstrap-from require -data-dir (they act on the durable store)")
		os.Exit(2)
	}

	var tr *trace.Tracer
	cfgOpts := []chain.Option{
		chain.WithSeed(*seed),
		chain.WithEpochRounds(30),
		chain.WithRoundDuration(7 * time.Second),
		chain.WithCommittee(*committee),
	}
	if *adminAddr != "" {
		tr = trace.New(16)
		cfgOpts = append(cfgOpts, chain.WithTracer(tr))
	}
	sysCfg := chain.NewConfig(cfgOpts...)
	drvCfg := core.DriverConfig{
		DailyVolume: *daily,
		Epochs:      *epochs,
		Workload:    workload.DefaultConfig(*seed),
	}
	node, drv, err := core.NewDriver(sysCfg, drvCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: %v\n", err)
		os.Exit(1)
	}
	adminWait, err := serveAdmin(node, tr, *adminAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: admin listener: %v\n", err)
		os.Exit(1)
	}

	// Event-driven lifecycle log: the node publishes every stage; this
	// loop renders the ones worth a line at demo scale.
	mask := chain.MaskEpochStart | chain.MaskSummaryBlock | chain.MaskSyncSubmitted |
		chain.MaskSyncConfirmed | chain.MaskPruned | chain.MaskHalted
	if *verbose {
		mask |= chain.MaskMetaBlock
	}
	events := node.Subscribe(mask)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range events {
			ts := ev.At.Round(time.Second)
			switch ev.Type {
			case chain.EventEpochStart:
				fmt.Printf("[%8s] epoch %d starts: snapshot taken, committee elected, deposits funded\n", ts, ev.Epoch)
			case chain.EventMetaBlock:
				fmt.Printf("[%8s]   meta-block %d/%d: %d txs, %d B\n", ts, ev.Epoch, ev.Round, ev.Txs, ev.Bytes)
			case chain.EventSummaryBlock:
				fmt.Printf("[%8s]   summary-block for epoch %d: %d B checkpointed\n", ts, ev.Epoch, ev.Bytes)
			case chain.EventSyncSubmitted:
				fmt.Printf("[%8s]   sync for epoch %d submitted (%d part(s), %d B)\n", ts, ev.Epoch, ev.Parts, ev.Bytes)
			case chain.EventSyncConfirmed:
				fmt.Printf("[%8s]   sync for epoch %d confirmed: %d gas\n", ts, ev.Epoch, ev.Gas)
			case chain.EventPruned:
				fmt.Printf("[%8s]   epoch %d meta-blocks pruned\n", ts, ev.Epoch)
			case chain.EventHalted:
				fmt.Printf("[%8s] node halted: %v\n", ts, ev.Err)
			}
		}
	}()

	fmt.Printf("ammnode: %d epochs, V_D=%d (ρ=%d tx/round), committee=%d\n",
		*epochs, *daily, drv.Rho(), *committee)
	rep, err := node.Run(*epochs)
	wg.Wait() // drain the event stream before printing the report
	if err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: lifecycle fault: %v\n", err)
		os.Exit(1)
	}
	if err := node.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: invariant violation: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\n=== run report ===\n")
	fmt.Printf("epochs run:           %d (%.0f s simulated)\n", rep.EpochsRun, rep.Duration.Seconds())
	fmt.Printf("throughput:           %.2f tx/s\n", rep.Throughput)
	fmt.Printf("sidechain latency:    %.2f s avg\n", rep.AvgSCLatency.Seconds())
	fmt.Printf("payout latency:       %.2f s avg\n", rep.AvgPayoutLatency.Seconds())
	fmt.Printf("syncs confirmed:      %d (mass-syncs: %d, view changes: %d)\n",
		rep.SyncsOK, rep.MassSyncs, rep.ViewChanges)
	fmt.Printf("mainchain growth:     %d B, %d gas\n", rep.MainchainBytes, rep.MainchainGas)
	fmt.Printf("sidechain peak:       %d B\n", rep.SidechainPeakBytes)
	fmt.Printf("sidechain retained:   %d B (pruned %d B, %.1f%% reclaimed)\n",
		rep.SidechainRetainedBytes, rep.SidechainPrunedBytes,
		100*float64(rep.SidechainPrunedBytes)/float64(max(rep.SidechainUnpruned, 1)))
	fmt.Printf("live positions:       %d\n", rep.PositionsLive)
	fmt.Printf("rejected txs:         %d\n", rep.Rejected)
	fmt.Printf("lifecycle events:     ")
	for i, stage := range rep.Collector.LifecycleStages() {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s×%d", stage, rep.Collector.LifecycleCount(stage))
	}
	fmt.Println()
	if *verbose {
		for _, op := range rep.Collector.Ops() {
			g, n := rep.Collector.AvgGas(op)
			fmt.Printf("gas[%s]: %.0f avg over %d\n", op, g, n)
		}
	}
	printStageReport(rep)
	adminWait()
}

// printStageReport renders the report's per-stage latency summaries and
// shard-imbalance summary (present only when the run was traced): the
// tracer's retained window, the same one /metrics serves.
func printStageReport(rep *chain.Report) {
	if len(rep.Stages) == 0 {
		return
	}
	fmt.Printf("\n=== stage latency (wall clock, retained trace window) ===\n")
	fmt.Printf("%-14s %8s %12s %12s %12s\n", "stage", "count", "p50", "p95", "p99")
	for _, st := range rep.Stages {
		fmt.Printf("%-14s %8d %12s %12s %12s\n", st.Stage, st.Count, st.P50, st.P95, st.P99)
	}
	if rep.ShardImbalanceMax > 0 {
		fmt.Printf("shard imbalance (max/mean busy): avg %.2f, worst %.2f at epoch %d\n",
			rep.ShardImbalanceAvg, rep.ShardImbalanceMax, rep.ShardImbalanceMaxEpoch)
	}
	if len(rep.PipelineStallByStage) > 0 {
		fmt.Printf("pipeline stalls by commit phase:")
		for _, stage := range []string{"queued", "commit-build", "sign", "store-encode"} {
			if d, ok := rep.PipelineStallByStage[stage]; ok {
				fmt.Printf(" %s=%s", stage, d)
			}
		}
		fmt.Println()
	}
}

// serveAdmin starts the admin telemetry listener when addr is non-empty.
// The returned wait function blocks until SIGINT/SIGTERM so the surface
// stays inspectable after the run (a no-op when the listener is off).
func serveAdmin(node chain.Chain, tr *trace.Tracer, addr string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	admin := chain.NewAdmin(node, tr)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: admin.Handler()}
	go srv.Serve(ln)
	fmt.Printf("ammnode: admin surface on http://%s (/metrics /healthz /trace /debug/pprof)\n", ln.Addr())
	return func() {
		fmt.Printf("ammnode: run complete; admin surface stays up on http://%s — Ctrl-C to exit\n", ln.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.Close()
	}, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// durableUsers is the fixed user set of a durable deployment; the store
// fingerprint pins it, so every restart must present the same set.
func durableUsers() []string {
	users := make([]string, 32)
	for i := range users {
		users[i] = fmt.Sprintf("user-%03d", i)
	}
	return users
}

// attachEpochTraffic drives the recovery-aware workload pattern: epoch
// e's transactions are derived from (seed, e) alone, so a restarted node
// regenerates exactly the traffic the uninterrupted run would have seen
// (pre-crash submissions that never executed are gone, like any
// mempool).
func attachEpochTraffic(ms *core.MultiSystem, seed int64, perEpoch int) {
	users := durableUsers()
	poolIDs := ms.PoolIDs()
	ms.OnEpochStart = func(epoch uint64) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
		for i := 0; i < perEpoch; i++ {
			tx := &summary.Tx{
				ID:   fmt.Sprintf("node-e%d-%d", epoch, i),
				Kind: gasmodel.KindSwap,
				User: users[rng.Intn(len(users))], PoolID: poolIDs[rng.Intn(len(poolIDs))],
				ZeroForOne: rng.Intn(2) == 0, ExactIn: true,
				Amount: u256.FromUint64(uint64(rng.Intn(1_000_000) + 1)),
			}
			if _, err := ms.Submit(context.Background(), tx); err != nil {
				fmt.Fprintf(os.Stderr, "ammnode: submit: %v\n", err)
				return
			}
		}
	}
}

// runDurable runs (or resumes) the persistent multi-pool node.
func runDurable(dataDir string, pools, epochs, daily, committee int, seed int64, killAt, compactEvery int, bootstrapFrom string, verbose bool, adminAddr string) int {
	if pools <= 0 {
		fmt.Fprintln(os.Stderr, "ammnode: -data-dir requires -pools N (the durable store backs the multi-pool engine)")
		return 2
	}
	if killAt > 0 && killAt > epochs-2 {
		// The kill fires two epoch starts after the target (when its
		// records are guaranteed on disk); later targets would silently
		// never trigger and the run would complete untested.
		fmt.Fprintf(os.Stderr, "ammnode: -kill-at-epoch %d needs at least two later epochs (max %d for -epochs %d)\n",
			killAt, epochs-2, epochs)
		return 2
	}
	var tr *trace.Tracer
	cfgOpts := []chain.Option{
		chain.WithSeed(seed),
		chain.WithPools(pools),
		chain.WithCommittee(committee),
		chain.WithUsers(durableUsers()),
		chain.WithCompactEvery(compactEvery),
	}
	if adminAddr != "" {
		tr = trace.New(16)
		cfgOpts = append(cfgOpts, chain.WithTracer(tr))
	}
	cfg := chain.NewConfig(cfgOpts...)
	var node chain.Chain
	var err error
	if bootstrapFrom != "" {
		// Fast-sync: seed a FRESH data dir from the peer's store image and
		// resume from the peer's epoch. Bootstrap refuses an existing store
		// (a node with history must recover from its own, not overwrite it)
		// and a snapshot whose fingerprint doesn't match this config.
		snapshot, rerr := os.ReadFile(bootstrapFrom)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "ammnode: read peer snapshot %s: %v\n", bootstrapFrom, rerr)
			return 1
		}
		node, err = core.Bootstrap(dataDir, snapshot, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ammnode: bootstrap %s from %s: %v\n", dataDir, bootstrapFrom, err)
			return 1
		}
		fmt.Printf("ammnode: fast-synced %s from %s\n", dataDir, bootstrapFrom)
	} else if node, err = core.Open(dataDir, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: open %s: %v\n", dataDir, err)
		return 1
	}
	adminWait, err := serveAdmin(node, tr, adminAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: admin listener: %v\n", err)
		return 1
	}
	ms := node.(*core.MultiSystem)
	if rec := ms.Recovery(); rec != nil {
		fmt.Printf("ammnode: recovered %s at epoch boundary %d (%d receipts restored, halted=%v)\n",
			dataDir, rec.Epoch, len(rec.Receipts), rec.Halted)
	} else {
		fmt.Printf("ammnode: fresh durable deployment in %s\n", dataDir)
	}
	perEpoch := workload.Rho(daily, cfg.RoundDuration.Seconds()) * cfg.EpochRounds
	attachEpochTraffic(ms, seed, perEpoch)
	if killAt > 0 {
		// Die without any shutdown path — no Close, no flush — exactly
		// like kill -9, once the target epoch is provably durable: its
		// snapshot is written before its sync is submitted, so a
		// confirmed sync (LastSyncedEpoch, synchronous node state)
		// implies the records are on disk. Gating on the confirmation
		// rather than a fixed epoch offset keeps the printed claim true
		// even when large-committee agreement delays stretch retirement
		// past later epoch starts.
		inner := ms.OnEpochStart
		ms.OnEpochStart = func(epoch uint64) {
			if epoch >= uint64(killAt)+2 && ms.LastSyncedEpoch() >= uint64(killAt) {
				fmt.Printf("ammnode: kill -9 with epoch %d persisted; epochs after it die with the process (rerun to recover)\n", killAt)
				os.Exit(137)
			}
			inner(epoch)
		}
	}

	mask := chain.MaskEpochStart | chain.MaskSyncSubmitted | chain.MaskSyncConfirmed |
		chain.MaskPruned | chain.MaskHalted | chain.MaskRecovered
	if verbose {
		mask |= chain.MaskMetaBlock | chain.MaskSummaryBlock
	}
	events := node.Subscribe(mask)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range events {
			ts := ev.At.Round(time.Second)
			switch ev.Type {
			case chain.EventRecovered:
				fmt.Printf("[%8s] state recovered from durable store through epoch %d\n", ts, ev.Epoch)
			case chain.EventEpochStart:
				fmt.Printf("[%8s] epoch %d starts\n", ts, ev.Epoch)
			case chain.EventSyncSubmitted:
				fmt.Printf("[%8s]   epoch %d persisted + sync submitted (%d part(s), %d B)\n",
					ts, ev.Epoch, ev.Parts, ev.Bytes)
			case chain.EventSyncConfirmed:
				fmt.Printf("[%8s]   epoch %d sync confirmed: %d gas\n", ts, ev.Epoch, ev.Gas)
			case chain.EventPruned:
				fmt.Printf("[%8s]   epoch %d meta-blocks pruned\n", ts, ev.Epoch)
			case chain.EventMetaBlock:
				fmt.Printf("[%8s]   meta-block %d/%d: %d txs\n", ts, ev.Epoch, ev.Round, ev.Txs)
			case chain.EventSummaryBlock:
				fmt.Printf("[%8s]   summary checkpoint for epoch %d (%d B)\n", ts, ev.Epoch, ev.Bytes)
			case chain.EventHalted:
				fmt.Printf("[%8s] node halted: %v\n", ts, ev.Err)
			}
		}
	}()

	rep, err := node.Run(epochs)
	wg.Wait()
	if err != nil {
		// A genuine lifecycle fault outranks any kill-timing diagnosis.
		fmt.Fprintf(os.Stderr, "ammnode: lifecycle fault: %v\n", err)
		node.Close()
		return 1
	}
	if killAt > 0 {
		// Reaching here means os.Exit(137) never fired: epoch killAt's
		// confirmation landed too late for any remaining epoch start to
		// observe it. Fail loudly — a demo that quietly completes would
		// let the operator believe a crash was tested when none was.
		fmt.Fprintf(os.Stderr, "ammnode: -kill-at-epoch %d never fired (sync confirmation outpaced by the run); nothing was crash-tested — use a smaller -committee or more -epochs\n", killAt)
		node.Close()
		return 1
	}
	if err := node.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: invariant violation: %v\n", err)
		node.Close()
		return 1
	}
	fmt.Printf("\n=== durable node report ===\n")
	fmt.Printf("epochs (total incl. recovered): %d\n", rep.EpochsRun)
	fmt.Printf("pools x shards:                 %d x %d\n", rep.NumPools, rep.NumShards)
	fmt.Printf("syncs confirmed (incl. replayed): %d\n", rep.SyncsOK)
	sp := rep.SyncParts
	fmt.Printf("sync parts (this process):      %d applied in %d executions; TSQC checks: %d\n",
		sp.PartsApplied, sp.PartExecs, sp.SigVerifies)
	fmt.Printf("event drops (slow subscribers): %d\n", rep.Collector.EventDrops())
	for e := uint64(1); e <= uint64(rep.EpochsRun); e++ {
		if root, ok := rep.SummaryRoots[e]; ok && verbose {
			fmt.Printf("  epoch %2d summary root %x\n", e, root[:8])
		}
	}
	printStageReport(rep)
	adminWait()
	if err := node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: close: %v\n", err)
		return 1
	}
	return 0
}
