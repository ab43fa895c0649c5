// Command ammnode runs a live ammBoost deployment at demo scale and logs
// the epoch lifecycle — committee election, meta-block rounds, summary
// blocks, TSQC-authenticated syncs, and pruning — from the node's event
// stream (chain.Subscribe), so the chain dynamics are observable end to
// end exactly as a client would see them.
//
// Usage:
//
//	ammnode [-epochs N] [-pools N] [-daily V] [-committee N] [-seed S] [-v]
//	ammnode -data-dir DIR [...]                  # durable node
//	ammnode -data-dir DIR -kill-at-epoch E       # die after epoch E persists
//	ammnode -data-dir DIR -compact-every K       # checkpoint every K epochs
//	ammnode -data-dir DIR -bootstrap-from PEER/ammboost.store
//
// Every run is the sharded multi-pool node. Without -data-dir it keeps
// its state in memory; with -data-dir it persists every retired epoch to
// an append-only store in DIR, and re-running with the same flags
// resumes from the newest valid snapshot — try the kill/restart demo:
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/trace"
	"ammboost/internal/workload"
)

// options are the command-line flags.
type options struct {
	epochs, daily, committee, pools int
	seed                            int64
	verbose                         bool
	dataDir, bootstrapFrom          string
	killAt, compactEvery            int
	adminAddr                       string
}

func main() {
	var o options
	flag.IntVar(&o.epochs, "epochs", 4, "epochs to run")
	flag.IntVar(&o.daily, "daily", 500_000, "daily transaction volume (V_D)")
	flag.IntVar(&o.committee, "committee", 20, "sidechain committee size")
	flag.Int64Var(&o.seed, "seed", 1, "deterministic run seed")
	flag.BoolVar(&o.verbose, "v", false, "log meta-blocks, per-op gas and summary roots")
	flag.StringVar(&o.dataDir, "data-dir", "", "durable store directory (without it the node keeps its state in memory)")
	flag.IntVar(&o.pools, "pools", 8, "registered pools")
	flag.IntVar(&o.killAt, "kill-at-epoch", 0, "exit abruptly (kill -9 style) once epoch N has persisted (requires -data-dir)")
	flag.IntVar(&o.compactEvery, "compact-every", 0, "compact the durable store every N confirmed epochs (0 = never; requires -data-dir)")
	flag.StringVar(&o.bootstrapFrom, "bootstrap-from", "", "fast-sync a fresh -data-dir from this peer store image (a compacted ammboost.store file)")
	flag.StringVar(&o.adminAddr, "admin", "", "serve the telemetry surface (/metrics /healthz /trace /debug/pprof) on this address, e.g. 127.0.0.1:6060; the process stays alive after the run until SIGINT")
	flag.Parse()
	os.Exit(run(o))
}

// run builds the node, drives it for o.epochs and prints its report; it
// returns the process exit code.
func run(o options) int {
	if o.dataDir == "" && (o.killAt > 0 || o.compactEvery > 0 || o.bootstrapFrom != "") {
		fmt.Fprintln(os.Stderr, "ammnode: -kill-at-epoch, -compact-every and -bootstrap-from require -data-dir (they act on the durable store)")
		return 2
	}
	if o.pools <= 0 {
		fmt.Fprintln(os.Stderr, "ammnode: -pools must be positive")
		return 2
	}
	if o.killAt > 0 && o.killAt > o.epochs-2 {
		// The kill fires two epoch starts after the target (when its
		// records are guaranteed on disk); later targets would silently
		// never trigger and the run would complete untested.
		fmt.Fprintf(os.Stderr, "ammnode: -kill-at-epoch %d needs at least two later epochs (max %d for -epochs %d)\n",
			o.killAt, o.epochs-2, o.epochs)
		return 2
	}
	var tr *trace.Tracer
	if o.adminAddr != "" {
		tr = trace.New(16)
	}
	cfg := chain.Config{
		Seed:          o.seed,
		NumPools:      o.pools,
		CommitteeSize: o.committee,
		Users:         nodeUsers(),
		CompactEvery:  o.compactEvery,
		Tracer:        tr,
	}.WithDefaults()
	node, err := openNode(o, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: %v\n", err)
		return 1
	}
	code := drive(node, o, cfg, tr)
	if err := node.Close(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "ammnode: close: %v\n", err)
		code = 1
	}
	return code
}

// nodeUsers is the node's fixed user set; a durable store's fingerprint
// pins it, so every restart must present the same set.
func nodeUsers() []string {
	users := make([]string, 32)
	for i := range users {
		users[i] = fmt.Sprintf("user-%03d", i)
	}
	return users
}

// openNode builds the node: in memory without -data-dir, else opened
// from (or, with -bootstrap-from, fast-synced into) the store in it.
func openNode(o options, cfg chain.Config) (*core.MultiSystem, error) {
	if o.dataDir == "" {
		return core.NewMultiSystem(cfg, cfg.Users)
	}
	if o.bootstrapFrom == "" {
		node, err := core.Open(o.dataDir, cfg)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", o.dataDir, err)
		}
		return node.(*core.MultiSystem), nil
	}
	// Fast-sync: seed a FRESH data dir from the peer's store image and
	// resume from the peer's epoch. Bootstrap refuses an existing store
	// (a node with history must recover from its own, not overwrite it)
	// and a snapshot whose fingerprint doesn't match this config.
	snapshot, err := os.ReadFile(o.bootstrapFrom)
	if err != nil {
		return nil, fmt.Errorf("read peer snapshot %s: %w", o.bootstrapFrom, err)
	}
	node, err := core.Bootstrap(o.dataDir, snapshot, cfg)
	if err != nil {
		return nil, fmt.Errorf("bootstrap %s from %s: %w", o.dataDir, o.bootstrapFrom, err)
	}
	fmt.Printf("ammnode: fast-synced %s from %s\n", o.dataDir, o.bootstrapFrom)
	return node.(*core.MultiSystem), nil
}

// drive attaches the traffic, runs the node while logging its event
// stream, and prints the report.
func drive(ms *core.MultiSystem, o options, cfg chain.Config, tr *trace.Tracer) int {
	adminWait, err := serveAdmin(ms, tr, o.adminAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: admin listener: %v\n", err)
		return 1
	}
	if rec := ms.Recovery(); rec != nil {
		fmt.Printf("ammnode: recovered %s at epoch boundary %d (%d receipts restored, halted=%v)\n",
			o.dataDir, rec.Epoch, len(rec.Receipts), rec.Halted)
	} else if o.dataDir != "" {
		fmt.Printf("ammnode: fresh durable deployment in %s\n", o.dataDir)
	}
	rho := workload.Rho(o.daily, cfg.RoundDuration.Seconds())
	attachEpochTraffic(ms, o.seed, rho*cfg.EpochRounds, cfg.Users)
	if o.killAt > 0 {
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
			if epoch >= uint64(o.killAt)+2 && ms.LastSyncedEpoch() >= uint64(o.killAt) {
				fmt.Printf("ammnode: kill -9 with epoch %d persisted; epochs after it die with the process (rerun to recover)\n", o.killAt)
				os.Exit(137)
			}
			inner(epoch)
		}
	}

	// Event-driven lifecycle log: the node publishes every stage; this
	// loop renders the ones worth a line at demo scale.
	mask := chain.MaskEpochStart | chain.MaskSummaryBlock | chain.MaskSyncSubmitted |
		chain.MaskSyncConfirmed | chain.MaskPruned | chain.MaskHalted | chain.MaskRecovered
	if o.verbose {
		mask |= chain.MaskMetaBlock
	}
	events := ms.Subscribe(mask)
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
			case chain.EventMetaBlock:
				fmt.Printf("[%8s]   meta-block %d/%d: %d txs, %d B\n", ts, ev.Epoch, ev.Round, ev.Txs, ev.Bytes)
			case chain.EventSummaryBlock:
				fmt.Printf("[%8s]   summary checkpoint for epoch %d (%d B)\n", ts, ev.Epoch, ev.Bytes)
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

	fmt.Printf("ammnode: %d epochs, %d pools, V_D=%d (ρ=%d tx/round), committee=%d\n",
		o.epochs, o.pools, o.daily, rho, o.committee)
	rep, err := ms.Run(o.epochs)
	wg.Wait() // drain the event stream before printing the report
	if err != nil {
		// A genuine lifecycle fault outranks any kill-timing diagnosis.
		fmt.Fprintf(os.Stderr, "ammnode: lifecycle fault: %v\n", err)
		return 1
	}
	if o.killAt > 0 {
		// Reaching here means os.Exit(137) never fired: epoch killAt's
		// confirmation landed too late for any remaining epoch start to
		// observe it. Fail loudly — a demo that quietly completes would
		// let the operator believe a crash was tested when none was.
		fmt.Fprintf(os.Stderr, "ammnode: -kill-at-epoch %d never fired (sync confirmation outpaced by the run); nothing was crash-tested — use a smaller -committee or more -epochs\n", o.killAt)
		return 1
	}
	if err := ms.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ammnode: invariant violation: %v\n", err)
		return 1
	}
	printReport(rep, o.verbose)
	adminWait()
	return 0
}

// attachEpochTraffic drives the recovery-aware workload pattern: epoch
// e's swaps are derived from (seed, e) alone, so a restarted node
// regenerates exactly the traffic the uninterrupted run would have seen.
func attachEpochTraffic(ms *core.MultiSystem, seed int64, perEpoch int, users []string) {
	poolIDs := ms.PoolIDs()
	ms.OnEpochStart = func(epoch uint64) {
		for _, tx := range workload.EpochSwaps(seed, epoch, perEpoch, users, poolIDs, "node", 1_000_000) {
			if _, err := ms.Submit(context.Background(), tx); err != nil {
				fmt.Fprintf(os.Stderr, "ammnode: submit: %v\n", err)
				return
			}
		}
	}
}

// printReport renders the run report: cost and latency, state growth,
// lifecycle counts, the sync-part ledger, and the stage latency and
// shard-imbalance table.
func printReport(rep *chain.Report, verbose bool) {
	fmt.Printf("\n=== run report ===\n")
	fmt.Printf("epochs run:           %d incl. recovered (%.0f s simulated)\n", rep.EpochsRun, rep.Duration.Seconds())
	fmt.Printf("pools x shards:       %d x %d\n", rep.NumPools, rep.NumShards)
	fmt.Printf("throughput:           %.2f tx/s\n", rep.Throughput)
	fmt.Printf("sidechain latency:    %.2f s avg\n", rep.AvgSCLatency.Seconds())
	fmt.Printf("payout latency:       %.2f s avg\n", rep.AvgPayoutLatency.Seconds())
	fmt.Printf("syncs confirmed:      %d incl. replayed (view changes: %d)\n", rep.SyncsOK, rep.ViewChanges)
	fmt.Printf("mainchain growth:     %d B, %d gas\n", rep.MainchainBytes, rep.MainchainGas)
	fmt.Printf("sidechain peak:       %d B\n", rep.SidechainPeakBytes)
	fmt.Printf("sidechain retained:   %d B (pruned %d B)\n", rep.SidechainRetainedBytes, rep.SidechainPrunedBytes)
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
	sp := rep.SyncParts
	fmt.Printf("sync parts:           %d applied in %d executions this process; TSQC checks: %d\n",
		sp.PartsApplied, sp.PartExecs, sp.SigVerifies)
	fmt.Printf("event drops:          %d (slow subscribers)\n", rep.Collector.EventDrops())
	if verbose {
		for _, op := range rep.Collector.Ops() {
			g, n := rep.Collector.AvgGas(op)
			fmt.Printf("gas[%s]: %.0f avg over %d\n", op, g, n)
		}
		for e := uint64(1); e <= uint64(rep.EpochsRun); e++ {
			if root, ok := rep.SummaryRoots[e]; ok {
				fmt.Printf("  epoch %2d summary root %x\n", e, root[:8])
			}
		}
	}
	if len(rep.Stages) == 0 {
		return
	}
	// The stage table exists only when the run was traced: the tracer's
	// retained window, the same one /metrics serves.
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
