// Tracing: the observability quickstart — run a short Zipf-skewed
// multi-pool workload with the epoch-lifecycle tracer attached, export
// the retained spans as Chrome trace-event JSON (load trace.json in
// Perfetto or chrome://tracing: one track per lifecycle stage, one per
// execute shard), and print the operator's summary: the three stages
// where the run's wall-clock went, and the epoch whose shard fan-out
// was most skewed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/store"
	"ammboost/internal/trace"
	"ammboost/internal/workload"
)

func main() {
	const epochs = 4

	// The tracer retains the newest `epochs` epochs so the export covers
	// the whole run; production nodes keep the default window (8) and
	// pull rolling windows via the -admin /trace endpoint instead.
	tr := trace.New(epochs)
	// Zipf-skewed traffic over ~5 hot pools: exactly the regime where
	// per-shard spans make load imbalance visible.
	wcfg := workload.DefaultMultiConfig(11, 5)
	wcfg.NumPools = 24
	gen := workload.NewMulti(wcfg)
	sysCfg := chain.Config{
		Seed:          11,
		NumPools:      24,
		NumShards:     4,
		EpochRounds:   6,
		CommitteeSize: 14,
		PipelineDepth: 2,
		Tracer:        tr,
		Users:         gen.Users(),
	}.WithDefaults()
	// An in-memory durable store so the trace shows the full lifecycle —
	// store append/fsync spans included — without touching the disk.
	node, err := core.OpenFS(&store.MemFS{}, "tracing-demo", sysCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// The same deterministic traffic schedule core.NewMultiDriver builds:
	// rho transactions per round, spread evenly across the round.
	rho := workload.Rho(800_000, sysCfg.RoundDuration.Seconds())
	workload.ConstantRate(rho, epochs*sysCfg.EpochRounds, sysCfg.RoundDuration, func(at time.Duration) {
		node.Sim().At(at, func() { node.Submit(context.Background(), gen.Next()) })
	})
	rep, err := node.Run(epochs)
	if err != nil {
		log.Fatalf("lifecycle fault: %v", err)
	}
	if err := node.Validate(); err != nil {
		log.Fatalf("cross-layer invariants: %v", err)
	}

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteChrome(f, 0); err != nil {
		log.Fatalf("write trace: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tracing: %d spans over %d epochs written to trace.json (open in Perfetto)\n",
		tr.Total(), epochs)

	// Top-3 stages by total recorded wall-clock (the report's stage rows
	// fold the same retained spans): where an optimization pass should
	// look first. sync-confirm is excluded — it is elapsed time waiting on
	// the mainchain, overlapping later epochs' work.
	ranked := make([]chain.StageSummary, 0, len(rep.Stages))
	for _, st := range rep.Stages {
		if st.Stage != trace.StageSyncConfirm.String() {
			ranked = append(ranked, st)
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Total > ranked[j].Total })
	fmt.Println("\ntop-3 slowest stages (total wall-clock across the run):")
	for i, st := range ranked {
		if i == 3 {
			break
		}
		fmt.Printf("  %d. %-14s %10.3fms over %d span(s)\n",
			i+1, st.Stage, float64(st.Total)/1e6, st.Count)
	}

	fmt.Printf("\nworst shard imbalance: %.2fx (max/mean shard busy) at epoch %d; run average %.2fx\n",
		rep.ShardImbalanceMax, rep.ShardImbalanceMaxEpoch, rep.ShardImbalanceAvg)
	if len(rep.Stages) == 0 || rep.ShardImbalanceMax < 1 {
		log.Fatal("traced run produced no stage/imbalance telemetry")
	}
}
