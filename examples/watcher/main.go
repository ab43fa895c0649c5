// Watcher: a client-side view of a running ammBoost node through the
// chain.Chain API's event stream — the consumer a block explorer or
// monitoring stack would build on. It subscribes to the full lifecycle
// (epoch starts, meta-blocks, summary checkpoints, syncs, pruning),
// renders a compact per-epoch digest, follows one transaction's receipt
// from submission to pruning, and — with the lifecycle tracer attached —
// closes with the operator's view: per-stage wall-clock latency
// (p50/p95/p99) and the shard-imbalance summary from the run report.
package main

import (
	"context"
	"fmt"
	"log"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

func main() {
	tr := trace.New(8)
	sysCfg := chain.Config{
		Seed:          7,
		NumPools:      16,
		NumShards:     4,
		EpochRounds:   10,
		CommitteeSize: 14,
		Tracer:        tr,
	}
	wcfg := workload.DefaultMultiConfig(7, 6)
	drvCfg := core.MultiDriverConfig{DailyVolume: 500_000, Epochs: 3, Workload: wcfg}
	node, gen, err := core.NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		log.Fatal(err)
	}

	// One receipt to follow end to end.
	rc, err := node.Submit(context.Background(), &summary.Tx{
		ID: "watched-swap", Kind: gasmodel.KindSwap,
		User: gen.Users()[0], PoolID: node.PoolIDs()[0],
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(5000),
	})
	if err != nil {
		log.Fatalf("submit watched tx: %v", err)
	}

	// Full-lifecycle subscription, aggregated per epoch.
	type epochDigest struct {
		metaBlocks int
		txs        int
		bytes      int
		syncGas    uint64
		pruned     bool
	}
	events := node.Subscribe(chain.MaskAll)
	done := make(chan map[uint64]*epochDigest)
	go func() {
		digests := make(map[uint64]*epochDigest)
		get := func(e uint64) *epochDigest {
			d := digests[e]
			if d == nil {
				d = &epochDigest{}
				digests[e] = d
			}
			return d
		}
		for ev := range events {
			switch ev.Type {
			case chain.EventMetaBlock:
				d := get(ev.Epoch)
				d.metaBlocks++
				d.txs += ev.Txs
				d.bytes += ev.Bytes
			case chain.EventSyncConfirmed:
				get(ev.Epoch).syncGas = ev.Gas
			case chain.EventPruned:
				get(ev.Epoch).pruned = true
			case chain.EventHalted:
				fmt.Printf("!! node halted: %v\n", ev.Err)
			}
		}
		done <- digests
	}()

	rep, err := node.Run(drvCfg.Epochs)
	if err != nil {
		log.Fatalf("lifecycle fault: %v", err)
	}
	if err := node.Validate(); err != nil {
		log.Fatalf("cross-layer invariants: %v", err)
	}
	digests := <-done

	fmt.Println("watcher — per-epoch lifecycle digest from the event stream")
	for e := uint64(1); e <= uint64(rep.EpochsRun); e++ {
		d := digests[e]
		if d == nil {
			continue
		}
		fmt.Printf("  epoch %d: %d meta-blocks, %d txs, %d B; sync gas %d; pruned=%v\n",
			e, d.metaBlocks, d.txs, d.bytes, d.syncGas, d.pruned)
	}
	fmt.Printf("\nwatched receipt %q:\n", rc.TxID)
	fmt.Printf("  status:       %s (epoch %d, round %d)\n", rc.Status, rc.Epoch, rc.Round)
	fmt.Printf("  submitted:    %s\n", rc.SubmittedAt)
	fmt.Printf("  executed:     %s\n", rc.ExecutedAt)
	fmt.Printf("  checkpointed: %s\n", rc.CheckpointedAt)
	fmt.Printf("  synced:       %s\n", rc.SyncedAt)
	fmt.Printf("  pruned:       %s\n", rc.PrunedAt)
	if rc.Status != chain.StatusPruned {
		log.Fatalf("watched receipt ended at %s, want pruned", rc.Status)
	}

	// The operator's view of the same run: where the wall-clock went,
	// stage by stage, and how evenly the shard fan-out was loaded.
	fmt.Println("\nstage latency (wall clock):")
	fmt.Printf("  %-14s %6s %12s %12s %12s\n", "stage", "count", "p50", "p95", "p99")
	for _, st := range rep.Stages {
		fmt.Printf("  %-14s %6d %12s %12s %12s\n", st.Stage, st.Count, st.P50, st.P95, st.P99)
	}
	if rep.ShardImbalanceMax > 0 {
		fmt.Printf("shard imbalance (max/mean busy): avg %.2f, worst %.2f at epoch %d\n",
			rep.ShardImbalanceAvg, rep.ShardImbalanceMax, rep.ShardImbalanceMaxEpoch)
	}
	if len(rep.Stages) == 0 {
		log.Fatal("traced run produced no stage summaries")
	}
}
