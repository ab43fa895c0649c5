// Quickstart: stand up a complete ammBoost deployment — mainchain with
// the multi-pool bank, PBFT sidechain, 64 AMM pools executed by the
// sharded engine under Zipf-skewed traffic — through the unified
// chain.Chain node API, run three epochs, and print the state growth
// control results. Demonstrates the three pillars of the API: receipts
// (Submit returns a handle that advances through the epoch lifecycle),
// typed errors (Submit and Run report faults instead of panicking), and
// event subscriptions. It closes with the hottest pools and each
// epoch's folded summary root, which is bit-identical for any shard
// count.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

func main() {
	const (
		pools  = 64
		epochs = 3
		seed   = 1
	)
	// The paper's deployment shape, scaled down for a quick run: 10
	// rounds of 7 s per epoch, a 20-member committee, 100x Uniswap's
	// daily volume spread over 64 pools.
	sysCfg := chain.Config{
		Seed:          seed,
		NumPools:      pools,
		EpochRounds:   10,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 20,
	}
	drvCfg := core.MultiDriverConfig{
		DailyVolume: 5_000_000,
		Epochs:      epochs,
		Workload:    workload.DefaultMultiConfig(seed, pools),
	}
	node, gen, err := core.NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Count sync confirmations from the event stream while the run goes.
	syncs := node.Subscribe(chain.MaskSyncConfirmed)
	syncSeen := make(chan int)
	go func() {
		n := 0
		for range syncs {
			n++
		}
		syncSeen <- n
	}()

	// Submission-time validation returns typed errors before anything
	// reaches the queue.
	user, hottest := gen.Users()[0], gen.PoolIDs()[0]
	_, err = node.Submit(context.Background(), &summary.Tx{ID: "bad", Kind: gasmodel.KindSwap, User: user, PoolID: hottest})
	if !errors.Is(err, chain.ErrMalformedTx) {
		log.Fatalf("zero-amount swap: err = %v, want ErrMalformedTx", err)
	}

	// A well-formed transaction yields a receipt the lifecycle advances:
	// Pending → Executed → Checkpointed → Synced → Pruned.
	rc, err := node.Submit(context.Background(), &summary.Tx{
		ID: "quickstart-swap", Kind: gasmodel.KindSwap, User: user, PoolID: hottest,
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000),
	})
	if err != nil {
		log.Fatalf("submit: %v", err)
	}

	rep, err := node.Run(epochs)
	if err != nil {
		log.Fatalf("lifecycle fault: %v", err)
	}
	if err := node.Validate(); err != nil {
		log.Fatalf("cross-layer invariants: %v", err)
	}
	confirmedSyncs := <-syncSeen

	fmt.Printf("ammBoost quickstart — %d pools on %d shards, %d epochs at 100x Uniswap volume\n",
		rep.NumPools, rep.NumShards, epochs)
	fmt.Printf("  processed:            %d transactions (%.2f tx/s), %d rejected\n",
		rep.Collector.NumProcessed(), rep.Throughput, rep.Rejected)
	fmt.Printf("  sidechain latency:    %.2f s (avg to meta-block)\n", rep.AvgSCLatency.Seconds())
	fmt.Printf("  payout latency:       %.2f s (avg to Sync confirmation)\n", rep.AvgPayoutLatency.Seconds())
	fmt.Printf("  mainchain growth:     %d B, %d gas for %d syncs (%d observed via events)\n",
		rep.MainchainBytes, rep.MainchainGas, rep.SyncsOK, confirmedSyncs)
	fmt.Printf("  sidechain peak:       %d B\n", rep.SidechainPeakBytes)
	fmt.Printf("  sidechain retained:   %d B after pruning (reclaimed %d B)\n",
		rep.SidechainRetainedBytes, rep.SidechainPrunedBytes)
	fmt.Printf("  bank state:           %d live positions, epoch %d synced\n",
		rep.PositionsLive, node.LastSyncedEpoch())
	fmt.Printf("  rejected at submit:   zero-amount swap (%v)\n", chain.ErrMalformedTx)
	fmt.Printf("  sample receipt:       %s %s (executed e%d/r%d at %s, synced at %s, pruned at %s)\n",
		rc.TxID, rc.Status, rc.Epoch, rc.Round,
		rc.ExecutedAt.Round(time.Second), rc.SyncedAt.Round(time.Second), rc.PrunedAt.Round(time.Second))

	// Hot pools: the Zipf head draws most of the traffic.
	fmt.Println("  hottest pools (reserve drift from genesis):")
	for _, pid := range gen.PoolIDs()[:3] {
		info, ok := node.PoolInfo(pid)
		if !ok {
			log.Fatalf("pool %s not registered", pid)
		}
		fmt.Printf("    %s  reserve0=%s reserve1=%s positions=%d\n",
			info.ID, info.Reserve0, info.Reserve1, info.Positions)
	}
	for e := uint64(1); e <= uint64(rep.EpochsRun); e++ {
		root := rep.SummaryRoots[e]
		fmt.Printf("  epoch %d summary root: %x…\n", e, root[:8])
	}
}
