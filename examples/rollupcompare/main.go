// Rollupcompare: runs the same congested workload through ammBoost and the
// Optimism-inspired ammOP rollup and prints the Table VI comparison —
// throughput, transaction latency, and the payout-finality gap caused by
// the rollup's 7-day contestation window.
//
// It runs NewDriver's node — the paper's TokenBank on one pool — as
// `ammbench table6` does, so its numbers stay comparable with the
// experiment.
package main

import (
	"fmt"
	"log"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/rollup"
	"ammboost/internal/workload"
)

func main() {
	const dailyVolume = 5_000_000
	const epochs = 3

	// ammBoost behind the unified chain.Chain node API.
	sysCfg := chain.Config{
		Seed:          9,
		EpochRounds:   30,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 20,
	}
	drvCfg := core.DriverConfig{DailyVolume: dailyVolume, Epochs: epochs, Workload: workload.DefaultConfig(9)}
	node, _, err := core.NewDriver(sysCfg, drvCfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := node.Run(epochs)
	if err != nil {
		log.Fatalf("lifecycle fault: %v", err)
	}
	if err := node.Validate(); err != nil {
		log.Fatal(err)
	}

	// ammOP on identical arrivals.
	op, err := rollup.New(rollup.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.New(workload.DefaultConfig(9))
	rho := workload.Rho(dailyVolume, 7)
	rounds := epochs * 30
	workload.ConstantRate(rho, rounds, 7*time.Second, func(at time.Duration) {
		op.Sim().At(at, func() { op.Submit(gen.Next()) })
	})
	op.Run(time.Duration(rounds) * 7 * time.Second)

	fmt.Printf("ammBoost vs ammOP at V_D=%d (%d epochs)\n\n", dailyVolume, epochs)
	fmt.Println("system     throughput    tx latency     payout latency")
	fmt.Printf("ammOP      %8.2f tx/s  %10.2f s  %14.2f s (7-day contestation)\n",
		op.Collector().Throughput(),
		op.Collector().AvgSCLatency().Seconds(),
		op.Collector().AvgPayoutLatency().Seconds())
	fmt.Printf("ammBoost   %8.2f tx/s  %10.2f s  %14.2f s\n",
		rep.Throughput, rep.AvgSCLatency.Seconds(), rep.AvgPayoutLatency.Seconds())
	reduction := 100 * (1 - rep.AvgPayoutLatency.Seconds()/op.Collector().AvgPayoutLatency().Seconds())
	fmt.Printf("\nammBoost reduces transaction finality by %.2f%% (paper: 99.94%%).\n", reduction)
	fmt.Printf("ammOP posted %d batches (%d B kept on the mainchain forever);\n",
		op.BatchesPosted, op.MainchainBytes)
	fmt.Printf("ammBoost retained %d B on the sidechain after pruning.\n", rep.SidechainRetainedBytes)
}
