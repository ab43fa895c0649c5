// Tradingday: simulates a full day of Uniswap-scale trading on ammBoost
// and on the L1 baseline, then prints the side-by-side cost comparison the
// paper's Figure 5 reports — gas, chain growth, and latency — plus the
// lifecycle of one LP's concentrated-liquidity position.
//
// It runs NewDriver's node, as the paper's experiments do: Figure 5's
// gas includes the TokenBank deposit flow, which only the paper's bank
// bills.
package main

import (
	"fmt"
	"log"
	"time"

	"ammboost/internal/baseline"
	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/gasmodel"
	"ammboost/internal/workload"
)

const (
	dailyVolume = 500_000 // 10x Uniswap daily volume, as in the paper
	epochs      = 4
)

func main() {
	fmt.Printf("Trading day: V_D=%d transactions/day, %d epochs of 210 s\n\n", dailyVolume, epochs)

	// ammBoost deployment behind the unified chain.Chain node API.
	sysCfg := chain.Config{
		Seed:          5,
		EpochRounds:   30,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 20,
	}
	drvCfg := core.DriverConfig{DailyVolume: dailyVolume, Epochs: epochs, Workload: workload.DefaultConfig(5)}
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

	// Baseline: the same traffic straight to the L1.
	bl, err := baseline.New(baseline.Config{Sizes: baseline.SizesSepolia})
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.New(workload.DefaultConfig(5))
	rho := workload.Rho(dailyVolume, 7)
	rounds := epochs * 30
	workload.ConstantRate(rho, rounds, 7*time.Second, func(at time.Duration) {
		bl.Sim().At(at, func() { bl.Submit(gen.Next()) })
	})
	bl.Run(time.Duration(rounds) * 7 * time.Second)

	fmt.Println("metric                     baseline (L1)      ammBoost")
	fmt.Printf("transactions processed     %-15d    %d\n", bl.Collector().NumProcessed(), rep.Collector.NumProcessed())
	fmt.Printf("gas spent                  %-15d    %d\n", bl.Mainchain().TotalGas, rep.MainchainGas)
	fmt.Printf("mainchain growth (B)       %-15d    %d\n", bl.Mainchain().TotalBytes, rep.MainchainBytes)
	blLat := bl.Collector().AvgSCLatency()
	fmt.Printf("avg trade latency (s)      %-15.2f    %.2f\n", blLat.Seconds(), rep.AvgSCLatency.Seconds())
	fmt.Printf("avg settlement (s)         %-15.2f    %.2f\n",
		bl.Collector().AvgPayoutLatency().Seconds(), rep.AvgPayoutLatency.Seconds())
	gasSave := 100 * (1 - float64(rep.MainchainGas)/float64(bl.Mainchain().TotalGas))
	byteSave := 100 * (1 - float64(rep.MainchainBytes)/float64(bl.Mainchain().TotalBytes))
	fmt.Printf("\nammBoost saves %.1f%% gas and %.1f%% chain growth on this day.\n", gasSave, byteSave)

	// Show LP positions' lifecycle from the node's synced position list.
	fmt.Println("\nTokenBank liquidity positions after the day:")
	for i, pos := range node.Positions() {
		if i == 5 {
			break
		}
		short := pos.ID
		if len(short) > 12 {
			short = short[:12]
		}
		fmt.Printf("  %s: owner=%s range=[%d,%d] L=%s fees=(%s, %s)\n",
			short, pos.Owner, pos.TickLower, pos.TickUpper, pos.Liquidity, pos.Fees0, pos.Fees1)
	}
	byKind := rep.Collector.NumProcessedByKind()
	fmt.Printf("\nprocessed: %d swaps, %d mints, %d burns, %d collects\n",
		byKind[gasmodel.KindSwap], byKind[gasmodel.KindMint],
		byKind[gasmodel.KindBurn], byKind[gasmodel.KindCollect])
}
