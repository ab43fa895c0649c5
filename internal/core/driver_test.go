package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/mainchain"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// smallConfig keeps functional-test runs fast: a tiny committee, short
// epochs, small blocks.
func smallConfig(seed int64) chain.Config {
	return chain.Config{
		Seed:            seed,
		EpochRounds:     5,
		RoundDuration:   7 * time.Second,
		MetaBlockBytes:  1 << 20,
		CommitteeSize:   8, // f=2
		MinerPopulation: 20,
	}
}

func smallDriver(daily, epochs int, seed int64) DriverConfig {
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumUsers = 20
	return DriverConfig{DailyVolume: daily, Epochs: epochs, Workload: wcfg}
}

func TestEndToEndSmallRun(t *testing.T) {
	sys, drv, err := NewDriver(smallConfig(1), smallDriver(500_000, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := sys.Run(3)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if drv.Submitted == 0 {
		t.Fatal("no traffic submitted")
	}
	if rep.SyncsOK < 3 {
		t.Errorf("syncs = %d, want >= 3", rep.SyncsOK)
	}
	processed := rep.Collector.NumProcessed()
	if processed == 0 {
		t.Fatal("no transactions processed")
	}
	// The vast majority of generated traffic must be accepted.
	if rep.Rejected > drv.Submitted/10 {
		t.Errorf("rejected %d of %d", rep.Rejected, drv.Submitted)
	}
	if rep.AvgSCLatency <= 0 || rep.AvgSCLatency > 30*time.Second {
		t.Errorf("sc latency = %s", rep.AvgSCLatency)
	}
	if rep.AvgPayoutLatency <= rep.AvgSCLatency {
		t.Errorf("payout latency %s should exceed sc latency %s", rep.AvgPayoutLatency, rep.AvgSCLatency)
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("post-run invariants: %v", err)
	}
}

func TestPruningBoundsChainGrowth(t *testing.T) {
	sys, _, err := NewDriver(smallConfig(2), smallDriver(2_000_000, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := sys.Run(4)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if rep.SidechainPrunedBytes == 0 {
		t.Fatal("nothing was pruned")
	}
	if rep.SidechainRetainedBytes >= rep.SidechainUnpruned {
		t.Errorf("retained %d should be far below unpruned %d",
			rep.SidechainRetainedBytes, rep.SidechainUnpruned)
	}
	// Retained = summaries + at most the last (unconfirmed) epoch's metas.
	if rep.SidechainRetainedBytes > rep.SidechainPeakBytes {
		t.Errorf("retained %d > peak %d", rep.SidechainRetainedBytes, rep.SidechainPeakBytes)
	}
}

func TestMassSyncAfterSkippedSync(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Faults.SkipSyncEpochs = map[uint64]bool{2: true}
	sys, _, err := NewDriver(cfg, smallDriver(500_000, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := sys.Run(4)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if rep.MassSyncs != 1 {
		t.Errorf("mass syncs = %d, want 1", rep.MassSyncs)
	}
	if sys.LastSyncedEpoch() < 4 {
		t.Errorf("last synced epoch = %d, want 4", sys.LastSyncedEpoch())
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("invariants after mass-sync: %v", err)
	}
	// Every processed tx still got its payout, just later.
	if rep.Collector.AvgPayoutLatency() == 0 {
		t.Error("payouts missing after mass-sync recovery")
	}
}

func TestMassSyncAfterConsecutiveSkips(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Faults.SkipSyncEpochs = map[uint64]bool{2: true, 3: true}
	sys, _, err := NewDriver(cfg, smallDriver(500_000, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := sys.Run(5)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if rep.MassSyncs != 1 {
		t.Errorf("mass syncs = %d (one covering epochs 2-4)", rep.MassSyncs)
	}
	// Drain may add an extra epoch when the queue is non-empty at the
	// planned end.
	if sys.LastSyncedEpoch() < 5 {
		t.Errorf("last synced epoch = %d", sys.LastSyncedEpoch())
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestSilentLeaderDelaysRound(t *testing.T) {
	base := smallConfig(6)
	sysA, _, err := NewDriver(base, smallDriver(500_000, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	repA, runErr := sysA.Run(2)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}

	faulty := smallConfig(6)
	faulty.Faults.ViewChangeStormRounds = map[[2]uint64]int{{1, 2}: 1, {1, 3}: 1}
	sysB, _, err := NewDriver(faulty, smallDriver(500_000, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	repB, runErr := sysB.Run(2)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}

	if repB.ViewChanges != 2 {
		t.Errorf("view changes = %d, want 2", repB.ViewChanges)
	}
	if repB.AvgSCLatency <= repA.AvgSCLatency {
		t.Errorf("faulty run latency %s should exceed healthy %s", repB.AvgSCLatency, repA.AvgSCLatency)
	}
	if err := sysB.Validate(); err != nil {
		t.Errorf("invariants with faulty leader: %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *chain.Report {
		sys, _, err := NewDriver(smallConfig(7), smallDriver(500_000, 2, 7))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(2)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.AvgSCLatency != b.AvgSCLatency ||
		a.MainchainGas != b.MainchainGas || a.SidechainPeakBytes != b.SidechainPeakBytes {
		t.Error("identical seeds must give identical runs")
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	// Low volume: quasi-instant processing. Very high volume: queueing.
	low, _, err := NewDriver(smallConfig(8), smallDriver(500_000, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	repLow, errLow := low.Run(2)
	if errLow != nil {
		t.Fatalf("run: %v", errLow)
	}

	high, _, err := NewDriver(smallConfig(8), smallDriver(60_000_000, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	repHigh, errHigh := high.Run(2)
	if errHigh != nil {
		t.Fatalf("run: %v", errHigh)
	}

	if repHigh.AvgSCLatency <= repLow.AvgSCLatency {
		t.Errorf("congested latency %s should exceed uncongested %s",
			repHigh.AvgSCLatency, repLow.AvgSCLatency)
	}
	if repHigh.Throughput <= repLow.Throughput {
		t.Errorf("congested throughput %.2f should exceed uncongested %.2f (capacity-bound)",
			repHigh.Throughput, repLow.Throughput)
	}
	if err := high.Validate(); err != nil {
		t.Errorf("invariants under congestion: %v", err)
	}
}

func TestGasAccounting(t *testing.T) {
	sys, _, err := NewDriver(smallConfig(9), smallDriver(500_000, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := sys.Run(3)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	syncGas, n := rep.Collector.AvgGas("sync")
	if n < 3 || syncGas == 0 {
		t.Errorf("sync gas observations: %f x%d", syncGas, n)
	}
	depGas, n := rep.Collector.AvgGas("deposit")
	if n == 0 {
		t.Error("no deposit gas observed")
	}
	// Each deposit flow charges the measured two-token total.
	if depGas < float64(gasmodel.DepositTwoTokensGas)*0.99 || depGas > float64(gasmodel.DepositTwoTokensGas)*1.01 {
		t.Errorf("deposit gas = %.0f, want ~%d", depGas, gasmodel.DepositTwoTokensGas)
	}
	if rep.MainchainGas == 0 || rep.MainchainBytes == 0 {
		t.Error("mainchain accounting empty")
	}
}

func TestFlashLoansStayOnMainchain(t *testing.T) {
	// Flash loans execute against TokenBank in a single mainchain
	// transaction while the sidechain runs.
	sys, _, err := NewDriver(smallConfig(10), smallDriver(500_000, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	bank := sys.(*MultiSystem).bank.(*paperBank)
	var flash *mainchain.Tx
	// Borrow 1% of the pool after the first sync lands and repay it with
	// the fee, inside the one mainchain transaction.
	sys.Sim().After(60*time.Second, func() {
		amount := u256.Div(bank.tb.Reserves[bank.pid].Reserve0, u256.FromUint64(100))
		if amount.IsZero() {
			t.Error("pool reserve should be nonzero")
			return
		}
		if err := bank.token0.Ledger.Mint("genesis", "arb", amount); err != nil {
			t.Error(err)
			return
		}
		flash = &mainchain.Tx{ID: "flash", From: "arb", To: mainchain.BankAddress, Method: "flash", Size: 200,
			Args: mainchain.FlashArgs{Amount0: amount, Callback: func(a0, _ u256.Int) (u256.Int, u256.Int) {
				return u256.Add(a0, u256.Div(a0, u256.FromUint64(100))), u256.Int{}
			}}}
		sys.(*MultiSystem).mc.Submit(flash)
	})
	rep, runErr := sys.Run(2)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if rep.SyncsOK == 0 {
		t.Fatal("no syncs")
	}
	if flash == nil || flash.Status != mainchain.TxConfirmed {
		t.Fatalf("flash loan did not confirm: %+v", flash)
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("invariants after a flash loan: %v", err)
	}
}

// acceptedReceipts collects the receipt of every transaction the node
// executes, as each meta-block publishes.
func acceptedReceipts(s *MultiSystem) *[]*chain.Receipt {
	var out []*chain.Receipt
	seen := make(map[uint64]int)
	s.OnEvent(func(ev chain.Event) {
		if ev.Type != chain.EventMetaBlock {
			return
		}
		recs := s.recsByEpoch[ev.Epoch]
		for _, q := range recs[seen[ev.Epoch]:] {
			out = append(out, q.rc)
		}
		seen[ev.Epoch] = len(recs)
	})
	return &out
}

// TestMassSyncMatrix runs the paper's recovery at every pipeline depth,
// on the paper's one-pool node (NewDriver) and on an 8-pool MultiBank
// node (NewMultiSystem): a skipped epoch's signed parts are held at
// retirement and go out just before the next epoch's, and the run ends
// fully synced with every accepted receipt pruned. A skip in the final
// planned epoch syncs normally. A corrupted Sync after a held
// one still halts the node, once the held epoch landed.
func TestMassSyncMatrix(t *testing.T) {
	skip := func(es ...uint64) map[uint64]bool {
		m := make(map[uint64]bool)
		for _, e := range es {
			m[e] = true
		}
		return m
	}
	cells := []struct {
		name     string
		faults   chain.FaultPlan
		wantMass int
	}{
		{"skip-2", chain.FaultPlan{SkipSyncEpochs: skip(2)}, 1},
		{"skip-2-3", chain.FaultPlan{SkipSyncEpochs: skip(2, 3)}, 1},
		{"skip-4", chain.FaultPlan{SkipSyncEpochs: skip(4)}, 1},
		{"skip-last-planned", chain.FaultPlan{SkipSyncEpochs: skip(5)}, 0},
		{"skip-1", chain.FaultPlan{SkipSyncEpochs: skip(1)}, 1},
	}
	const epochs = 5
	nodes := []struct {
		prefix string // of the subtest names
		build  func(cfg chain.Config, seed int64) (chain.Chain, error)
	}{
		{"", func(cfg chain.Config, seed int64) (chain.Chain, error) {
			node, _, err := NewDriver(cfg, smallDriver(500_000, epochs, seed))
			return node, err
		}},
		{"multi-8/", func(cfg chain.Config, seed int64) (chain.Chain, error) {
			_, drv := multiTestConfigs(seed, 8, 2, epochs)
			cfg.NumPools, cfg.NumShards = 8, 2
			node, _, err := NewMultiDriver(cfg, drv)
			return node, err
		}},
	}
	for _, nd := range nodes {
		for depth := 1; depth <= 3; depth++ {
			for i, c := range cells {
				t.Run(fmt.Sprintf("%s%s/depth=%d", nd.prefix, c.name, depth), func(t *testing.T) {
					cfg := smallConfig(int64(40 + i))
					cfg.PipelineDepth = depth
					cfg.Faults = c.faults
					node, err := nd.build(cfg, int64(40+i))
					if err != nil {
						t.Fatal(err)
					}
					accepted := acceptedReceipts(node.(*MultiSystem))
					rep, err := node.Run(epochs)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if rep.MassSyncs != c.wantMass {
						t.Errorf("mass syncs = %d, want %d", rep.MassSyncs, c.wantMass)
					}
					if got := node.LastSyncedEpoch(); got != uint64(rep.EpochsRun) {
						t.Errorf("bank synced to %d of %d epochs run", got, rep.EpochsRun)
					}
					if err := node.Validate(); err != nil {
						t.Errorf("invariants: %v", err)
					}
					if len(*accepted) == 0 {
						t.Fatal("no transaction executed")
					}
					for _, rc := range *accepted {
						if rc.Status != chain.StatusPruned {
							t.Fatalf("receipt %s (epoch %d) ended %s, want pruned", rc.TxID, rc.Epoch, rc.Status)
						}
					}
				})
			}
			t.Run(fmt.Sprintf("%scorrupt/depth=%d", nd.prefix, depth), func(t *testing.T) {
				for _, faults := range []chain.FaultPlan{
					{CorruptSyncEpochs: skip(2)},
					{SkipSyncEpochs: skip(2), CorruptSyncEpochs: skip(3)}, // the Sync sent after the held one
				} {
					cfg := smallConfig(44)
					cfg.PipelineDepth = depth
					cfg.Faults = faults
					node, err := nd.build(cfg, 44)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := node.Run(epochs); !errors.Is(err, chain.ErrSyncReverted) {
						t.Errorf("faults %+v: err = %v, want ErrSyncReverted", faults, err)
					}
					// Every epoch before the corrupted one lands, the held one too.
					var corrupt uint64
					for e := range faults.CorruptSyncEpochs {
						corrupt = e
					}
					if got := node.LastSyncedEpoch(); got != corrupt-1 {
						t.Errorf("faults %+v: bank synced to %d, want %d", faults, got, corrupt-1)
					}
				}
			})
		}
	}
}
