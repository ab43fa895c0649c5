package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
	"ammboost/internal/netsim"
	"ammboost/internal/sim"
	"ammboost/internal/store"
	"ammboost/internal/workload"
)

func multiTestConfigs(seed int64, pools, shards, epochs int) (chain.Config, MultiDriverConfig) {
	sysCfg := chain.Config{
		Seed:          seed,
		NumPools:      pools,
		NumShards:     shards,
		EpochRounds:   5,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 10,
	}
	wcfg := workload.DefaultMultiConfig(seed, pools)
	wcfg.NumUsers = 30
	drvCfg := MultiDriverConfig{
		DailyVolume: 2_000_000,
		Epochs:      epochs,
		Workload:    wcfg,
	}
	return sysCfg, drvCfg
}

// TestMultiSystemLifecycle runs the full multi-pool epoch lifecycle —
// SnapshotBank over all pools, sharded meta-block rounds, per-pool
// summary-blocks, the TSQC multi-sync, pruning — and validates parity.
func TestMultiSystemLifecycle(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(7, 16, 4, 3)
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatalf("NewMultiDriver: %v", err)
	}
	rep, err := sys.Run(drvCfg.Epochs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.EpochsRun < drvCfg.Epochs {
		t.Errorf("ran %d epochs, want >= %d", rep.EpochsRun, drvCfg.Epochs)
	}
	if rep.SyncsOK != rep.EpochsRun {
		t.Errorf("SyncsOK = %d, want %d (one multi-sync per epoch)", rep.SyncsOK, rep.EpochsRun)
	}
	if got := int(sys.LastSyncedEpoch()); got != rep.EpochsRun {
		t.Errorf("bank synced through epoch %d, want %d", got, rep.EpochsRun)
	}
	if rep.Collector.NumProcessed() == 0 {
		t.Error("no transactions processed")
	}
	if len(rep.SummaryRoots) != rep.EpochsRun {
		t.Errorf("recorded %d summary roots, want %d", len(rep.SummaryRoots), rep.EpochsRun)
	}
	bank := sys.(*MultiSystem).Bank()
	for e, root := range rep.SummaryRoots {
		bankRoot, ok := bank.SummaryRoots[e]
		if !ok {
			t.Errorf("epoch %d root not stored on-chain", e)
			continue
		}
		if bankRoot != root {
			t.Errorf("epoch %d root mismatch between engine and bank", e)
		}
	}
	// Pruning: every synced epoch's meta-blocks are gone.
	if rep.SidechainPrunedBytes == 0 {
		t.Error("no sidechain bytes pruned")
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestMultiSystemFaultSupport pins the FaultPlan contract on the
// multi-pool backend: silent leaders are honored (view change counted,
// round delayed), and the unsupported mass-sync faults are rejected at
// construction instead of silently ignored.
func TestMultiSystemFaultSupport(t *testing.T) {
	base, drvCfg := multiTestConfigs(17, 8, 2, 2)
	healthy, _, err := NewMultiDriver(base, drvCfg)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := healthy.Run(drvCfg.Epochs)
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}

	faulty, faultyDrv := multiTestConfigs(17, 8, 2, 2)
	faulty.Faults.ViewChangeStormRounds = map[[2]uint64]int{{1, 2}: 1, {1, 3}: 1}
	sys, _, err := NewMultiDriver(faulty, faultyDrv)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := sys.Run(faultyDrv.Epochs)
	if err != nil {
		t.Fatalf("silent-leader run: %v", err)
	}
	if repB.ViewChanges != 2 {
		t.Errorf("view changes = %d, want 2", repB.ViewChanges)
	}
	if repB.AvgSCLatency <= repA.AvgSCLatency {
		t.Errorf("faulty run latency %s should exceed healthy %s", repB.AvgSCLatency, repA.AvgSCLatency)
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("invariants with silent leader: %v", err)
	}

	// A held Sync lives in memory only: a storeless node takes the skip
	// fault, a node with a store refuses it.
	skip, _ := multiTestConfigs(17, 8, 2, 2)
	skip.Faults.SkipSyncEpochs = map[uint64]bool{2: true}
	if _, err := NewMultiSystem(skip, []string{"u"}); err != nil {
		t.Errorf("SkipSyncEpochs on a storeless node: %v", err)
	}
	if _, err := OpenFS(&store.MemFS{}, "", skip); !isChainErr(err, ErrUnsupportedFault) {
		t.Errorf("SkipSyncEpochs on a node with a store: err = %v, want ErrUnsupportedFault", err)
	}
}

// TestMultiSystemSyncRevertSurfaces pins the typed-error path on the
// multi-pool backend: a committee signing a corrupted digest produces an
// on-chain revert that Run surfaces as chain.ErrSyncReverted.
func TestMultiSystemSyncRevertSurfaces(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(13, 8, 2, 2)
	sysCfg.Faults.CorruptSyncEpochs = map[uint64]bool{1: true}
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatalf("NewMultiDriver: %v", err)
	}
	rep, err := sys.Run(drvCfg.Epochs)
	if err == nil {
		t.Fatal("corrupted sync should surface an error")
	}
	if !isChainErr(err, chain.ErrSyncReverted) {
		t.Fatalf("err = %v, want ErrSyncReverted", err)
	}
	if rep == nil {
		t.Fatal("report should cover the partial run")
	}
	if rep.SyncsOK != 0 {
		t.Errorf("SyncsOK = %d, want 0 (the only sync reverted)", rep.SyncsOK)
	}
}

// TestSyncUplinkUnreachableHalts: on a standalone node whose uplink drops
// every message, epoch 1's part goes out syncRetryBudget times — the
// first send plus one EventSyncRetry per resend — and the node then
// halts with ErrSyncUnreachable, nothing synced.
func TestSyncUplinkUnreachableHalts(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(17, 2, 1, 1)
	sysCfg.SyncFaults = &netsim.FaultSchedule{Seed: 1, DropProb: 1}
	c, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := c.(*MultiSystem)
	var attempts []int
	sys.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventSyncRetry && ev.Epoch == 1 && ev.Parts == 1 {
			attempts = append(attempts, ev.Txs)
		}
	})
	rep, err := sys.Run(drvCfg.Epochs)
	if !errors.Is(err, chain.ErrSyncUnreachable) ||
		!strings.Contains(err.Error(), fmt.Sprintf("epoch 1 part 1 lost after %d sends", syncRetryBudget)) {
		t.Fatalf("err = %v, want ErrSyncUnreachable for epoch 1 part 1 after %d sends", err, syncRetryBudget)
	}
	if len(attempts) != syncRetryBudget-1 || attempts[0] != 2 || attempts[len(attempts)-1] != syncRetryBudget {
		t.Errorf("retry events carry sends %v, want 2..%d", attempts, syncRetryBudget)
	}
	if rep.SyncsOK != 0 || sys.LastSyncedEpoch() != 0 {
		t.Errorf("SyncsOK %d, bank at %d; want nothing synced", rep.SyncsOK, sys.LastSyncedEpoch())
	}
}

// TestKilledNodeReports: a node killed mid-run (its commit stage already
// closed by Kill) still returns its report from Run, with the kill as
// the run's error.
func TestKilledNodeReports(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(3, 4, 2, 3)
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatalf("NewMultiDriver: %v", err)
	}
	ms := sys.(*MultiSystem)
	ms.OnEpochStart = func(e uint64) {
		if e == 2 {
			ms.Kill()
		}
	}
	rep, err := ms.Run(drvCfg.Epochs)
	if !errors.Is(err, errKilled) {
		t.Fatalf("run err = %v, want errKilled", err)
	}
	if rep == nil || rep.EpochsRun != 2 {
		t.Fatalf("report %+v, want the run stopped in epoch 2", rep)
	}
}

// TestDuplicateUserRefused: every node constructor refuses a user list
// that names a user twice, with ErrDuplicateUser and before a durable
// node touches its store. A repeated user would be one table index held
// by two list entries, and the paper bank would grant it twice.
func TestDuplicateUserRefused(t *testing.T) {
	cfg, _ := multiTestConfigs(3, 2, 1, 1)
	cfg.Users = []string{"user-001", "user-000", "user-001"}
	if _, err := NewMultiSystem(cfg, cfg.Users); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("NewMultiSystem: err = %v, want ErrDuplicateUser", err)
	}
	fed := cfg
	fed.ChainID = "a"
	s := sim.New()
	shared := &Shared{Sim: s, MC: mainchain.New(s, mainchain.DefaultConfig())}
	if _, err := NewFederatedSystem(shared, fed, fed.Users); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("NewFederatedSystem: err = %v, want ErrDuplicateUser", err)
	}
	fsys := &store.MemFS{}
	if _, err := OpenFS(fsys, "", cfg); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("OpenFS: err = %v, want ErrDuplicateUser", err)
	}
	if _, err := fsys.ReadFile(store.FileName); err == nil {
		t.Error("OpenFS wrote a store for a refused user list")
	}
}

// TestUsersNumberedInByteOrder: a node numbers its users in byte order
// whatever order the list arrives in, so its payout lists need no sort.
func TestUsersNumberedInByteOrder(t *testing.T) {
	cfg, _ := multiTestConfigs(4, 2, 1, 1)
	users := workload.New(workload.Config{NumUsers: 40}).Users()
	shuffled := slices.Clone(users)
	rand.New(rand.NewSource(4)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sys, err := NewMultiSystem(cfg, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.eng.Users().Names(); !slices.Equal(got, users) {
		t.Errorf("users numbered %v, want byte order %v", got, users)
	}
}
