package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain"
	"ammboost/internal/trace"
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

func runMultiFingerprint(t *testing.T, seed int64, shards, pipelineDepth int) chain.Fingerprint {
	return runMultiFingerprintTraced(t, seed, shards, pipelineDepth, nil)
}

// runMultiFingerprintTraced is runMultiFingerprint with a lifecycle
// tracer attached (nil = untraced) — the trace-on/off determinism pin
// compares the two.
func runMultiFingerprintTraced(t *testing.T, seed int64, shards, pipelineDepth int, tr *trace.Tracer) chain.Fingerprint {
	t.Helper()
	sysCfg, drvCfg := multiTestConfigs(seed, 16, shards, 2)
	sysCfg.PipelineDepth = pipelineDepth
	sysCfg.Tracer = tr
	return fingerprintDriverRun(t, sysCfg, drvCfg)
}

// fingerprintDriverRun runs a NewMultiDriver deployment — its arrivals are
// scheduled at fixed virtual times — and returns its fingerprint.
func fingerprintDriverRun(t *testing.T, sysCfg chain.Config, drvCfg MultiDriverConfig) chain.Fingerprint {
	t.Helper()
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatalf("NewMultiDriver: %v", err)
	}
	if _, err := sys.Run(drvCfg.Epochs); err != nil {
		t.Fatalf("run(seed=%d, shards=%d, depth=%d): %v", sysCfg.Seed, sysCfg.NumShards, sysCfg.PipelineDepth, err)
	}
	return sys.(*MultiSystem).Fingerprint(nil)
}

// TestMultiSystemDeterministicRoots pins the redesign's determinism
// acceptance: for fixed seeds {1, 42, 1337}, the full lifecycle (not
// just the raw engine) yields bit-identical epoch summary roots AND sync
// payload digests across shard counts {1, 4, 16}, at the default
// (pipelined) depth.
func TestMultiSystemDeterministicRoots(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		base := runMultiFingerprint(t, seed, 1, 0)
		if len(base.Epochs) == 0 {
			t.Fatalf("seed=%d: no summary roots recorded", seed)
		}
		for _, shards := range []int{4, 16} {
			if err := base.Diff(runMultiFingerprint(t, seed, shards, 0)); err != nil {
				t.Errorf("seed=%d shards=%d: %v", seed, shards, err)
			}
		}
	}
}

// TestMultiSystemMetaBlockRoots pins what chain.Fingerprint does not
// cover: every committed meta-block's TxRoot (folded from the shards'
// leaves) equals the reference root over its transactions, read before
// the epoch is pruned, and every epoch's summary MetaRoot is the same on
// 1 and 2 shards. TestTxRootMatchesTree pins the reference to the proof
// path's tree.
func TestMultiSystemMetaBlockRoots(t *testing.T) {
	metaRoots := make([]map[uint64][32]byte, 0, 2)
	for _, shards := range []int{1, 2} {
		sysCfg, drvCfg := multiTestConfigs(5, 16, shards, 3)
		sys, _, err := NewMultiDriver(sysCfg, drvCfg)
		if err != nil {
			t.Fatalf("NewMultiDriver: %v", err)
		}
		ms := sys.(*MultiSystem)
		blocks, txs := 0, 0
		ms.OnEvent(func(ev chain.Event) {
			if ev.Type != chain.EventMetaBlock {
				return
			}
			metas := ms.SidechainLedger().MetaBlocks(ev.Epoch)
			b := metas[len(metas)-1]
			if b.Round != ev.Round {
				t.Errorf("shards=%d: meta-block %d/%d: ledger tip is round %d", shards, ev.Epoch, ev.Round, b.Round)
			}
			if want := sidechain.TxRoot(b.Txs); b.TxRoot != want {
				t.Errorf("shards=%d: meta-block %d/%d: TxRoot %x, reference %x", shards, ev.Epoch, ev.Round, b.TxRoot[:8], want[:8])
			}
			blocks++
			txs += len(b.Txs)
		})
		if _, err := sys.Run(drvCfg.Epochs); err != nil {
			t.Fatalf("shards=%d: run: %v", shards, err)
		}
		if blocks == 0 || txs == 0 {
			t.Fatalf("shards=%d: checked %d meta-blocks with %d txs", shards, blocks, txs)
		}
		roots := make(map[uint64][32]byte)
		for _, sb := range ms.SidechainLedger().Summaries() {
			roots[sb.Epoch] = sb.MetaRoot
		}
		metaRoots = append(metaRoots, roots)
	}
	one, two := metaRoots[0], metaRoots[1]
	if len(one) == 0 || len(one) != len(two) {
		t.Fatalf("summary epochs: %d on 1 shard, %d on 2", len(one), len(two))
	}
	for e, root := range one {
		if other := two[e]; other != root {
			t.Errorf("epoch %d: MetaRoot %x on 1 shard, %x on 2", e, root[:8], other[:8])
		}
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
	faulty.Faults.SilentLeaderRounds = map[[2]uint64]bool{{1, 2}: true, {1, 3}: true}
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

	unsupported, _ := multiTestConfigs(17, 8, 2, 2)
	unsupported.Faults.SkipSyncEpochs = map[uint64]bool{2: true}
	if _, err := NewMultiSystem(unsupported, []string{"u"}); !isChainErr(err, ErrUnsupportedFault) {
		t.Errorf("SkipSyncEpochs on multi backend: err = %v, want ErrUnsupportedFault", err)
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

// TestSyncUplinkLossKeepsFingerprint: a standalone node whose uplink
// drops half its messages retries its way to the clean run's
// fingerprint — the uplink perturbs timing, never state.
func TestSyncUplinkLossKeepsFingerprint(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(19, 4, 2, 3)
	clean := fingerprintDriverRun(t, sysCfg, drvCfg)
	sysCfg.SyncFaults = &netsim.FaultSchedule{Seed: 7, DropProb: 0.5}
	c, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := c.(*MultiSystem)
	retries := 0
	sys.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventSyncRetry {
			retries++
		}
	})
	if _, err := sys.Run(drvCfg.Epochs); err != nil {
		t.Fatalf("lossy run: %v", err)
	}
	if retries == 0 {
		t.Error("no sync retransmissions under 50% uplink loss")
	}
	if err := clean.Diff(sys.Fingerprint(nil)); err != nil {
		t.Errorf("lossy run diverges from the clean run: %v", err)
	}
}
