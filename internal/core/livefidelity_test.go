package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/workload"
)

// runFidelity runs a short multi-pool deployment, retaining every receipt,
// and returns the report, the run's fingerprint over those receipts in
// submission order, and the Run error. Invariant 11 demands the
// fingerprint be identical between the model and live consensus paths of
// a zero-fault run, and same-seed chaos replays reproduce it bit for bit.
// mutate adjusts the base config (nil = model fidelity, no faults).
func runFidelity(t *testing.T, seed int64, epochs int, mutate func(*chain.Config)) (*chain.Report, chain.Fingerprint, error) {
	t.Helper()
	sysCfg, _ := multiTestConfigs(seed, 8, 2, epochs)
	if mutate != nil {
		mutate(&sysCfg)
	}
	wcfg := workload.DefaultMultiConfig(seed, 8)
	wcfg.NumUsers = 30
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(sysCfg, gen.Users())
	if err != nil {
		t.Fatalf("NewMultiSystem: %v", err)
	}
	var recs []*chain.Receipt
	rho := workload.Rho(800_000, sysCfg.RoundDuration.Seconds())
	// Stop arrivals one round early so the final round drains the queue:
	// a tail of in-flight submissions would make "queue empty?" at the
	// last sync commit depend on agreement latency, and the planned epoch
	// count would differ across fidelities for timing (not semantic)
	// reasons.
	workload.ConstantRate(rho, epochs*sysCfg.EpochRounds-1, sysCfg.RoundDuration, func(at time.Duration) {
		sys.Sim().At(at, func() {
			if rc, err := sys.Submit(context.Background(), gen.Next()); err == nil {
				recs = append(recs, rc)
			}
		})
	})
	rep, runErr := sys.Run(epochs)
	return rep, sys.Fingerprint(recs), runErr
}

// withLive switches a config to live fidelity.
func withLive(c *chain.Config) { c.ConsensusFidelity = chain.FidelityLive }

// TestLiveFidelityPartitionHealMidEpoch pins quorum re-achievement at the
// full-system level: a partition that forms mid-epoch blocks agreement
// (neither side holds 2f+2 of the 3f+2 replicas), and after it heals the
// re-arming view-change timers re-broadcast votes, a leader is promoted,
// and every remaining round plus the epoch sync completes.
func TestLiveFidelityPartitionHealMidEpoch(t *testing.T) {
	rep, fp, err := runFidelity(t, 11, 2, func(c *chain.Config) {
		withLive(c)
		c.NetFaults = &netsim.FaultSchedule{
			Partitions: []netsim.PartitionWindow{{
				At: 8 * time.Second, Heal: 22 * time.Second,
				SideA: []string{"rep-0", "rep-1"},
				SideB: []string{"rep-2", "rep-3", "rep-4"},
			}},
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.SyncsOK != rep.EpochsRun || rep.SyncsOK < 2 {
		t.Errorf("SyncsOK = %d of %d epochs, want every epoch synced after heal",
			rep.SyncsOK, rep.EpochsRun)
	}
	if rep.ViewChanges == 0 {
		t.Error("14 s partition with a 3 s view-change timeout should burn view changes")
	}
	// Every submitted transaction still reaches a terminal synced stage:
	// the partition delays rounds (shifting which round includes what) but
	// never wedges or drops lifecycle progress.
	for i, rc := range fp.Receipts {
		if rc.Status != chain.StatusSynced && rc.Status != chain.StatusPruned {
			t.Errorf("receipt %d (%s) stuck at %s after heal", i, rc.TxID, rc.Status)
		}
	}
}

// TestLiveFidelityByzantineLeaderDeposed pins safety under an equivocation
// -adjacent attack: a leader proposing corrupt digests is detected by the
// Digest recomputation hook, deposed via view change, and the honest
// promoted leader re-proposes the true block — so the run completes with
// exactly the model path's committed state, just later.
func TestLiveFidelityByzantineLeaderDeposed(t *testing.T) {
	rep, fp, err := runFidelity(t, 5, 2, func(c *chain.Config) {
		withLive(c)
		c.Faults.ByzantineReplicas = map[int]pbft.Byzantine{0: pbft.CorruptDigest}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.ViewChanges == 0 {
		t.Error("corrupt-digest leader was never deposed")
	}
	if rep.SyncsOK != 2 {
		t.Errorf("SyncsOK = %d, want 2", rep.SyncsOK)
	}
	_, model, err := runFidelity(t, 5, 2, nil)
	if err != nil {
		t.Fatalf("model run: %v", err)
	}
	if err := model.Diff(fp); err != nil {
		t.Errorf("byzantine leader changed committed state — safety violated: %v", err)
	}
}

// TestLiveFidelityStallHaltsDeterministically pins the liveness backstop:
// a partition that never heals starves the round watchdog, the node halts
// with ErrConsensusStalled, and two same-seed runs halt at the identical
// virtual instant with the identical message.
func TestLiveFidelityStallHaltsDeterministically(t *testing.T) {
	mutate := func(c *chain.Config) {
		withLive(c)
		c.LiveRoundTimeout = 30 * time.Second
		c.NetFaults = &netsim.FaultSchedule{
			Partitions: []netsim.PartitionWindow{{
				At:    9 * time.Second, // Heal zero: split-brain forever
				SideA: []string{"rep-0", "rep-1"},
				SideB: []string{"rep-2", "rep-3", "rep-4"},
			}},
		}
	}
	repA, _, errA := runFidelity(t, 7, 2, mutate)
	repB, _, errB := runFidelity(t, 7, 2, mutate)
	if !errors.Is(errA, chain.ErrConsensusStalled) {
		t.Fatalf("errA = %v, want ErrConsensusStalled", errA)
	}
	if errB == nil || errA.Error() != errB.Error() {
		t.Errorf("halt messages diverged:\n  %v\n  %v", errA, errB)
	}
	if repA == nil || repB == nil {
		t.Fatal("halted runs should still produce partial reports")
	}
	if repA.Duration != repB.Duration {
		t.Errorf("halt instants diverged: %s vs %s", repA.Duration, repB.Duration)
	}
	if repA.NetStats != repB.NetStats {
		t.Errorf("network stats diverged at halt: %+v vs %+v", repA.NetStats, repB.NetStats)
	}
}

// TestLiveFidelityConfigRejections pins construction-time validation:
// byzantine behaviors and network fault schedules are meaningless on the
// analytic model path, and byzantine indices must address a real replica.
func TestLiveFidelityConfigRejections(t *testing.T) {
	base, _ := multiTestConfigs(3, 8, 2, 1)
	byz := base
	byz.Faults.ByzantineReplicas = map[int]pbft.Byzantine{0: pbft.Silent}
	if _, err := NewMultiSystem(byz, []string{"u"}); !isChainErr(err, ErrUnsupportedFault) {
		t.Errorf("model + ByzantineReplicas: err = %v, want ErrUnsupportedFault", err)
	}
	netf := base
	netf.NetFaults = &netsim.FaultSchedule{DropProb: 0.1}
	if _, err := NewMultiSystem(netf, []string{"u"}); !isChainErr(err, ErrUnsupportedFault) {
		t.Errorf("model + NetFaults: err = %v, want ErrUnsupportedFault", err)
	}
	badIdx := base
	badIdx.ConsensusFidelity = chain.FidelityLive
	badIdx.Faults.ByzantineReplicas = map[int]pbft.Byzantine{9: pbft.Silent}
	if _, err := NewMultiSystem(badIdx, []string{"u"}); !isChainErr(err, ErrUnsupportedFault) {
		t.Errorf("live + out-of-range index: err = %v, want ErrUnsupportedFault", err)
	}
	// Live fidelity runs a pipeline window of one regardless of the
	// requested depth.
	deep := base
	deep.ConsensusFidelity = chain.FidelityLive
	deep.PipelineDepth = 3
	sys, err := NewMultiSystem(deep, []string{"u"})
	if err != nil {
		t.Fatalf("live system: %v", err)
	}
	if sys.cfg.PipelineDepth != 1 {
		t.Errorf("live PipelineDepth = %d, want clamped to 1", sys.cfg.PipelineDepth)
	}
}
