package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/store"
	"ammboost/internal/workload"
)

// --- chaos: adversarial scenario sweep over the live consensus path ---

// The chaos deployment is deliberately small: the point is protocol
// behavior under faults, not throughput. The committee is kept at 20 so
// the model path's analytic agreement time stays well inside the round
// duration — the regime where invariant 11 (model/live equivalence) is
// defined.
const (
	chaosPools     = 8
	chaosShards    = 2
	chaosCommittee = 20
	chaosRounds    = 4
)

// chaosLoad is one traffic level of the sweep (deterministic per-epoch
// transaction counts, regenerated from the seed on recovery like a
// mempool refill).
type chaosLoad struct {
	Name     string
	PerEpoch int
}

func chaosLoads() []chaosLoad {
	return []chaosLoad{{"light", 24}, {"heavy", 96}}
}

// chaosScenario is one fault class of the sweep.
type chaosScenario struct {
	Class string
	// ExpectHalt marks scenarios whose correct outcome is a deterministic
	// ErrConsensusStalled halt rather than completion.
	ExpectHalt bool
	// ExpectViewChanges marks scenarios that must burn at least one view
	// change to pass.
	ExpectViewChanges bool
	Mutate            func(c *chain.Config)
}

// chaosScenarios are the fault classes: probabilistic link chaos,
// a partition that forms and heals mid-epoch, byzantine replicas
// (corrupt-digest leader plus a vote-staller), a planned view-change
// storm, and a never-healing partition that must halt deterministically.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			Class: "lossy-links",
			Mutate: func(c *chain.Config) {
				c.NetFaults = &netsim.FaultSchedule{
					Seed: 99, DropProb: 0.03, DupProb: 0.05,
					ReorderProb: 0.2, ReorderDelay: 8 * time.Millisecond,
				}
			},
		},
		{
			Class:             "partition-heal",
			ExpectViewChanges: true,
			Mutate: func(c *chain.Config) {
				c.NetFaults = &netsim.FaultSchedule{
					Partitions: []netsim.PartitionWindow{{
						At: 8 * time.Second, Heal: 20 * time.Second,
						SideA: []string{"rep-0", "rep-1"},
						SideB: []string{"rep-2", "rep-3", "rep-4"},
					}},
				}
			},
		},
		{
			Class:             "byzantine",
			ExpectViewChanges: true,
			Mutate: func(c *chain.Config) {
				c.Faults.ByzantineReplicas = map[int]pbft.Byzantine{
					0: pbft.CorruptDigest,
					2: pbft.VoteStall,
				}
			},
		},
		{
			Class:             "view-change-storm",
			ExpectViewChanges: true,
			Mutate: func(c *chain.Config) {
				c.Faults.ViewChangeStormRounds = map[[2]uint64]int{{1, 2}: 1}
			},
		},
		{
			Class:      "stall-halt",
			ExpectHalt: true,
			Mutate: func(c *chain.Config) {
				c.LiveRoundTimeout = 30 * time.Second
				c.NetFaults = &netsim.FaultSchedule{
					Partitions: []netsim.PartitionWindow{{
						At:    9 * time.Second, // never heals: split-brain forever
						SideA: []string{"rep-0", "rep-1"},
						SideB: []string{"rep-2", "rep-3", "rep-4"},
					}},
				}
			},
		},
	}
}

// ChaosPoint is one (fault class, load) cell's measured outcome, with the
// same-seed replay verdict folded in.
type ChaosPoint struct {
	Class, Load string
	EpochsRun   int
	SyncsOK     int
	ViewChanges int
	Halted      bool
	HaltErr     string
	Virtual     time.Duration
	Net         netsim.Stats
	Receipts    int
	// StagesOK: no receipt ever skipped a lifecycle stage or moved
	// backwards, under any injected fault.
	StagesOK bool
	// ReplayIdentical: a second run with the identical seed and schedule
	// reproduced every observable bit for bit (roots, digests, view
	// changes, traffic counters, and — for halting scenarios — the halt
	// instant and message).
	ReplayIdentical bool
}

// ChaosResult is the chaos experiment's output: the sweep matrix plus the
// two cross-cutting verdicts (invariant 11 equivalence, invariant 9
// crash-restart recovery under live consensus).
type ChaosResult struct {
	Points []ChaosPoint
	// EquivalenceOK: zero-fault live-fidelity runs reproduced the model
	// path's summary roots and payload digests for every equivalence seed.
	EquivalenceOK    bool
	EquivalenceSeeds []int64
	// RecoveryOK: a store-backed live-fidelity node killed at an epoch
	// boundary and reopened re-derived the uninterrupted run's roots and
	// digests (invariant 9, now exercised with byzantine faults active).
	RecoveryOK bool
}

func chaosUsers() []string {
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("cu-%d", i)
	}
	return users
}

func chaosConfig(seed int64, fidelity chain.ConsensusFidelity) chain.Config {
	return chain.Config{
		Seed:              seed,
		NumPools:          chaosPools,
		NumShards:         chaosShards,
		EpochRounds:       chaosRounds,
		RoundDuration:     7 * time.Second,
		CommitteeSize:     chaosCommittee,
		ConsensusFidelity: fidelity,
		Users:             chaosUsers(),
	}
}

// attachChaosTraffic regenerates each epoch's transactions from (seed,
// epoch) alone — the recovery-aware driver property: a node restored at
// any boundary replays exactly the stream the uninterrupted run saw.
// Accepted receipts accumulate into sink when non-nil.
func attachChaosTraffic(sys *core.MultiSystem, seed int64, perEpoch int, sink *[]*chain.Receipt) {
	pools := sys.PoolIDs()
	users := chaosUsers()
	sys.OnEpochStart = func(epoch uint64) {
		for _, tx := range workload.EpochSwaps(seed, epoch, perEpoch, users, pools, "cx", 500_000) {
			rc, err := sys.Submit(context.Background(), tx)
			if err != nil && !errors.Is(err, chain.ErrHalted) {
				continue
			}
			if sink != nil && rc != nil {
				*sink = append(*sink, rc)
			}
		}
	}
}

// chaosScalars are the run observables a same-seed replay must reproduce
// beside the run fingerprint.
type chaosScalars struct {
	viewChanges int
	syncsOK     int
	epochsRun   int
	duration    time.Duration
	net         netsim.Stats
	haltMsg     string
}

// chaosDiff names how run b differs from run a: the fingerprint's Diff
// text, else the scalars; nil when the two are identical.
func chaosDiff(fpA, fpB chain.Fingerprint, a, b chaosScalars) error {
	if err := fpA.Diff(fpB); err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("run scalars differ: %+v vs %+v", a, b)
	}
	return nil
}

// chaosRun executes one scenario instance and fingerprints it. A halt is
// returned in the scalars (haltMsg non-empty), not as the error; the
// error reports only infrastructure failures.
func chaosRun(cfg chain.Config, epochs, perEpoch int, sink *[]*chain.Receipt) (chain.Fingerprint, chaosScalars, *chain.Report, error) {
	sys, err := core.NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		return chain.Fingerprint{}, chaosScalars{}, nil, err
	}
	attachChaosTraffic(sys, cfg.Seed, perEpoch, sink)
	rep, runErr := sys.Run(epochs)
	if rep == nil {
		return chain.Fingerprint{}, chaosScalars{}, nil, fmt.Errorf("experiments: chaos run returned no report: %w", runErr)
	}
	fp := sys.Fingerprint(nil)
	sc := chaosScalars{
		viewChanges: rep.ViewChanges,
		syncsOK:     rep.SyncsOK,
		epochsRun:   rep.EpochsRun,
		duration:    rep.Duration,
		net:         rep.NetStats,
	}
	if runErr != nil {
		if !errors.Is(runErr, chain.ErrConsensusStalled) {
			return fp, sc, rep, runErr
		}
		sc.haltMsg = runErr.Error()
	}
	if runErr == nil {
		if err := sys.Validate(); err != nil {
			return fp, sc, rep, fmt.Errorf("experiments: chaos invariants: %w", err)
		}
	}
	return fp, sc, rep, nil
}

// receiptLifecycleOK checks one receipt for lifecycle-stage integrity:
// stamps are monotone, no stage is skipped (a later stamp requires every
// earlier one), and the status agrees with the furthest stamped stage.
func receiptLifecycleOK(rc *chain.Receipt) bool {
	if rc.Status == chain.StatusRejected {
		return rc.ExecutedAt == 0 && rc.SyncedAt == 0
	}
	if rc.ExecutedAt > 0 && rc.ExecutedAt < rc.SubmittedAt {
		return false
	}
	if rc.CheckpointedAt > 0 && (rc.ExecutedAt == 0 || rc.CheckpointedAt < rc.ExecutedAt) {
		return false
	}
	if rc.SyncedAt > 0 && (rc.CheckpointedAt == 0 || rc.SyncedAt < rc.CheckpointedAt) {
		return false
	}
	if rc.PrunedAt > 0 && (rc.SyncedAt == 0 || rc.PrunedAt < rc.SyncedAt) {
		return false
	}
	switch rc.Status {
	case chain.StatusPending:
		return rc.ExecutedAt == 0
	case chain.StatusExecuted:
		return rc.ExecutedAt > 0 && rc.CheckpointedAt == 0
	case chain.StatusCheckpointed:
		return rc.CheckpointedAt > 0 && rc.SyncedAt == 0
	case chain.StatusSynced:
		return rc.SyncedAt > 0
	case chain.StatusPruned:
		return rc.SyncedAt > 0 || rc.CheckpointedAt > 0
	}
	return true
}

// RunChaos sweeps fault class x load over the live consensus path, runs
// every cell twice for the bit-identity verdict, then settles the two
// cross-cutting acceptance checks: zero-fault live/model equivalence
// (invariant 11) across the determinism seeds, and crash-restart recovery
// (invariant 9) with byzantine faults active.
func RunChaos(o Options) (*ChaosResult, error) {
	o = o.withDefaults()
	epochs := o.Epochs
	if epochs > 3 {
		epochs = 3 // every cell runs twice; keep the matrix tractable
	}
	res := &ChaosResult{EquivalenceOK: true, RecoveryOK: true,
		EquivalenceSeeds: []int64{1, 42, 1337}}

	for _, sc := range chaosScenarios() {
		for _, load := range chaosLoads() {
			mk := func() chain.Config {
				cfg := chaosConfig(o.Seed, chain.FidelityLive)
				sc.Mutate(&cfg)
				return cfg
			}
			var recs []*chain.Receipt
			fpA, scA, rep, err := chaosRun(mk(), epochs, load.PerEpoch, &recs)
			if err != nil {
				return nil, fmt.Errorf("experiments: chaos %s/%s: %w", sc.Class, load.Name, err)
			}
			fpB, scB, _, err := chaosRun(mk(), epochs, load.PerEpoch, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: chaos %s/%s replay: %w", sc.Class, load.Name, err)
			}
			replayErr := chaosDiff(fpA, fpB, scA, scB)
			pt := ChaosPoint{
				Class: sc.Class, Load: load.Name,
				EpochsRun: rep.EpochsRun, SyncsOK: rep.SyncsOK,
				ViewChanges:     rep.ViewChanges,
				Halted:          scA.haltMsg != "",
				HaltErr:         scA.haltMsg,
				Virtual:         rep.Duration,
				Net:             rep.NetStats,
				Receipts:        len(recs),
				StagesOK:        true,
				ReplayIdentical: replayErr == nil,
			}
			for _, rc := range recs {
				if !receiptLifecycleOK(rc) {
					pt.StagesOK = false
				}
			}
			if sc.ExpectHalt != pt.Halted {
				return nil, fmt.Errorf("experiments: chaos %s/%s: halted=%v, want %v (err %q)",
					sc.Class, load.Name, pt.Halted, sc.ExpectHalt, scA.haltMsg)
			}
			if sc.ExpectViewChanges && pt.ViewChanges == 0 {
				return nil, fmt.Errorf("experiments: chaos %s/%s: no view changes burned", sc.Class, load.Name)
			}
			if replayErr != nil {
				return res, fmt.Errorf("experiments: chaos %s/%s: same-seed replay diverged: %w", sc.Class, load.Name, replayErr)
			}
			if !pt.StagesOK {
				return res, fmt.Errorf("experiments: chaos %s/%s: receipt lifecycle stage violation", sc.Class, load.Name)
			}
			res.Points = append(res.Points, pt)
		}
	}

	// Invariant 11: zero-fault live fidelity is observably the model path.
	perEpoch := chaosLoads()[0].PerEpoch
	var equivErr error
	for _, seed := range res.EquivalenceSeeds {
		fpModel, model, _, err := chaosRun(chaosConfig(seed, chain.FidelityModel), epochs, perEpoch, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos equivalence model seed %d: %w", seed, err)
		}
		fpLive, live, _, err := chaosRun(chaosConfig(seed, chain.FidelityLive), epochs, perEpoch, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos equivalence live seed %d: %w", seed, err)
		}
		// Traffic counters and timing legitimately differ; state must not.
		model.duration, live.duration = 0, 0
		model.net, live.net = netsim.Stats{}, netsim.Stats{}
		err = chaosDiff(fpModel, fpLive, model, live)
		if err == nil && live.viewChanges != 0 {
			err = fmt.Errorf("zero-fault live run burned %d view changes", live.viewChanges)
		}
		if err != nil && equivErr == nil {
			equivErr = fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	if equivErr != nil {
		res.EquivalenceOK = false
		return res, fmt.Errorf("experiments: chaos: zero-fault live fidelity diverged from the model path (invariant 11): %w", equivErr)
	}

	// Invariant 9 under live consensus: reference run, store-backed run,
	// kill -9 at an epoch boundary, reopen, resume, compare.
	byz := func(cfg *chain.Config) {
		cfg.Faults.ByzantineReplicas = map[int]pbft.Byzantine{2: pbft.VoteStall}
	}
	refCfg := chaosConfig(o.Seed, chain.FidelityLive)
	byz(&refCfg)
	refFP, ref, _, err := chaosRun(refCfg, epochs, perEpoch, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos recovery reference: %w", err)
	}
	dir, err := os.MkdirTemp("", "ammboost-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeCfg := chaosConfig(o.Seed, chain.FidelityLive)
	byz(&storeCfg)
	node, err := core.Open(dir, storeCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos recovery open: %w", err)
	}
	attachChaosTraffic(node.(*core.MultiSystem), storeCfg.Seed, perEpoch, nil)
	if _, err := node.Run(epochs); err != nil {
		return nil, fmt.Errorf("experiments: chaos recovery store-backed run: %w", err)
	}
	if err := node.Close(); err != nil {
		return nil, err
	}
	rec, w, err := store.Open(store.OSFS{}, dir, core.DeploymentFingerprint(storeCfg))
	if err != nil {
		return nil, err
	}
	w.Close()
	if len(rec.Boundaries) < epochs {
		return nil, fmt.Errorf("experiments: chaos recovery: %d boundaries persisted, want %d",
			len(rec.Boundaries), epochs)
	}
	data, err := os.ReadFile(filepath.Join(dir, store.FileName))
	if err != nil {
		return nil, err
	}
	dir2, err := os.MkdirTemp("", "ammboost-chaos-kill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	kill := 1 // earliest boundary: the resumed run re-executes the most epochs
	if err := os.WriteFile(filepath.Join(dir2, store.FileName),
		data[:rec.Boundaries[kill-1]], 0o644); err != nil {
		return nil, err
	}
	node2, err := core.Open(dir2, storeCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos recovery reopen: %w", err)
	}
	ms2 := node2.(*core.MultiSystem)
	attachChaosTraffic(ms2, storeCfg.Seed, perEpoch, nil)
	rep2, err := node2.Run(epochs)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos recovery resumed run: %w", err)
	}
	recErr := refFP.Diff(ms2.Fingerprint(nil))
	if recErr == nil && (rep2.EpochsRun != ref.epochsRun || rep2.SyncsOK != ref.syncsOK) {
		recErr = fmt.Errorf("ran %d epochs with %d syncs, reference %d with %d",
			rep2.EpochsRun, rep2.SyncsOK, ref.epochsRun, ref.syncsOK)
	}
	if recErr == nil {
		recErr = node2.Validate()
	}
	node2.Close()
	if recErr != nil {
		res.RecoveryOK = false
		return res, fmt.Errorf("experiments: chaos: crash-restart recovery diverged from the uninterrupted run (invariant 9): %w", recErr)
	}
	return res, nil
}

// Render implements Result.
func (r *ChaosResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Chaos: adversarial scenario sweep (live PBFT committee, %d pools, committee %d)",
			chaosPools, chaosCommittee),
		headers: []string{"Fault class", "Load", "Epochs", "Syncs", "ViewChg",
			"Sent", "Dropped", "Dup", "Outcome", "Replay", "Stages"},
	}
	verdict := func(ok bool) string {
		if ok {
			return "identical"
		}
		return "DIVERGED"
	}
	for _, p := range r.Points {
		outcome := "completed"
		if p.Halted {
			outcome = fmt.Sprintf("halted@%s", secs(p.Virtual)+"s")
		}
		stages := "ok"
		if !p.StagesOK {
			stages = "VIOLATED"
		}
		t.add(p.Class, p.Load,
			fmt.Sprintf("%d", p.EpochsRun), fmt.Sprintf("%d", p.SyncsOK),
			fmt.Sprintf("%d", p.ViewChanges),
			fmt.Sprintf("%d", p.Net.MessagesSent),
			fmt.Sprintf("%d", p.Net.MessagesDropped),
			fmt.Sprintf("%d", p.Net.MessagesDuplicated),
			outcome, verdict(p.ReplayIdentical), stages)
	}
	s := t.String()
	s += fmt.Sprintf("invariant 11 (zero-fault live == model, seeds %v): %s\n",
		r.EquivalenceSeeds, verdict(r.EquivalenceOK))
	s += fmt.Sprintf("invariant 9 (kill -9 at boundary, live + byzantine, resume): %s\n",
		verdict(r.RecoveryOK))
	s += "replay = bit-identity of roots, digests, view changes, traffic counters, and halt\n" +
		"instants across two same-seed runs; stages = no receipt ever skipped or reordered\n" +
		"a lifecycle stage under injected faults.\n"
	return s
}
