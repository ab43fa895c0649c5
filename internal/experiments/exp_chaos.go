package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/workload"
)

// --- chaos: adversarial scenario sweep over the live consensus path ---

// The chaos deployment is deliberately small: the point is protocol
// behavior under faults, not throughput. The committee is kept at 20 so
// agreement stays well inside the round duration.
const (
	chaosPools     = 8
	chaosShards    = 2
	chaosCommittee = 20
	chaosRounds    = 4
)

// chaosLoad is one traffic level of the sweep (deterministic per-epoch
// transaction counts).
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

// ChaosPoint is one (fault class, load) cell's measured outcome.
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
}

// ChaosResult is the chaos experiment's output: the sweep matrix.
type ChaosResult struct {
	Points []ChaosPoint
}

func chaosUsers() []string {
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("cu-%d", i)
	}
	return users
}

func chaosConfig(seed int64) chain.Config {
	return chain.Config{
		Seed:              seed,
		NumPools:          chaosPools,
		NumShards:         chaosShards,
		EpochRounds:       chaosRounds,
		RoundDuration:     7 * time.Second,
		CommitteeSize:     chaosCommittee,
		ConsensusFidelity: chain.FidelityLive,
		Users:             chaosUsers(),
	}
}

// chaosRun executes one scenario instance, submitting each epoch's
// transactions (a function of seed and epoch) as the epoch starts and
// collecting the accepted receipts. A consensus stall is returned as the
// report's halt message, not as the error; the error reports only other
// failures.
func chaosRun(cfg chain.Config, epochs, perEpoch int) (*chain.Report, string, []*chain.Receipt, error) {
	sys, err := core.NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		return nil, "", nil, err
	}
	var recs []*chain.Receipt
	pools, users := sys.PoolIDs(), chaosUsers()
	sys.OnEpochStart = func(epoch uint64) {
		for _, tx := range workload.EpochSwaps(cfg.Seed, epoch, perEpoch, users, pools, "cx", 500_000) {
			if rc, err := sys.Submit(context.Background(), tx); rc != nil && (err == nil || errors.Is(err, chain.ErrHalted)) {
				recs = append(recs, rc)
			}
		}
	}
	rep, runErr := sys.Run(epochs)
	if rep == nil {
		return nil, "", nil, fmt.Errorf("experiments: chaos run returned no report: %w", runErr)
	}
	switch {
	case errors.Is(runErr, chain.ErrConsensusStalled):
		return rep, runErr.Error(), recs, nil
	case runErr != nil:
		return rep, "", recs, runErr
	}
	if err := sys.Validate(); err != nil {
		return rep, "", recs, fmt.Errorf("experiments: chaos invariants: %w", err)
	}
	return rep, "", recs, nil
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

// RunChaos sweeps fault class x load over the live consensus path and
// checks each cell's outcome: the expected halt or completion, the
// expected view changes, and receipt lifecycle-stage integrity.
func RunChaos(o Options) (*ChaosResult, error) {
	o = o.withDefaults()
	epochs := min(o.Epochs, 3) // keep the matrix tractable
	res := &ChaosResult{}
	for _, sc := range chaosScenarios() {
		for _, load := range chaosLoads() {
			cfg := chaosConfig(o.Seed)
			sc.Mutate(&cfg)
			rep, haltMsg, recs, err := chaosRun(cfg, epochs, load.PerEpoch)
			if err != nil {
				return nil, fmt.Errorf("experiments: chaos %s/%s: %w", sc.Class, load.Name, err)
			}
			pt := ChaosPoint{
				Class: sc.Class, Load: load.Name,
				EpochsRun: rep.EpochsRun, SyncsOK: rep.SyncsOK,
				ViewChanges: rep.ViewChanges,
				Halted:      haltMsg != "",
				HaltErr:     haltMsg,
				Virtual:     rep.Duration,
				Net:         rep.NetStats,
				Receipts:    len(recs),
				StagesOK:    !slices.ContainsFunc(recs, func(rc *chain.Receipt) bool { return !receiptLifecycleOK(rc) }),
			}
			if sc.ExpectHalt != pt.Halted {
				return nil, fmt.Errorf("experiments: chaos %s/%s: halted=%v, want %v (err %q)",
					sc.Class, load.Name, pt.Halted, sc.ExpectHalt, haltMsg)
			}
			if sc.ExpectViewChanges && pt.ViewChanges == 0 {
				return nil, fmt.Errorf("experiments: chaos %s/%s: no view changes burned", sc.Class, load.Name)
			}
			if !pt.StagesOK {
				return res, fmt.Errorf("experiments: chaos %s/%s: receipt lifecycle stage violation", sc.Class, load.Name)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Render implements Result.
func (r *ChaosResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Chaos: adversarial scenario sweep (live PBFT committee, %d pools, committee %d)",
			chaosPools, chaosCommittee),
		headers: []string{"Fault class", "Load", "Epochs", "Syncs", "ViewChg",
			"Sent", "Dropped", "Dup", "Outcome", "Stages"},
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
			outcome, stages)
	}
	return t.String() + "stages = no receipt ever skipped or reordered a lifecycle stage under injected\n" +
		"faults.\n"
}
