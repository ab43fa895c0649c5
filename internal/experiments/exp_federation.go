package experiments

import (
	"fmt"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/federation"
	"ammboost/internal/mainchain"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// --- federation: K sidechains on one shared mainchain ---

// The federation sweep is sized like the chaos matrix: small committees
// and few epochs, because the object under test is cross-chain protocol
// behavior — gas contention on the shared chain, two-phase transfer
// outcomes, refund paths — not throughput.
const (
	fedPools       = 4
	fedShards      = 2
	fedCommittee   = 8
	fedRounds      = 3
	fedEpochs      = 3
	fedDailyVolume = 200_000
	fedXferUser    = "fed-xfer-user"
)

// FederationPoint is one federation cell's measured outcome.
type FederationPoint struct {
	Cell string
	K    int
	// SyncsOK totals every member's confirmed epoch syncs.
	SyncsOK int
	// Blocks/TotalGas describe the ONE shared mainchain all members
	// contend on; GasMin/GasMax are the smallest and largest per-member
	// bank gas shares (contention never starves a tenant).
	Blocks   uint64
	TotalGas uint64
	GasMin   uint64
	GasMax   uint64
	// Transfer outcome counts.
	Completed, Refunded, Aborted int
	// ViewChanges totals across members (nonzero only in the byzantine
	// cell).
	ViewChanges int
	Virtual     time.Duration
}

// FederationResult is the federation experiment's output.
type FederationResult struct {
	Points []FederationPoint
}

func fedMember(id string, seed int64) federation.NodeConfig {
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumUsers = 8
	return federation.NodeConfig{
		Chain: chain.Config{
			ChainID:         id,
			Seed:            seed,
			NumPools:        fedPools,
			NumShards:       fedShards,
			EpochRounds:     fedRounds,
			RoundDuration:   7 * time.Second,
			CommitteeSize:   fedCommittee,
			MinerPopulation: 20,
		},
		DailyVolume: fedDailyVolume,
		Workload:    workload.MultiConfig{Config: wcfg, NumPools: fedPools},
		ExtraUsers:  []string{fedXferUser},
	}
}

// fedCell is one cell of the sweep: K members, optional transfers, and a
// mutation hook for fault injection.
type fedCell struct {
	Name      string
	K         int
	Transfers int
	// ExpectRefunded marks cells whose transfer must end refunded instead
	// of completed; ExpectViewChanges marks cells that must burn view
	// changes (byzantine member).
	ExpectRefunded    bool
	ExpectViewChanges bool
	Mutate            func(nodes []federation.NodeConfig)
}

func fedCells() []fedCell {
	return []fedCell{
		{Name: "k1-baseline", K: 1},
		{Name: "k2-transfer", K: 2, Transfers: 1},
		{Name: "k4-transfers", K: 4, Transfers: 2},
		{
			// The destination's first sync reverts (corrupt committee
			// digest) and the member halts mid-transfer: the escrow must
			// refund toward the origin, which re-credits its user.
			Name: "k2-dest-halt-refund", K: 2, Transfers: 1, ExpectRefunded: true,
			Mutate: func(nodes []federation.NodeConfig) {
				nodes[1].Chain.Faults = chain.FaultPlan{CorruptSyncEpochs: map[uint64]bool{1: true}}
			},
		},
		{
			// One member runs live PBFT rounds with a delayed-equivocating
			// replica — the worst-case single-leader delay strategy. The
			// committee deposes it through view changes; the federation
			// (and its transfer) completes regardless.
			Name: "k2-byz-delayed-equivocate", K: 2, Transfers: 1, ExpectViewChanges: true,
			Mutate: func(nodes []federation.NodeConfig) {
				nodes[1].Chain.ConsensusFidelity = chain.FidelityLive
				nodes[1].Chain.Faults = chain.FaultPlan{
					ByzantineReplicas: map[int]pbft.Byzantine{0: pbft.DelayedEquivocate},
				}
			},
		},
	}
}

// fedBuild constructs one cell's federation configuration.
func fedBuild(o Options, cell fedCell) federation.Config {
	nodes := make([]federation.NodeConfig, cell.K)
	for i := range nodes {
		nodes[i] = fedMember(fmt.Sprintf("fed-%c", 'a'+i), o.Seed+int64(i))
	}
	if cell.Mutate != nil {
		cell.Mutate(nodes)
	}
	cfg := federation.Config{Epochs: fedEpochs, Nodes: nodes}
	amount := u256.FromUint64(1 << 20)
	for x := 0; x < cell.Transfers; x++ {
		cfg.Transfers = append(cfg.Transfers, federation.Transfer{
			ID:            fmt.Sprintf("fx-%d", x+1),
			FromChain:     nodes[2*x].Chain.ChainID,
			ToChain:       nodes[2*x+1].Chain.ChainID,
			User:          fedXferUser,
			Amount0:       amount,
			Amount1:       amount,
			SubmitAtEpoch: 1,
		})
	}
	return cfg
}

// fedRun builds, funds, and runs one federation instance.
func fedRun(cfg federation.Config) (*federation.Federation, *federation.Result, error) {
	f, err := federation.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	funded := map[string]bool{}
	for _, x := range cfg.Transfers {
		if funded[x.FromChain] {
			continue
		}
		funded[x.FromChain] = true
		if _, err := f.Node(x.FromChain).SubmitDeposit(x.User, 1, x.Amount0, x.Amount1); err != nil {
			return nil, nil, fmt.Errorf("experiments: federation funding %s: %w", x.FromChain, err)
		}
	}
	res, err := f.Run()
	if err != nil {
		return nil, nil, err
	}
	return f, res, nil
}

// RunFederation sweeps member count and fault cells over the federated
// deployment: K sidechains contending for one shared mainchain's block
// gas, and cross-chain transfers completing or refunding through the
// escrow.
func RunFederation(o Options) (*FederationResult, error) {
	o = o.withDefaults()
	res := &FederationResult{}
	for _, cell := range fedCells() {
		f, run, err := fedRun(fedBuild(o, cell))
		if err != nil {
			return nil, fmt.Errorf("experiments: federation %s: %w", cell.Name, err)
		}
		// federation.Run has already failed the cell unless the escrow
		// conserved and released every entry.
		pt := FederationPoint{Cell: cell.Name, K: cell.K, Virtual: run.Duration}
		for _, nr := range run.Nodes {
			pt.SyncsOK += nr.Report.SyncsOK
			pt.ViewChanges += nr.Report.ViewChanges
		}
		for _, rc := range run.Transfers {
			switch rc.Status {
			case chain.TransferCompleted:
				pt.Completed++
			case chain.TransferRefunded:
				pt.Refunded++
			case chain.TransferAborted:
				pt.Aborted++
			}
		}
		// Per-member gas shares on the shared chain: contention must slow
		// tenants down, never starve one out.
		mc := f.Mainchain()
		pt.Blocks = mc.Height()
		gas := make(map[string]uint64)
		for _, b := range mc.Blocks() {
			pt.TotalGas += b.GasUsed
			for _, tx := range b.Txs {
				gas[tx.To] += tx.GasUsed
			}
		}
		for _, nr := range run.Nodes {
			g := gas[mainchain.BankAddressFor(nr.ChainID)]
			if pt.GasMin == 0 || g < pt.GasMin {
				pt.GasMin = g
			}
			if g > pt.GasMax {
				pt.GasMax = g
			}
		}

		wantCompleted, wantRefunded := cell.Transfers, 0
		if cell.ExpectRefunded {
			wantCompleted, wantRefunded = cell.Transfers-1, 1
		}
		if pt.Completed != wantCompleted || pt.Refunded != wantRefunded || pt.Aborted != 0 {
			return nil, fmt.Errorf("experiments: federation %s: transfers completed=%d refunded=%d aborted=%d, want %d/%d/0",
				cell.Name, pt.Completed, pt.Refunded, pt.Aborted, wantCompleted, wantRefunded)
		}
		if cell.ExpectViewChanges && pt.ViewChanges == 0 {
			return nil, fmt.Errorf("experiments: federation %s: no view changes burned", cell.Name)
		}
		if pt.GasMin == 0 {
			return res, fmt.Errorf("experiments: federation %s: a member was starved of block gas", cell.Name)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render implements Result.
func (r *FederationResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Federation: K sidechains on one shared mainchain (%d pools, committee %d, %d epochs)",
			fedPools, fedCommittee, fedEpochs),
		headers: []string{"Cell", "K", "Syncs", "Blocks", "Gas", "GasMin", "GasMax",
			"Done", "Refund", "ViewChg", "Virtual"},
	}
	for _, p := range r.Points {
		t.add(p.Cell, fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%d", p.SyncsOK), fmt.Sprintf("%d", p.Blocks),
			fmt.Sprintf("%d", p.TotalGas),
			fmt.Sprintf("%d", p.GasMin), fmt.Sprintf("%d", p.GasMax),
			fmt.Sprintf("%d", p.Completed), fmt.Sprintf("%d", p.Refunded),
			fmt.Sprintf("%d", p.ViewChanges), secs(p.Virtual)+"s")
	}
	return t.String() + "escrow = locked == released + refunded with refunded == claimed + claimable, and no\n" +
		"entry left in custody.\n"
}
