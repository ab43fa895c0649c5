package federation

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// xferUser is the cross-chain transfer principal registered on every
// member in these tests.
const xferUser = "xfer-user"

// member builds a fast test member: 2 pools, 3x7s rounds per epoch,
// 4-member committee, light Zipf traffic, and the transfer principal.
func member(id string, seed int64) NodeConfig {
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumUsers = 8
	return NodeConfig{
		Chain: chain.Config{
			ChainID:         id,
			Seed:            seed,
			NumPools:        2,
			NumShards:       2,
			EpochRounds:     3,
			RoundDuration:   7 * time.Second,
			CommitteeSize:   4,
			MinerPopulation: 12,
		},
		DailyVolume: 150_000,
		Workload:    workload.MultiConfig{Config: wcfg, NumPools: 2},
		ExtraUsers:  []string{xferUser},
	}
}

func amt() u256.Int { return u256.FromUint64(1 << 20) }

// fund credits the transfer principal on a member's default pool ahead of
// epoch 1, so epoch-1 withdrawals find an un-traded deposit to debit.
func fund(t *testing.T, f *Federation, chainID string) {
	t.Helper()
	if _, err := f.Node(chainID).SubmitDeposit(xferUser, 1, amt(), amt()); err != nil {
		t.Fatalf("fund %s: %v", chainID, err)
	}
}

func nodeResult(t *testing.T, res *Result, chainID string) *NodeResult {
	t.Helper()
	for _, nr := range res.Nodes {
		if nr.ChainID == chainID {
			return nr
		}
	}
	t.Fatalf("no result for chain %q", chainID)
	return nil
}

// TestFederationBasic: two sidechains on one shared mainchain, one
// cross-chain transfer completing end to end, escrow books balanced, and
// per-chain gas accounted under packer contention.
func TestFederationBasic(t *testing.T) {
	f, err := New(Config{
		Epochs: 4,
		Nodes:  []NodeConfig{member("alpha", 1), member("beta", 2)},
		Transfers: []Transfer{{
			ID: "xf-1", FromChain: "alpha", ToChain: "beta",
			User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fund(t, f, "alpha")
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("node results = %d, want 2", len(res.Nodes))
	}
	for _, nr := range res.Nodes {
		if nr.Err != nil {
			t.Fatalf("member %s: %v", nr.ChainID, nr.Err)
		}
		if nr.Report.SyncsOK < 4 {
			t.Errorf("member %s synced %d epochs, want >= 4", nr.ChainID, nr.Report.SyncsOK)
		}
		if err := f.Node(nr.ChainID).Validate(); err != nil {
			t.Errorf("member %s state validation: %v", nr.ChainID, err)
		}
	}

	rc := res.Transfers[0]
	if rc.Status != chain.TransferCompleted {
		t.Fatalf("transfer = %s (err %v), want completed", rc.Status, rc.Err)
	}
	if rc.WithdrawEpoch != 1 || rc.DepositEpoch == 0 {
		t.Errorf("withdraw epoch %d / deposit epoch %d", rc.WithdrawEpoch, rc.DepositEpoch)
	}
	if !(rc.InitiatedAt <= rc.WithdrawnAt && rc.WithdrawnAt < rc.EscrowedAt &&
		rc.EscrowedAt <= rc.DepositedAt && rc.DepositedAt < rc.SettledAt) {
		t.Errorf("stage timestamps out of order: %+v", rc)
	}

	esc := f.Escrow()
	if ent := esc.Entry("xf-1"); ent == nil || ent.State != mainchain.EscrowReleased {
		t.Errorf("escrow entry = %+v, want released", ent)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("escrow conservation: %v", err)
	}
	if n := esc.LockedCount(); n != 0 {
		t.Errorf("%d escrow entries still locked", n)
	}

	// Per-chain gas accounting: both banks burned gas on the one shared
	// chain, the escrow burned gas, and per-tx gas sums to per-block gas.
	gasByAccount := make(map[string]uint64)
	for _, b := range f.Mainchain().Blocks() {
		var blockSum uint64
		for _, tx := range b.Txs {
			gasByAccount[tx.To] += tx.GasUsed
			blockSum += tx.GasUsed
		}
		if blockSum != b.GasUsed {
			t.Errorf("block %d: tx gas sum %d != block gas %d", b.Number, blockSum, b.GasUsed)
		}
	}
	for _, acct := range []string{
		mainchain.BankAddressFor("alpha"),
		mainchain.BankAddressFor("beta"),
		mainchain.EscrowAddress,
	} {
		if gasByAccount[acct] == 0 {
			t.Errorf("account %s burned no gas", acct)
		}
	}
}

// fingerprint reduces a federation run to its determinism-relevant
// observables: per-member run fingerprints, sync and view-change counts,
// member faults, transfer receipt lifecycles, and the mainchain history
// digest.
type fingerprint struct {
	Digest      [32]byte
	Duration    time.Duration
	Members     map[string]chain.Fingerprint
	Syncs       map[string]int
	ViewChanges map[string]int
	Errs        map[string]string
	Xfers       []string
}

// runFingerprint builds a fresh federation from cfg, funds the origin of
// every transfer, runs it, and fingerprints the outcome.
func runFingerprint(t *testing.T, cfg Config) fingerprint {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	funded := map[string]bool{}
	for _, x := range cfg.Transfers {
		if !funded[x.FromChain] {
			funded[x.FromChain] = true
			fund(t, f, x.FromChain)
		}
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fp := fingerprint{
		Digest:      res.MainchainDigest,
		Duration:    res.Duration,
		Members:     make(map[string]chain.Fingerprint),
		Syncs:       make(map[string]int),
		ViewChanges: make(map[string]int),
		Errs:        make(map[string]string),
	}
	for _, nr := range res.Nodes {
		fp.Members[nr.ChainID] = f.Node(nr.ChainID).Fingerprint(nil)
		fp.Syncs[nr.ChainID] = nr.Report.SyncsOK
		fp.ViewChanges[nr.ChainID] = nr.Report.ViewChanges
		if nr.Err != nil {
			fp.Errs[nr.ChainID] = nr.Err.Error()
		}
	}
	for _, rc := range res.Transfers {
		fp.Xfers = append(fp.Xfers, fmt.Sprintf("%s|%s|we%d|de%d|%d/%d/%d/%d/%d|%v",
			rc.ID, rc.Status, rc.WithdrawEpoch, rc.DepositEpoch,
			rc.InitiatedAt, rc.WithdrawnAt, rc.EscrowedAt, rc.DepositedAt, rc.SettledAt,
			rc.Err))
	}
	return fp
}

// assertSameRun fails t unless run b reproduces run a: every member's
// run fingerprint through Diff, the other observables field by field.
func assertSameRun(t *testing.T, label string, a, b fingerprint) {
	t.Helper()
	if len(a.Members) != len(b.Members) {
		t.Errorf("%s: %d vs %d members", label, len(a.Members), len(b.Members))
	}
	for _, id := range slices.Sorted(maps.Keys(a.Members)) {
		if err := a.Members[id].Diff(b.Members[id]); err != nil {
			t.Errorf("%s: member %s: %v", label, id, err)
		}
	}
	a.Members, b.Members = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s:\n  first:  %+v\n  second: %+v", label, a, b)
	}
}

// TestFederationDeterminism is invariant 12: repeated runs of the same
// federation configuration — across seeds, member counts, a
// halt-mid-transfer fault cell and a member on live consensus with a
// byzantine leader — produce bit-identical per-chain summary roots,
// transfer receipts, and mainchain block/tx history. Only a member whose
// fault plan corrupts a Sync ends its run with an error.
func TestFederationDeterminism(t *testing.T) {
	cells := []struct {
		name string
		cfg  func() Config
	}{}
	for _, k := range []int{2, 4} {
		for _, seed := range []int64{1, 42, 1337} {
			k, seed := k, seed
			cells = append(cells, struct {
				name string
				cfg  func() Config
			}{
				name: fmt.Sprintf("k%d-seed%d", k, seed),
				cfg: func() Config {
					var nodes []NodeConfig
					for i := 0; i < k; i++ {
						nodes = append(nodes, member(fmt.Sprintf("ch-%c", 'a'+i), seed+int64(i)))
					}
					xfers := []Transfer{{
						ID: "xf-ab", FromChain: "ch-a", ToChain: "ch-b",
						User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
					}}
					if k == 4 {
						xfers = append(xfers, Transfer{
							ID: "xf-cd", FromChain: "ch-c", ToChain: "ch-d",
							User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 2,
						})
					}
					return Config{Epochs: 3, Nodes: nodes, Transfers: xfers}
				},
			})
		}
	}
	// Halt-mid-transfer cell: the destination's epoch-2 sync carries a
	// corrupted digest, reverts on-chain, and halts the member while the
	// transfer is in custody; the refund path must be as deterministic as
	// the happy path.
	cells = append(cells, struct {
		name string
		cfg  func() Config
	}{
		name: "k2-halt-mid-transfer",
		cfg: func() Config {
			a, b := member("ch-a", 7), member("ch-b", 8)
			b.Chain.Faults = chain.FaultPlan{CorruptSyncEpochs: map[uint64]bool{2: true}}
			return Config{
				Epochs: 4,
				Nodes:  []NodeConfig{a, b},
				Transfers: []Transfer{{
					ID: "xf-halt", FromChain: "ch-a", ToChain: "ch-b",
					User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
				}},
			}
		},
	})

	// Live-consensus cell: the second member's committee runs real PBFT
	// rounds under a delayed-equivocating leader, deposed by view changes
	// while the transfer completes.
	cells = append(cells, struct {
		name string
		cfg  func() Config
	}{
		name: "k2-byz-delayed-equivocate",
		cfg: func() Config {
			a, b := member("ch-a", 42), member("ch-b", 43)
			b.Chain.ConsensusFidelity = chain.FidelityLive
			b.Chain.Faults = chain.FaultPlan{ByzantineReplicas: map[int]pbft.Byzantine{0: pbft.DelayedEquivocate}}
			return Config{
				Epochs: 3,
				Nodes:  []NodeConfig{a, b},
				Transfers: []Transfer{{
					ID: "xf-byz", FromChain: "ch-a", ToChain: "ch-b",
					User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
				}},
			}
		},
	})

	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			cfg := cell.cfg()
			first := runFingerprint(t, cfg)
			second := runFingerprint(t, cell.cfg())
			if first.Digest != second.Digest {
				t.Errorf("mainchain history digests differ: %x vs %x", first.Digest, second.Digest)
			}
			assertSameRun(t, "replay", first, second)
			for _, n := range cfg.Nodes {
				if len(n.Chain.Faults.ByzantineReplicas) > 0 && first.ViewChanges[n.Chain.ChainID] == 0 {
					t.Errorf("member %s: its byzantine replicas cost no view change", n.Chain.ChainID)
				}
				if err := first.Errs[n.Chain.ChainID]; (err != "") != (len(n.Chain.Faults.CorruptSyncEpochs) > 0) {
					t.Errorf("member %s: run error %q with planned corrupt Syncs %v", n.Chain.ChainID, err, n.Chain.Faults.CorruptSyncEpochs)
				}
			}
		})
	}
}

// TestFederationRefundOnDestinationHalt: the destination's very first
// sync reverts (corrupt committee signature) and the member halts before
// the deposit can finalize. The escrow refunds toward the still-running
// origin, which claims the balance and re-credits its user — no value
// stranded on any ledger.
func TestFederationRefundOnDestinationHalt(t *testing.T) {
	b := member("beta", 11)
	b.Chain.Faults = chain.FaultPlan{CorruptSyncEpochs: map[uint64]bool{1: true}}
	f, err := New(Config{
		Epochs: 4,
		Nodes:  []NodeConfig{member("alpha", 10), b},
		Transfers: []Transfer{{
			ID: "xf-r", FromChain: "alpha", ToChain: "beta",
			User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fund(t, f, "alpha")
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	if nr := nodeResult(t, res, "beta"); !errors.Is(nr.Err, chain.ErrSyncReverted) {
		t.Errorf("beta err = %v, want ErrSyncReverted", nr.Err)
	}
	if nr := nodeResult(t, res, "alpha"); nr.Err != nil {
		t.Errorf("alpha must survive beta's halt, got %v", nr.Err)
	}

	rc := res.Transfers[0]
	if rc.Status != chain.TransferRefunded {
		t.Fatalf("transfer = %s (err %v), want refunded", rc.Status, rc.Err)
	}
	if rc.Err == nil {
		t.Error("refunded transfer carries no reason")
	}

	esc := f.Escrow()
	if ent := esc.Entry("xf-r"); ent == nil || ent.State != mainchain.EscrowRefunded {
		t.Fatalf("escrow entry = %+v, want refunded", ent)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("escrow conservation: %v", err)
	}
	// The origin was alive: the refund was claimed and re-credited, so
	// nothing stays on the claimable ledger.
	if !esc.TotalClaimed0.Eq(amt()) || !esc.TotalClaimed1.Eq(amt()) {
		t.Errorf("claimed = (%s,%s), want (%s,%s)",
			esc.TotalClaimed0, esc.TotalClaimed1, amt(), amt())
	}
	if c0, c1 := esc.ClaimableTotal(); !c0.IsZero() || !c1.IsZero() {
		t.Errorf("claimable ledger holds (%s,%s) after re-credit", c0, c1)
	}
}

// TestFederationAbortOnOriginSyncRevert: the origin's withdraw epoch
// never syncs (its own committee equivocated), so the escrow lock is
// never submitted — atomicity holds by construction: no mainchain custody
// ever existed, and the transfer aborts.
func TestFederationAbortOnOriginSyncRevert(t *testing.T) {
	a := member("alpha", 20)
	a.Chain.Faults = chain.FaultPlan{CorruptSyncEpochs: map[uint64]bool{1: true}}
	f, err := New(Config{
		Epochs: 3,
		Nodes:  []NodeConfig{a, member("beta", 21)},
		Transfers: []Transfer{{
			ID: "xf-a", FromChain: "alpha", ToChain: "beta",
			User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fund(t, f, "alpha")
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if nr := nodeResult(t, res, "alpha"); !errors.Is(nr.Err, chain.ErrSyncReverted) {
		t.Errorf("alpha err = %v, want ErrSyncReverted", nr.Err)
	}
	if nr := nodeResult(t, res, "beta"); nr.Err != nil {
		t.Errorf("beta must survive alpha's halt, got %v", nr.Err)
	}
	rc := res.Transfers[0]
	if rc.Status != chain.TransferAborted {
		t.Fatalf("transfer = %s, want aborted", rc.Status)
	}
	if n := len(f.Escrow().Entries); n != 0 {
		t.Errorf("escrow holds %d entries; an aborted transfer must never fund custody", n)
	}
}

// TestFederationSyncUplinkFaults: one member's sync parts traverse a
// lossy uplink. Dropped parts retransmit on the deterministic watchdog
// (surfacing EventSyncRetry), every epoch still confirms, and the
// member's summary roots are bit-identical to a fault-free run — the
// uplink perturbs timing, never state.
func TestFederationSyncUplinkFaults(t *testing.T) {
	build := func(faults *netsim.FaultSchedule) Config {
		a := member("alpha", 30)
		a.Chain.SyncFaults = faults
		return Config{Epochs: 3, Nodes: []NodeConfig{a, member("beta", 31)}}
	}

	clean, err := New(build(nil))
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	lossy, err := New(build(&netsim.FaultSchedule{Seed: 7, DropProb: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	retries := 0
	lossy.Node("alpha").OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventSyncRetry {
			retries++
		}
	})
	lossyRes, err := lossy.Run()
	if err != nil {
		t.Fatalf("lossy run: %v", err)
	}

	if retries == 0 {
		t.Error("no sync retransmissions under 50% uplink loss")
	}
	for _, chainID := range []string{"alpha", "beta"} {
		cn, ln := nodeResult(t, cleanRes, chainID), nodeResult(t, lossyRes, chainID)
		if ln.Err != nil {
			t.Fatalf("member %s halted under uplink loss: %v", chainID, ln.Err)
		}
		if cn.Report.SyncsOK != ln.Report.SyncsOK {
			t.Errorf("member %s syncs: clean %d, lossy %d", chainID, cn.Report.SyncsOK, ln.Report.SyncsOK)
		}
		if !reflect.DeepEqual(cn.Report.SummaryRoots, ln.Report.SummaryRoots) {
			t.Errorf("member %s summary roots diverge under uplink faults", chainID)
		}
	}
}

// TestFederationRetentionIndependence: one member bounds its bookkeeping
// with RetainEpochs while its sibling retains everything — per-chain
// retention on the shared mainchain deployment must not leak across
// tenants, and an unbounded member keeps the shared chain's history
// unbounded.
func TestFederationRetentionIndependence(t *testing.T) {
	a := member("alpha", 40)
	a.Chain.RetainEpochs = 2
	b := member("beta", 41)
	f, err := New(Config{Epochs: 6, Nodes: []NodeConfig{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ar, br := nodeResult(t, res, "alpha"), nodeResult(t, res, "beta")
	if ar.Err != nil || br.Err != nil {
		t.Fatalf("member errors: alpha %v, beta %v", ar.Err, br.Err)
	}
	// Traffic queued at the planned horizon drains into extra epochs, so
	// compare against what actually ran, not the plan.
	ran := br.Report.EpochsRun
	if ran < 6 {
		t.Fatalf("unbounded member ran %d epochs, want >= 6", ran)
	}
	if got := len(br.Report.SummaryRoots); got != ran {
		t.Errorf("unbounded member retains %d roots, want %d", got, ran)
	}
	if got := len(ar.Report.SummaryRoots); got >= ran {
		t.Errorf("bounded member retains %d roots, want < %d", got, ran)
	}
	var epochs []uint64
	for e := range ar.Report.SummaryRoots {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) == 0 || epochs[len(epochs)-1] != uint64(ran) {
		t.Errorf("bounded member's retained epochs = %v, want newest epoch %d present", epochs, ran)
	}
	// One unbounded member keeps the shared chain's history unbounded.
	mc := f.Mainchain()
	if uint64(len(mc.Blocks())) != mc.Height() {
		t.Errorf("shared chain pruned history (%d retained of %d) despite an unbounded member",
			len(mc.Blocks()), mc.Height())
	}
}

// TestFederationDurableMembersMatchMemory: members running over durable
// stores produce bit-identical results to in-memory members — the store
// is an observer of the lifecycle, never a participant.
func TestFederationDurableMembersMatchMemory(t *testing.T) {
	build := func(dirA, dirB string) Config {
		a, b := member("alpha", 50), member("beta", 51)
		a.StoreDir, b.StoreDir = dirA, dirB
		return Config{
			Epochs: 3,
			Nodes:  []NodeConfig{a, b},
			Transfers: []Transfer{{
				ID: "xf-d", FromChain: "alpha", ToChain: "beta",
				User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
			}},
		}
	}
	mem := runFingerprint(t, build("", ""))
	dur := runFingerprint(t, build(t.TempDir(), t.TempDir()))
	assertSameRun(t, "durable vs memory members", mem, dur)
}
