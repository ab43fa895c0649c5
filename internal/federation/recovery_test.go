package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/gasmodel"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// recoveryMemberUsers is the fixed principal set for the kill/revive
// tests: swap traffic users plus the cross-chain transfer principal.
func recoveryMemberUsers() []string {
	users := make([]string, 0, 7)
	for i := 0; i < 6; i++ {
		users = append(users, fmt.Sprintf("fu-%d", i))
	}
	return append(users, xferUser)
}

// epochTraffic builds an OnEpochStart hook whose transactions derive
// from (seed, epoch) alone — the traffic shape that survives a member
// kill: whatever epoch the revived member resumes at, it regenerates
// exactly the stream the uninterrupted run saw.
func epochTraffic(t *testing.T, seed int64, perEpoch int) func(*core.MultiSystem, uint64) {
	users := recoveryMemberUsers()
	return func(sys *core.MultiSystem, epoch uint64) {
		rng := rand.New(rand.NewSource(seed*999_983 + int64(epoch)))
		pools := sys.PoolIDs()
		for i := 0; i < perEpoch; i++ {
			tx := &summary.Tx{
				ID:   fmt.Sprintf("ft-e%d-%d", epoch, i),
				Kind: gasmodel.KindSwap,
				// Swap users only — the transfer principal's balance is
				// owned by the escrow flow.
				User:       users[rng.Intn(len(users)-1)],
				PoolID:     pools[rng.Intn(len(pools))],
				ZeroForOne: rng.Intn(2) == 0,
				ExactIn:    true,
				Amount:     u256.FromUint64(uint64(rng.Intn(200_000) + 1)),
			}
			if _, err := sys.Submit(context.Background(), tx); err != nil && !errors.Is(err, chain.ErrHalted) {
				t.Errorf("epoch %d traffic submit: %v", epoch, err)
			}
		}
	}
}

// recoveryMember builds a member driven by deterministic per-epoch hook
// traffic instead of pre-scheduled Zipf arrivals (which die with the
// killed system object).
func recoveryMember(t *testing.T, id string, seed int64) NodeConfig {
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
		ExtraUsers:   recoveryMemberUsers(),
		OnEpochStart: epochTraffic(t, seed, 10),
	}
}

// TestFederationMemberKillRevive is the federated restart acceptance:
// one member is torn down kill -9 style mid-run while its siblings keep
// confirming epochs on the shared mainchain, then revived from its
// durable (compacted) store. The revived member finishes its full epoch
// schedule and every member's run fingerprint is bit-identical to an
// uninterrupted reference federation's; the cross-chain transfer and the
// escrow books stay intact throughout.
func TestFederationMemberKillRevive(t *testing.T) {
	const epochs = 6
	build := func(kill bool) Config {
		gamma := recoveryMember(t, "gamma", 3)
		gamma.StoreDir = "gamma-store"
		gamma.StoreFS = &store.MemFS{}
		gamma.Chain.CompactEvery = 1
		if kill {
			gamma.KillAtEpoch = 2
			// Long enough for any in-flight mainchain tx of the dead
			// member to finalize before the revived bank replaces it.
			gamma.ReviveAfter = 60 * time.Second
		}
		return Config{
			Epochs: epochs,
			Nodes: []NodeConfig{
				recoveryMember(t, "alpha", 1),
				recoveryMember(t, "beta", 2),
				gamma,
			},
			Transfers: []Transfer{{
				ID: "xf-r", FromChain: "alpha", ToChain: "beta",
				User: xferUser, Amount0: amt(), Amount1: amt(), SubmitAtEpoch: 1,
			}},
		}
	}
	run := func(kill bool) (*Result, *Federation) {
		f, err := New(build(kill))
		if err != nil {
			t.Fatal(err)
		}
		fund(t, f, "alpha")
		res, err := f.Run()
		if err != nil {
			t.Fatalf("run(kill=%v): %v", kill, err)
		}
		if err := f.Escrow().Conserved(); err != nil {
			t.Errorf("run(kill=%v) escrow conservation: %v", kill, err)
		}
		return res, f
	}

	refRes, refFed := run(false)
	res, fed := run(true)

	g := nodeResult(t, res, "gamma")
	if g.Err != nil {
		t.Fatalf("killed member finished with error: %v", g.Err)
	}
	if !g.Revived {
		t.Fatal("killed member was never revived")
	}
	if g.Report.EpochsRun != epochs {
		t.Errorf("revived member ran %d epochs, want %d", g.Report.EpochsRun, epochs)
	}
	if ref := nodeResult(t, refRes, "gamma"); g.Report.SyncsOK != ref.Report.SyncsOK {
		t.Errorf("revived member SyncsOK = %d, reference %d", g.Report.SyncsOK, ref.Report.SyncsOK)
	}

	// Every member — the killed one across its restored AND re-executed
	// epochs, and the siblings that never stopped — matches the
	// uninterrupted reference fingerprint. (Mainchain block timing
	// differs while the member is down, so MainchainDigest is out of
	// scope here; invariant 12's digest determinism is pinned by the
	// no-kill federation tests.)
	for _, id := range []string{"alpha", "beta", "gamma"} {
		if got := nodeResult(t, res, id); got.Err != nil {
			t.Fatalf("member %s: %v", id, got.Err)
		}
		if err := refFed.Node(id).Fingerprint(nil).Diff(fed.Node(id).Fingerprint(nil)); err != nil {
			t.Errorf("member %s vs reference: %v", id, err)
		}
	}

	// The transfer (between the two surviving members) completes in both
	// worlds.
	for _, r := range [...]*Result{refRes, res} {
		if rc := r.Transfers[0]; rc.Status != chain.TransferCompleted {
			t.Errorf("transfer = %s (err %v), want completed", rc.Status, rc.Err)
		}
	}
}

// TestFederationTransferBatching pins the per-epoch escrow batching:
// two transfers leaving the same origin at the same epoch ride ONE
// batched lock transaction (and one batched release), while a lone
// transfer keeps the single-entry path and its historical tx ID.
func TestFederationTransferBatching(t *testing.T) {
	half := func() u256.Int { return u256.FromUint64(1 << 19) }
	f, err := New(Config{
		Epochs: 5,
		Nodes: []NodeConfig{
			recoveryMember(t, "alpha", 1),
			recoveryMember(t, "beta", 2),
		},
		Transfers: []Transfer{
			{ID: "xf-a", FromChain: "alpha", ToChain: "beta",
				User: xferUser, Amount0: half(), Amount1: half(), SubmitAtEpoch: 1},
			{ID: "xf-b", FromChain: "alpha", ToChain: "beta",
				User: xferUser, Amount0: half(), Amount1: half(), SubmitAtEpoch: 1},
			{ID: "xf-c", FromChain: "beta", ToChain: "alpha",
				User: xferUser, Amount0: half(), Amount1: half(), SubmitAtEpoch: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fund(t, f, "alpha")
	// xf-c withdraws from beta at epoch 2, so its principal is funded at
	// epoch 2 (deposits are epoch-scoped).
	if _, err := f.Node("beta").SubmitDeposit(xferUser, 2, amt(), amt()); err != nil {
		t.Fatalf("fund beta: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, rc := range res.Transfers {
		if rc.Status != chain.TransferCompleted {
			t.Fatalf("transfer %s = %s (err %v), want completed", rc.ID, rc.Status, rc.Err)
		}
	}
	if err := f.Escrow().Conserved(); err != nil {
		t.Errorf("escrow conservation: %v", err)
	}

	seen := make(map[string]bool)
	var batchLocks, batchReleases int
	for _, b := range f.Mainchain().Blocks() {
		for _, tx := range b.Txs {
			seen[tx.ID] = true
			if strings.HasPrefix(tx.ID, "xfer-batch-alpha-e") && strings.HasSuffix(tx.ID, "-lock") {
				batchLocks++
			}
			if strings.HasPrefix(tx.ID, "xfer-batch-beta-e") && strings.HasSuffix(tx.ID, "-release") {
				batchReleases++
			}
		}
	}
	// xf-a and xf-b left alpha together: one batched lock, and (their
	// deposits confirming together on beta) one batched release.
	if batchLocks != 1 {
		t.Errorf("alpha batch lock txs = %d, want exactly 1", batchLocks)
	}
	if batchReleases != 1 {
		t.Errorf("beta batch release txs = %d, want exactly 1", batchReleases)
	}
	// xf-c traveled alone and keeps the historical single-entry tx IDs.
	for _, id := range []string{"xfer-xf-c-lock", "xfer-xf-c-release"} {
		if !seen[id] {
			t.Errorf("expected mainchain tx %q never appeared", id)
		}
	}
	for _, id := range []string{"xfer-xf-a-lock", "xfer-xf-b-lock",
		"xfer-xf-a-release", "xfer-xf-b-release"} {
		if seen[id] {
			t.Errorf("single-entry tx %q appeared despite batching", id)
		}
	}
}

// TestFederationKillRequiresStore pins the config contract: a kill
// schedule without a durable store cannot revive and is refused up
// front.
func TestFederationKillRequiresStore(t *testing.T) {
	m := recoveryMember(t, "solo", 1)
	m.KillAtEpoch = 2
	if _, err := New(Config{Epochs: 3, Nodes: []NodeConfig{m}}); !errors.Is(err, ErrBadFederation) {
		t.Errorf("New err = %v, want ErrBadFederation", err)
	}
}

// readOnceFS is a MemFS whose every ReadFile after the first fails: the
// member opens its store, but reopening it to revive cannot read it.
type readOnceFS struct {
	store.MemFS
	reads int
}

var errStoreUnreadable = errors.New("store unreadable")

func (f *readOnceFS) ReadFile(name string) ([]byte, error) {
	if f.reads++; f.reads > 1 {
		return nil, errStoreUnreadable
	}
	return f.MemFS.ReadFile(name)
}

// TestFederationFailedRevive: a killed member whose store cannot be
// reopened stays dead, and the run reports the failed revive as the
// member's error while its sibling finishes.
func TestFederationFailedRevive(t *testing.T) {
	gamma := recoveryMember(t, "gamma", 3)
	gamma.StoreDir = "gamma-store"
	gamma.StoreFS = &readOnceFS{}
	gamma.KillAtEpoch = 2
	gamma.ReviveAfter = 10 * time.Second
	f, err := New(Config{Epochs: 4, Nodes: []NodeConfig{recoveryMember(t, "alpha", 1), gamma}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g := nodeResult(t, res, "gamma")
	if !errors.Is(g.Err, errStoreUnreadable) || !strings.Contains(g.Err.Error(), "revive member") || g.Revived {
		t.Errorf("gamma err %v, revived %v; want the failed revive", g.Err, g.Revived)
	}
	if a := nodeResult(t, res, "alpha"); a.Err != nil || a.Report.EpochsRun != 4 {
		t.Errorf("alpha err %v after %d epochs; want all 4 run", a.Err, a.Report.EpochsRun)
	}
}

// TestFederationRefundWaitsForKilledOrigin: the origin is killed right
// after its withdraw epoch syncs and stays down while the destination
// halts on a corrupt Sync with the transfer in custody. The refund
// confirms inside the kill window, so its claim and re-credit must wait
// for the revival: afterwards the refunded amount is either still
// claimable on the escrow or paid out by the revived origin as an
// executed deposit, never claimed into the dead system and lost.
func TestFederationRefundWaitsForKilledOrigin(t *testing.T) {
	alpha := recoveryMember(t, "alpha", 1)
	alpha.StoreDir = "alpha-store"
	alpha.StoreFS = &store.MemFS{}
	alpha.KillAtEpoch = 1
	alpha.ReviveAfter = 10 * time.Minute
	beta := recoveryMember(t, "beta", 2)
	beta.Chain.Faults = chain.FaultPlan{CorruptSyncEpochs: map[uint64]bool{3: true}}
	f, err := New(Config{
		Epochs: 6,
		Nodes:  []NodeConfig{alpha, beta},
		Transfers: []Transfer{{
			ID: "xf-k", FromChain: "alpha", ToChain: "beta",
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
	rc := res.Transfers[0]
	if rc.Status != chain.TransferRefunded {
		t.Fatalf("transfer = %s (err %v), want refunded", rc.Status, rc.Err)
	}
	if rc.SettledAt >= alpha.ReviveAfter {
		t.Fatalf("refund confirmed at %v, after the origin's revival window", rc.SettledAt)
	}
	if a := nodeResult(t, res, "alpha"); a.Err != nil || !a.Revived {
		t.Fatalf("alpha err %v, revived %v; want a clean revival", a.Err, a.Revived)
	}
	esc := f.Escrow()
	if err := esc.Conserved(); err != nil {
		t.Errorf("escrow conservation: %v", err)
	}
	if c0, c1 := esc.ClaimableTotal(); c0.Eq(amt()) && c1.Eq(amt()) {
		return // still claimable on-chain
	}
	if !esc.TotalClaimed0.Eq(amt()) || !esc.TotalClaimed1.Eq(amt()) {
		t.Fatalf("claimed %s/%s, want %s/%s", esc.TotalClaimed0, esc.TotalClaimed1, amt(), amt())
	}
	// Claimed: the revived origin must have executed the re-credit, so
	// one of its epochs pays the amount out to the user.
	for _, sb := range f.Node("alpha").SidechainLedger().Summaries() {
		for _, p := range sb.Payload.Payouts {
			if p.User == xferUser && p.Amount0.Eq(amt()) && p.Amount1.Eq(amt()) {
				return
			}
		}
	}
	t.Errorf("refund claimed off the escrow but never deposited on the revived origin")
}
