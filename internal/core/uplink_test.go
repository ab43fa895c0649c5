package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/metrics"
	"ammboost/internal/netsim"
	"ammboost/internal/sim"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// uplinkRig drives a syncUplink against a bare MultiBank on its own
// simulator and mainchain, with a dealt committee per epoch and
// hand-built payloads. It stands in for the node: it records the halt
// error and every epochSynced call.
type uplinkRig struct {
	sim    *sim.Simulator
	mc     *mainchain.Chain
	bank   *mainchain.MultiBank
	up     *syncUplink
	keys   map[uint64]*committeeKeys
	pools  []string
	events []chain.Event
	err    error
	synced []chain.Event
}

func (r *uplinkRig) Halted() bool { return r.err != nil }

func (r *uplinkRig) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *uplinkRig) epochSynced(ev chain.Event) { r.synced = append(r.synced, ev) }

func newUplinkRig(t *testing.T, chainID string, faults *netsim.FaultSchedule) *uplinkRig {
	t.Helper()
	r := &uplinkRig{sim: sim.New(), keys: make(map[uint64]*committeeKeys)}
	for i := 0; i < 6; i++ {
		r.pools = append(r.pools, fmt.Sprintf("pool-%d", i))
	}
	for e := uint64(1); e <= 4; e++ {
		signer, g, _ := dealtSigner(t, int64(e), 3, 4)
		r.keys[e] = &committeeKeys{group: g, signer: signer}
	}
	r.mc = mainchain.New(r.sim, mainchain.DefaultConfig())
	r.bank = mainchain.NewMultiBank(r.pools, r.keys[1].group).WithAddress(mainchain.BankAddressFor(chainID))
	r.mc.Deploy(r.bank)
	bus := chain.NewBus()
	bus.OnPublish(func(ev chain.Event) { r.events = append(r.events, ev) })
	r.up = newSyncUplink(r, r.sim, r.mc, r.bank, chainID, faults, bus, metrics.New(), nil)
	return r
}

// payloads hand-builds epoch e's per-pool payloads.
func (r *uplinkRig) payloads(e uint64) []*summary.SyncPayload {
	out := make([]*summary.SyncPayload, len(r.pools))
	for i, pid := range r.pools {
		out[i] = &summary.SyncPayload{Epoch: e, PoolID: pid,
			PoolReserve0: u256.FromUint64(1000*e + uint64(i)), PoolReserve1: u256.FromUint64(2000 * e)}
	}
	return out
}

// parts signs epoch e's payloads with the epoch's committee, cut at the
// gas budget (corrupt signs a corrupted digest, as an equivocating
// committee would).
func (r *uplinkRig) parts(t *testing.T, e, budget uint64, corrupt bool) []*mainchain.MultiSyncArgs {
	t.Helper()
	payloads := r.payloads(e)
	res := &engine.EpochResult{Epoch: e, SummaryRoot: [32]byte{0xaa, byte(e)}, Payloads: payloads, OnChain: payloads}
	parts, err := signSyncParts(e, res, r.keys[e], r.keys[e+1].group, corrupt, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestSyncUplinkChunksAtGasBudget: parts are cut at the declared-gas
// budget (proofs aside), carry their proofs as calldata, are named and
// addressed under the chain ID, declare their gas, depend on every part
// of the previous epoch, and each epoch reaches the node once, with its
// parts, bytes and gas summed.
func TestSyncUplinkChunksAtGasBudget(t *testing.T) {
	r := newUplinkRig(t, "alpha", nil)
	// The budget fits exactly two of the equal-sized payloads.
	budget := (&mainchain.MultiSyncArgs{Payloads: r.payloads(1)[:2]}).Gas().Declared()
	for e := uint64(1); e <= 2; e++ {
		parts := r.parts(t, e, budget, false)
		if len(parts) != 3 {
			t.Fatalf("epoch %d: %d parts at a two-pool budget, want 3", e, len(parts))
		}
		r.sim.At(time.Duration(e)*time.Second, func() { r.up.submit(e, partTxs(parts), nil) })
	}
	r.sim.RunUntil(10 * time.Minute)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.bank.LastSyncedEpoch != 2 || len(r.synced) != 2 {
		t.Fatalf("bank synced to %d, %d epochSynced calls; want 2, 2", r.bank.LastSyncedEpoch, len(r.synced))
	}
	for e := uint64(1); e <= 2; e++ {
		var deps []string
		if e == 2 {
			deps = []string{"alpha/msync-e1-p1", "alpha/msync-e1-p2", "alpha/msync-e1-p3"}
		}
		bytes, gas := 0, uint64(0)
		for i := 1; i <= 3; i++ {
			tx := r.mc.TxByID(fmt.Sprintf("alpha/msync-e%d-p%d", e, i))
			if tx == nil || tx.Status != mainchain.TxConfirmed {
				t.Fatalf("epoch %d part %d missing or unconfirmed: %+v", e, i, tx)
			}
			// The chunker sizes parts before they are bound, so the
			// budget holds for a part's declared gas without its proof.
			args := tx.Args.(*mainchain.MultiSyncArgs)
			unproven := args.Gas()
			unproven.ProofHashes = 0
			if tx.From != "sc-committee/alpha" || tx.GasLimit != args.Gas().Declared() || unproven.Declared() > budget ||
				len(args.Proof) != 2 || tx.Size != 32+args.Payloads[0].MainchainBytes()+args.Payloads[1].MainchainBytes()+2*32 ||
				!reflect.DeepEqual(tx.DependsOn, deps) {
				t.Errorf("epoch %d part %d: from %q, gas limit %d (budget %d), size %d, deps %v",
					e, i, tx.From, tx.GasLimit, budget, tx.Size, tx.DependsOn)
			}
			bytes += tx.Size
			gas += tx.GasUsed
		}
		ev := r.synced[e-1]
		if ev.Type != chain.EventSyncConfirmed || ev.Epoch != e || ev.Parts != 3 || ev.Bytes != bytes || ev.Gas != gas {
			t.Errorf("epoch %d synced as %+v; want 3 parts, %d bytes, %d gas", e, ev, bytes, gas)
		}
	}
	submitted := 0
	for _, ev := range r.events {
		if ev.Type == chain.EventSyncSubmitted {
			submitted++
		}
	}
	if submitted != 2 {
		t.Errorf("%d EventSyncSubmitted, want 2", submitted)
	}
}

// TestSyncUplinkRevertReachesNode: a part the bank reverts (a corrupted
// committee signature) halts the node with ErrSyncReverted, and the
// epoch never reports synced.
func TestSyncUplinkRevertReachesNode(t *testing.T) {
	r := newUplinkRig(t, "", nil)
	parts := r.parts(t, 1, 1<<40, true)
	r.up.submit(1, partTxs(parts), nil)
	r.sim.RunUntil(5 * time.Minute)
	if !errors.Is(r.err, chain.ErrSyncReverted) || !errors.Is(r.mc.TxByID("msync-e1-p1").Err, mainchain.ErrBadSyncSignature) {
		t.Fatalf("node error %v, want ErrSyncReverted from a bad signature", r.err)
	}
	if len(r.synced) != 0 || r.bank.LastSyncedEpoch != 0 {
		t.Errorf("reverted epoch reported synced (%d calls, bank at %d)", len(r.synced), r.bank.LastSyncedEpoch)
	}
}

// TestSyncUplinkRetriesDroppedPart: a part sent while the node's end of
// the link (named under its chain ID) is down is lost; the watchdog
// resends it three block intervals later, publishes one EventSyncRetry
// for the second attempt, and the epoch syncs.
func TestSyncUplinkRetriesDroppedPart(t *testing.T) {
	r := newUplinkRig(t, "alpha", &netsim.FaultSchedule{
		Crashes: []netsim.CrashWindow{{Node: "sc-node/alpha", At: 0, Restart: 30 * time.Second}}})
	parts := r.parts(t, 1, 1<<40, false)
	r.sim.At(time.Second, func() { r.up.submit(1, partTxs(parts), nil) })
	r.sim.RunUntil(5 * time.Minute)
	if r.err != nil {
		t.Fatal(r.err)
	}
	var retries []chain.Event
	for _, ev := range r.events {
		if ev.Type == chain.EventSyncRetry {
			retries = append(retries, ev)
		}
	}
	want := time.Second + 3*r.mc.Config().BlockInterval
	if len(retries) != 1 || retries[0].Epoch != 1 || retries[0].Parts != 1 || retries[0].Txs != 2 || retries[0].At != want {
		t.Fatalf("retries %+v, want one for part 1's second send at %v", retries, want)
	}
	if len(r.synced) != 1 || r.bank.LastSyncedEpoch != 1 {
		t.Errorf("retried epoch not synced: %d calls, bank at %d", len(r.synced), r.bank.LastSyncedEpoch)
	}
}

// TestSyncUplinkReplay: logged parts replayed into a fresh bank leave it
// where the live run's confirmations left it, so the next epoch's parts
// verify; resume names the boundary's parts as the next dependency. A
// corrupt-signed epoch stops replay: silently on a halted node, and on
// any other as the ErrSyncReverted the chain would have halted it with.
// A part that fails any other check is ErrCorruptStore.
func TestSyncUplinkReplay(t *testing.T) {
	live := newUplinkRig(t, "", nil)
	budget := (&mainchain.MultiSyncArgs{Payloads: live.payloads(1)[:3]}).Gas().Declared()
	var log []*store.EpochRecord
	for e := uint64(1); e <= 2; e++ {
		parts := live.parts(t, e, budget, false)
		log = append(log, &store.EpochRecord{EpochRow: store.EpochRow{Epoch: e}, Parts: parts})
		live.sim.At(time.Duration(e)*time.Second, func() { live.up.submit(e, partTxs(parts), nil) })
	}
	live.sim.RunUntil(10 * time.Minute)
	if live.err != nil || live.bank.LastSyncedEpoch != 2 {
		t.Fatalf("live run: %v, bank at %d", live.err, live.bank.LastSyncedEpoch)
	}

	reopened := newUplinkRig(t, "", nil)
	if err := replaySyncParts(reopened.bank, log, false); err != nil {
		t.Fatal(err)
	}
	if got, want := reopened.bank.EncodeState(), live.bank.EncodeState(); !slices.Equal(got, want) {
		t.Error("replayed bank state differs from the live bank's")
	}
	reopened.up.resume(2, 2)
	if want := []string{"msync-e2-p1", "msync-e2-p2"}; !slices.Equal(reopened.up.prev, want) {
		t.Errorf("resume: next parts depend on %v, want %v", reopened.up.prev, want)
	}
	reopened.up.prev = nil // a fresh chain never saw those transactions
	reopened.up.submit(3, partTxs(reopened.parts(t, 3, budget, false)), nil)
	reopened.sim.RunUntil(5 * time.Minute)
	if reopened.err != nil || reopened.bank.LastSyncedEpoch != 3 {
		t.Fatalf("epoch 3 after replay: %v, bank at %d", reopened.err, reopened.bank.LastSyncedEpoch)
	}

	// Epoch 2's committee equivocated: its logged parts fail verification.
	bad := append(log[:1:1], &store.EpochRecord{EpochRow: store.EpochRow{Epoch: 2}, Parts: live.parts(t, 2, budget, true)})
	err := replaySyncParts(newUplinkRig(t, "", nil).bank, bad, false)
	if want := fmt.Sprintf("%v: epoch 2: %v", chain.ErrSyncReverted, mainchain.ErrBadSyncSignature); !errors.Is(err, chain.ErrSyncReverted) || err.Error() != want {
		t.Errorf("replay of a corrupt-signed epoch on a live node: %v, want %s", err, want)
	}
	short := live.parts(t, 2, budget, false)
	short[1].Proof = short[1].Proof[1:]
	err = replaySyncParts(newUplinkRig(t, "", nil).bank, append(log[:1:1], &store.EpochRecord{EpochRow: store.EpochRow{Epoch: 2}, Parts: short}), false)
	if !errors.Is(err, chain.ErrCorruptStore) || !strings.Contains(err.Error(), "epoch 2 part 2") {
		t.Errorf("replay of a part with a short proof: %v, want ErrCorruptStore at epoch 2 part 2", err)
	}
	halted := newUplinkRig(t, "", nil)
	if err := replaySyncParts(halted.bank, bad, true); err != nil || halted.bank.LastSyncedEpoch != 1 {
		t.Errorf("replay on a halted node: %v, bank at %d; want nil, 1", err, halted.bank.LastSyncedEpoch)
	}
}

// TestSignSyncPartsOrderAndFailure: parts come back slotted by index,
// each carrying the epoch's one signature over the digest its own proof
// folds to, and a proof of PathLen(parts) hashes that its calldata
// counts; a signing failure is reported once for the epoch.
func TestSignSyncPartsOrderAndFailure(t *testing.T) {
	signer, g, shares := dealtSigner(t, 4, 3, 4)
	res := &engine.EpochResult{Epoch: 9, SummaryRoot: [32]byte{9}}
	for i := 0; i < 12; i++ {
		res.Payloads = append(res.Payloads, &summary.SyncPayload{
			Epoch: 9, PoolID: fmt.Sprintf("pool-%02d", i), PoolReserve0: u256.FromUint64(uint64(i + 1)),
		})
	}
	res.OnChain = res.Payloads
	ck := &committeeKeys{group: g, signer: signer}
	// A budget of one gas puts every pool in its own part.
	parts, err := signSyncParts(9, res, ck, g, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(res.Payloads) {
		t.Fatalf("%d parts for %d pools", len(parts), len(res.Payloads))
	}
	for i, a := range parts {
		if a.Part != i+1 || a.NumParts != len(parts) || a.Payloads[0] != res.Payloads[i] {
			t.Errorf("slot %d holds part %d/%d of pool %s", i, a.Part, a.NumParts, a.Payloads[0].PoolID)
		}
		digest, err := a.SignedDigest()
		if err != nil {
			t.Fatalf("part %d: %v", i+1, err)
		}
		if err := tsig.Verify(g, digest[:], a.Sig); err != nil || !a.Sig.Equal(parts[0].Sig) {
			t.Errorf("part %d: %v, or not the epoch's one signature", i+1, err)
		}
		if len(a.Proof) != 4 || a.Gas().Calldata() != a.Payloads[0].MainchainBytes()+4*32 {
			t.Errorf("part %d: %d proof hashes, calldata %d", i+1, len(a.Proof), a.Gas().Calldata())
		}
	}

	ck.signer = newSyncSigner(g, shares[:2])
	_, err = signSyncParts(9, res, ck, g, false, 1, nil)
	if !errors.Is(err, chain.ErrSignFailed) || err.Error() != fmt.Sprintf("%v: epoch 9 (12 parts): %v: have 2, need 3", chain.ErrSignFailed, tsig.ErrNotEnoughShares) {
		t.Errorf("failing signer: %v, want ErrSignFailed for epoch 9", err)
	}
}

// TestChunkPayloadsPacksByDeclaredGas: for seeded random epochs the
// chunker keeps every pool, in order, closes a part exactly when the next
// pool would take its declared gas past the budget, and lets only a
// single pool that is over the budget on its own exceed it. An epoch with
// no pools to sync gets exactly one empty part.
func TestChunkPayloadsPacksByDeclaredGas(t *testing.T) {
	declared := func(chunk []*summary.SyncPayload) uint64 {
		return (&mainchain.MultiSyncArgs{Payloads: chunk}).Gas().Declared()
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		payloads := make([]*summary.SyncPayload, rng.Intn(41))
		for i := range payloads {
			p := &summary.SyncPayload{Epoch: 1, PoolID: fmt.Sprintf("pool-%02d", i)}
			p.Payouts = make([]summary.PayoutEntry, rng.Intn(6))
			p.Positions = make([]summary.PositionEntry, rng.Intn(9))
			for k := range p.Positions {
				p.Positions[k].Deleted = rng.Intn(3) == 0
			}
			payloads[i] = p
		}
		budget := 400_000 + uint64(rng.Intn(4_000_000))
		chunks := chunkPayloads(payloads, budget)
		if len(payloads) == 0 {
			if len(chunks) != 1 || len(chunks[0]) != 0 {
				t.Fatalf("trial %d: no pools gave %d parts, want one empty part", trial, len(chunks))
			}
			continue
		}
		if got := slices.Concat(chunks...); !slices.Equal(got, payloads) {
			t.Fatalf("trial %d: chunks hold %d pools of %d, or out of order", trial, len(got), len(payloads))
		}
		for i, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("trial %d: part %d is empty", trial, i+1)
			}
			if gas := declared(c); gas > budget && len(c) > 1 {
				t.Errorf("trial %d: part %d declares %d gas over %d pools, budget %d", trial, i+1, gas, len(c), budget)
			}
			if i+1 < len(chunks) {
				if gas := declared(append(slices.Clone(c), chunks[i+1][0])); gas <= budget {
					t.Errorf("trial %d: part %d closed early: the next pool would make it %d of %d gas", trial, i+1, gas, budget)
				}
			}
		}
	}
}
