package mainchain

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// multiBankFixture is a MultiBank over a few pools with a dealt committee
// per epoch, enough to produce correctly signed sync parts by hand.
type multiBankFixture struct {
	bank   *MultiBank
	pools  []string
	groups map[uint64]tsig.GroupKey
	shares map[uint64][]tsig.Share
}

func newMultiBankFixture(t testing.TB, epochs int) *multiBankFixture {
	t.Helper()
	f := &multiBankFixture{
		pools:  []string{"pool-0", "pool-1", "pool-2"},
		groups: make(map[uint64]tsig.GroupKey),
		shares: make(map[uint64][]tsig.Share),
	}
	rng := rand.New(rand.NewSource(31))
	for e := uint64(1); e <= uint64(epochs)+1; e++ {
		d, err := tsig.Deal(rng, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		f.groups[e] = tsig.GroupKey{PK: d.Commitments[0], Threshold: 3, N: 4}
		f.shares[e] = d.Shares
	}
	f.bank = NewMultiBank(f.pools, f.groups[1])
	return f
}

// part builds part i (1-based) of a numParts-part sync for epoch, one
// pool with a few positions per part. Every part of the epoch is built
// and bound, and the epoch's committee signs it once, so parts built by
// separate calls verify together.
func (f *multiBankFixture) part(t testing.TB, epoch uint64, i, numParts int) *MultiSyncArgs {
	t.Helper()
	parts := make([]*MultiSyncArgs, numParts)
	for k := range parts {
		parts[k] = f.unsigned(epoch, k+1, numParts)
	}
	f.seal(t, epoch, parts...)
	return parts[i-1]
}

// unsigned is part i of numParts for epoch, before binding and signing.
func (f *multiBankFixture) unsigned(epoch uint64, i, numParts int) *MultiSyncArgs {
	p := &summary.SyncPayload{
		Epoch: epoch, PoolID: f.pools[(i-1)%len(f.pools)],
		PoolReserve0: u256.FromUint64(1000 * epoch), PoolReserve1: u256.FromUint64(2000 * epoch),
	}
	for k := 0; k < 4; k++ {
		p.Positions = append(p.Positions, summary.PositionEntry{
			ID: fmt.Sprintf("pos-%d-%d", i, k), Owner: "lp", TickLower: -60, TickUpper: 60,
			Liquidity: u256.FromUint64(uint64(100 + k)),
		})
	}
	var root [32]byte
	root[0], root[1] = 0xaa, byte(epoch)
	return &MultiSyncArgs{
		Epoch: epoch, Part: i, NumParts: numParts,
		Payloads: []*summary.SyncPayload{p}, SummaryRoot: root, NextKey: f.groups[epoch+1],
	}
}

// seal binds an epoch's parts (BindSyncParts) and gives each the
// committee's one signature over the epoch digest.
func (f *multiBankFixture) seal(t testing.TB, epoch uint64, parts ...*MultiSyncArgs) {
	t.Helper()
	sig := f.sign(t, epoch, BindSyncParts(parts, nil))
	for _, a := range parts {
		a.Sig = sig
	}
}

func (f *multiBankFixture) sign(t testing.TB, epoch uint64, digest [32]byte) tsig.Point {
	t.Helper()
	partials := make([]tsig.PartialSig, 3)
	for i := range partials {
		partials[i] = tsig.PartialSign(f.shares[epoch][i], digest[:])
	}
	sig, err := tsig.Combine(f.groups[epoch], partials)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// envWithGas is an execution environment with the given gas left in the
// block.
func envWithGas(limit uint64) *Env { return &Env{Gas: &GasMeter{limit: limit}} }

// randomSyncPayload is one pool's payload with a random number of
// payouts and of live and deleted positions.
func randomSyncPayload(rng *rand.Rand, epoch uint64, pool string) *summary.SyncPayload {
	p := &summary.SyncPayload{
		Epoch: epoch, PoolID: pool,
		PoolReserve0: u256.FromUint64(rng.Uint64()), PoolReserve1: u256.FromUint64(rng.Uint64()),
	}
	for k := rng.Intn(6); k > 0; k-- {
		p.Payouts = append(p.Payouts, summary.PayoutEntry{User: fmt.Sprintf("u%d", k), Amount0: u256.FromUint64(uint64(k))})
	}
	for k := rng.Intn(9); k > 0; k-- {
		p.Positions = append(p.Positions, summary.PositionEntry{
			ID: fmt.Sprintf("%s-pos-%d", pool, k), Owner: "lp", TickLower: -60, TickUpper: 60,
			Liquidity: u256.FromUint64(uint64(100 + k)), Deleted: rng.Intn(3) == 0,
		})
	}
	return p
}

// TestSyncGasIsWhatApplySyncCharges: for seeded random parts a metered
// applySync uses exactly the part's declared gas when it completes the
// epoch and exactly the key-registration word less when it does not, and
// one gas less than that is out of gas with nothing applied — the bill
// the sender declares is the bill the bank charges.
func TestSyncGasIsWhatApplySyncCharges(t *testing.T) {
	const epochs, pools = 20, 40
	f := newMultiBankFixture(t, epochs)
	f.pools = f.pools[:0]
	for i := 0; i < pools; i++ {
		f.pools = append(f.pools, fmt.Sprintf("pool-%02d", i))
	}
	b := NewMultiBank(f.pools, f.groups[1])
	rng := rand.New(rand.NewSource(7))
	keyWord := gasmodel.SstoreGas(gasmodel.ABIGroupKeyBytes)
	for e := uint64(1); e <= epochs; e++ {
		parts := make([]*MultiSyncArgs, 2)
		for i := range parts {
			a := &MultiSyncArgs{Epoch: e, Part: i + 1, NumParts: 2, SummaryRoot: [32]byte{0xaa, byte(e)}, NextKey: f.groups[e+1]}
			for _, k := range rng.Perm(pools)[:rng.Intn(pools+1)] {
				a.Payloads = append(a.Payloads, randomSyncPayload(rng, e, f.pools[k]))
			}
			parts[i] = a
		}
		f.seal(t, e, parts...)
		for _, a := range parts {
			if len(a.Payloads) == 0 {
				env := envWithGas(a.Gas().Declared())
				if err := b.applySync(env, a); !errors.Is(err, ErrBadArgs) || env.Gas.Used() != 0 {
					t.Fatalf("epoch %d part %d: empty part: %v using %d gas, want ErrBadArgs for free", e, a.Part, err, env.Gas.Used())
				}
				a.Payloads = append(a.Payloads, randomSyncPayload(rng, e, f.pools[0]))
			}
		}
		f.seal(t, e, parts...)
		for _, a := range parts {
			part := a.Part
			declared := a.Gas().Declared()
			want := declared
			if part < 2 {
				want -= keyWord
			}
			applied := b.SyncStats().PartsApplied
			if err := b.applySync(envWithGas(want-1), a); !errors.Is(err, ErrOutOfGas) || b.SyncStats().PartsApplied != applied {
				t.Fatalf("epoch %d part %d (%d pools) with %d gas: %v, want ErrOutOfGas and nothing applied", e, part, len(a.Payloads), want-1, err)
			}
			env := envWithGas(declared)
			if err := b.applySync(env, a); err != nil {
				t.Fatalf("epoch %d part %d (%d pools) with its declared %d gas: %v", e, part, len(a.Payloads), declared, err)
			}
			if env.Gas.Used() != want {
				t.Fatalf("epoch %d part %d (%d pools): used %d gas, declared %d, want %d", e, part, len(a.Payloads), env.Gas.Used(), declared, want)
			}
		}
		if b.LastSyncedEpoch != e {
			t.Fatalf("epoch %d did not complete", e)
		}
	}
}

// TestApplySyncVerifiesEveryExecution: the TSQC check is computed on
// every execution and passes only for the signed digest under the epoch's
// key — a signature over another digest (the CorruptSyncEpochs fault), a
// payload tampered under a good signature and a rotated key each fail,
// every time, and leave nothing applied.
func TestApplySyncVerifiesEveryExecution(t *testing.T) {
	f := newMultiBankFixture(t, 2)
	b := f.bank
	good := f.part(t, 1, 1, 2)
	gas := good.Gas().Declared()

	corruptDigest, err := good.SignedDigest()
	if err != nil {
		t.Fatal(err)
	}
	corruptDigest[0] ^= 0xff
	corrupt := *good
	corrupt.Sig = f.sign(t, 1, corruptDigest)
	tampered := *good
	tp := *good.Payloads[0]
	tp.PoolReserve0 = u256.FromUint64(1)
	tampered.Payloads = []*summary.SyncPayload{&tp}
	for attempt := 0; attempt < 2; attempt++ {
		for name, a := range map[string]*MultiSyncArgs{"corrupted signature": &corrupt, "tampered payload": &tampered} {
			if err := b.applySync(envWithGas(gas), a); !errors.Is(err, ErrBadSyncSignature) {
				t.Fatalf("%s, attempt %d: %v, want ErrBadSyncSignature", name, attempt, err)
			}
		}
	}
	key := b.groupKeys[1]
	b.groupKeys[1] = f.groups[2]
	if err := b.applySync(envWithGas(gas), good); !errors.Is(err, ErrBadSyncSignature) {
		t.Fatalf("rotated key: %v, want ErrBadSyncSignature", err)
	}
	b.groupKeys[1] = key
	if err := b.applySync(envWithGas(gas), good); err != nil {
		t.Fatalf("the signed part: %v", err)
	}
	want := SyncStats{PartExecs: 6, PartsApplied: 1, SigVerifies: 6}
	if st := b.SyncStats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestReplaySyncSharesTheVerificationPath: crash-recovery replay
// (env == nil) goes through the same check — one verification per
// execution, failures refused.
func TestReplaySyncSharesTheVerificationPath(t *testing.T) {
	f := newMultiBankFixture(t, 1)
	b := f.bank
	p1, p2 := f.part(t, 1, 1, 2), f.part(t, 1, 2, 2)
	forged := *p2
	digest, err := p2.SignedDigest()
	if err != nil {
		t.Fatal(err)
	}
	forged.Sig = f.sign(t, 2, digest) // the next epoch's committee signs epoch 1
	if err := b.ReplaySync(&forged); !errors.Is(err, ErrBadSyncSignature) {
		t.Fatalf("forged replay: %v, want ErrBadSyncSignature", err)
	}
	for i, a := range []*MultiSyncArgs{p1, p2} {
		if err := b.ReplaySync(a); err != nil {
			t.Fatalf("replay part %d: %v", i+1, err)
		}
	}
	want := SyncStats{PartExecs: 3, PartsApplied: 2, SigVerifies: 3}
	if st := b.SyncStats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if b.LastSyncedEpoch != 1 {
		t.Errorf("epoch 1 not synced after replay")
	}
}

// TestPayloadFreeParts: an epoch in which no pool changed syncs as one
// part with no payloads. It pays only its authentication, root and key
// words, leaves every pool's stored state alone and registers the next
// committee key, so the epoch after it verifies. In a multi-part epoch a
// part with no payloads is refused with ErrBadArgs, before any gas or
// signature check.
func TestPayloadFreeParts(t *testing.T) {
	f := newMultiBankFixture(t, 2)
	b := f.bank
	b.Reserves["pool-1"] = PoolReserves{Reserve0: u256.FromUint64(7), Reserve1: u256.FromUint64(9)}
	reserves := maps.Clone(b.Reserves)

	empty := &MultiSyncArgs{Epoch: 1, Part: 1, NumParts: 1, SummaryRoot: [32]byte{0xee}, NextKey: f.groups[2]}
	f.seal(t, 1, empty)
	env := envWithGas(empty.Gas().Declared())
	if err := b.applySync(env, empty); err != nil {
		t.Fatalf("payload-free single part: %v", err)
	}
	if env.Gas.Used() != empty.Gas().Declared() {
		t.Errorf("used %d gas, declared %d", env.Gas.Used(), empty.Gas().Declared())
	}
	if b.LastSyncedEpoch != 1 || b.SummaryRoots[1] != empty.SummaryRoot || !maps.Equal(b.Reserves, reserves) {
		t.Errorf("after a payload-free epoch: synced to %d, root %x, reserves changed %v",
			b.LastSyncedEpoch, b.SummaryRoots[1], !maps.Equal(b.Reserves, reserves))
	}

	stats := b.SyncStats()
	empties := []*MultiSyncArgs{
		{Epoch: 2, Part: 1, NumParts: 2, SummaryRoot: [32]byte{0xef}, NextKey: f.groups[3]},
		{Epoch: 2, Part: 2, NumParts: 2, SummaryRoot: [32]byte{0xef}, NextKey: f.groups[3]},
	}
	f.seal(t, 2, empties...)
	for _, a := range empties {
		part := a.Part
		env := envWithGas(a.Gas().Declared())
		if err := b.applySync(env, a); !errors.Is(err, ErrBadArgs) || env.Gas.Used() != 0 {
			t.Errorf("payload-free part %d/2: %v using %d gas, want ErrBadArgs for free", part, err, env.Gas.Used())
		}
	}
	if st := b.SyncStats(); st.PartsApplied != stats.PartsApplied || st.SigVerifies != stats.SigVerifies {
		t.Errorf("refused parts moved the stats: %+v, was %+v", st, stats)
	}
	for part := 1; part <= 2; part++ {
		if err := b.applySync(envWithGas(30_000_000), f.part(t, 2, part, 2)); err != nil {
			t.Fatalf("epoch 2 part %d after the payload-free epoch: %v", part, err)
		}
	}
	if b.LastSyncedEpoch != 2 {
		t.Errorf("epoch 2 did not complete")
	}
}

// TestIdlePoolPayloadStillApplies: a part that carries an idle pool's
// payload — its stored reserves again, nothing else — still applies and
// is billed for it. Stores written when every pool synced every epoch
// replay parts of that shape.
func TestIdlePoolPayloadStillApplies(t *testing.T) {
	f := newMultiBankFixture(t, 1)
	b := f.bank
	idle := PoolReserves{Reserve0: u256.FromUint64(7), Reserve1: u256.FromUint64(9)}
	b.Reserves["pool-1"] = idle
	b.Positions["pool-1"]["pool-1-genesis"] = summary.PositionEntry{ID: "pool-1-genesis", Owner: "lp", Liquidity: u256.FromUint64(5)}
	positions := maps.Clone(b.Positions["pool-1"])

	a := f.part(t, 1, 1, 1)
	a.Payloads = append(a.Payloads, &summary.SyncPayload{Epoch: 1, PoolID: "pool-1",
		PoolReserve0: idle.Reserve0, PoolReserve1: idle.Reserve1})
	f.seal(t, 1, a)
	env := envWithGas(a.Gas().Declared())
	if err := b.applySync(env, a); err != nil {
		t.Fatalf("part with an idle pool's payload: %v", err)
	}
	withoutIdle := (&MultiSyncArgs{Payloads: a.Payloads[:1]}).Gas().Declared()
	if env.Gas.Used() != a.Gas().Declared() || env.Gas.Used() <= withoutIdle {
		t.Errorf("used %d gas, declared %d; the idle payload must be billed over %d", env.Gas.Used(), a.Gas().Declared(), withoutIdle)
	}
	if b.Reserves["pool-1"] != idle || !maps.Equal(b.Positions["pool-1"], positions) || b.LastSyncedEpoch != 1 {
		t.Errorf("idle pool's state moved: reserves %+v, %d positions; synced to %d",
			b.Reserves["pool-1"], len(b.Positions["pool-1"]), b.LastSyncedEpoch)
	}
}
