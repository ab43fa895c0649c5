package mainchain

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/sim"
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

func newMultiBankFixture(t *testing.T, epochs int) *multiBankFixture {
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
// pool with a few positions per part, signed by the epoch's committee.
func (f *multiBankFixture) part(t *testing.T, epoch uint64, i, numParts int) *MultiSyncArgs {
	t.Helper()
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
	a := &MultiSyncArgs{
		Epoch: epoch, Part: i, NumParts: numParts,
		Payloads: []*summary.SyncPayload{p}, SummaryRoot: root, NextKey: f.groups[epoch+1],
	}
	a.Sig = f.sign(t, epoch, a.Digest())
	return a
}

func (f *multiBankFixture) sign(t *testing.T, epoch uint64, digest [32]byte) tsig.Point {
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

// partGas splits a part's on-chain cost the way applySync charges it:
// the authentication charge paid before the TSQC check and the storage
// bill paid after it (non-completing part).
func partGas(a *MultiSyncArgs) (auth, bill uint64) {
	sumBytes := 0
	for _, p := range a.Payloads {
		sumBytes += p.MainchainBytes()
		bill += uint64(len(p.Positions))*uint64(gasmodel.PositionEntryWords)*gasmodel.SstoreWordGas +
			uint64(gasmodel.PoolBalanceWords)*gasmodel.SstoreWordGas
	}
	return gasmodel.TxBaseGas + gasmodel.SyncAuthGas(sumBytes), bill + gasmodel.SstoreGas(32)
}

// envWithGas is an execution environment with the given gas left in the
// block.
func envWithGas(limit uint64) *Env { return &Env{Gas: &GasMeter{limit: limit}} }

// gasBurner is a contract that charges exactly the gas it is asked to,
// filling a block so the sync part behind it has to wait.
type gasBurner struct{}

func (gasBurner) Name() string { return "burner" }
func (gasBurner) Execute(env *Env, _ string, args any) error {
	return env.Gas.Charge(args.(uint64))
}

// runDeferredPart packs one sync part behind a chain of block-filling
// transactions so the part passes its TSQC check and then runs out of
// the block's remaining gas in each of the first `fillers` blocks.
// disableCache empties the verified-signature cache after every block:
// the reference every execution of which verifies from scratch.
func runDeferredPart(t *testing.T, fillers int, disableCache bool) (*multiBankFixture, *Tx, []*Block) {
	t.Helper()
	f := newMultiBankFixture(t, 1)
	s := sim.New()
	c := New(s, DefaultConfig())
	c.Deploy(f.bank)
	c.Deploy(gasBurner{})
	if disableCache {
		c.OnBlock = append(c.OnBlock, func(*Block) { clear(f.bank.verified) })
	}
	a := f.part(t, 1, 1, 2)
	auth, bill := partGas(a)
	burn := c.Config().GasLimit - auth - bill/2 // leaves room for the check, not for the bill
	syncTx := &Tx{ID: "sync-e1-p1", From: "sc", To: f.bank.Name(), Method: "sync", Args: a, Size: 100}
	s.After(time.Second, func() {
		// Each filler depends on the one before, so they occupy consecutive
		// blocks, each ahead of the sync part in mempool order.
		var deps []string
		for i := 0; i < fillers; i++ {
			id := fmt.Sprintf("fill-%d", i)
			c.Submit(&Tx{ID: id, From: "x", To: "burner", Method: "burn", Args: burn, DependsOn: deps})
			deps = []string{id}
		}
		c.Submit(syncTx)
	})
	s.RunUntil(time.Duration(fillers+2) * c.Config().BlockInterval)
	c.Stop()
	return f, syncTx, c.Blocks()
}

// TestSyncSigCacheDeferredPartVerifiesOnce: a part deferred three times
// is executed four times and verified once, and nothing the chain can
// observe — status, block, gas, block fill — differs from a run whose
// every execution verifies from scratch.
func TestSyncSigCacheDeferredPartVerifiesOnce(t *testing.T) {
	const fillers = 3
	f, tx, blocks := runDeferredPart(t, fillers, false)
	ref, refTx, refBlocks := runDeferredPart(t, fillers, true)

	if tx.Status != TxConfirmed || tx.BlockNum != fillers+1 {
		t.Fatalf("sync part: status %v in block %d (err %v), want confirmed in block %d",
			tx.Status, tx.BlockNum, tx.Err, fillers+1)
	}
	st := f.bank.SyncStats()
	want := SyncStats{PartExecs: fillers + 1, PartsApplied: 1, PartsDeferred: fillers, SigVerifies: 1, SigCacheHits: fillers}
	if st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	refSt := ref.bank.SyncStats()
	if refSt.SigVerifies != fillers+1 || refSt.SigCacheHits != 0 {
		t.Errorf("reference run is not cache-free: %+v", refSt)
	}
	if tx.Status != refTx.Status || tx.BlockNum != refTx.BlockNum || tx.GasUsed != refTx.GasUsed ||
		tx.ConfirmedAt != refTx.ConfirmedAt {
		t.Errorf("cached run (status %v block %d gas %d at %v) != reference (status %v block %d gas %d at %v)",
			tx.Status, tx.BlockNum, tx.GasUsed, tx.ConfirmedAt,
			refTx.Status, refTx.BlockNum, refTx.GasUsed, refTx.ConfirmedAt)
	}
	if len(blocks) != len(refBlocks) {
		t.Fatalf("%d blocks vs reference %d", len(blocks), len(refBlocks))
	}
	for i := range blocks {
		if blocks[i].GasUsed != refBlocks[i].GasUsed || len(blocks[i].Txs) != len(refBlocks[i].Txs) {
			t.Errorf("block %d: gas %d txs %d, reference gas %d txs %d", i+1,
				blocks[i].GasUsed, len(blocks[i].Txs), refBlocks[i].GasUsed, len(refBlocks[i].Txs))
		}
	}
	if f.bank.Reserves["pool-0"] != ref.bank.Reserves["pool-0"] || len(f.bank.Positions["pool-0"]) != 4 {
		t.Errorf("applied state differs from the reference")
	}
}

// TestSyncSigCacheNeverServesAnythingButTheVerifiedTriple covers the
// soundness conditions one by one: failures are recomputed every time,
// and a hit needs the recomputed digest, the signature bytes and the
// epoch's current key to all match what verified.
func TestSyncSigCacheNeverServesAnythingButTheVerifiedTriple(t *testing.T) {
	f := newMultiBankFixture(t, 2)
	b := f.bank
	good := f.part(t, 1, 1, 2)
	auth, bill := partGas(good)
	deferGas := auth + bill/2

	// A corrupted signature (the CorruptSyncEpochs fault: a valid
	// signature over a different digest) fails on every attempt.
	corruptDigest := good.Digest()
	corruptDigest[0] ^= 0xff
	bad := *good
	bad.Sig = f.sign(t, 1, corruptDigest)
	for i := 0; i < 3; i++ {
		if err := b.applySync(envWithGas(deferGas), &bad); !errors.Is(err, ErrBadSyncSignature) {
			t.Fatalf("attempt %d with a corrupted signature: %v, want ErrBadSyncSignature", i, err)
		}
	}
	if st := b.SyncStats(); st.SigVerifies != 3 || st.SigCacheHits != 0 || st.SigCacheSize != 0 {
		t.Fatalf("failures must not be cached: %+v", st)
	}

	// The good part verifies, is deferred, and is remembered.
	if err := b.applySync(envWithGas(deferGas), good); !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("deferral: %v, want ErrOutOfGas", err)
	}
	if st := b.SyncStats(); st.SigCacheSize != 1 || st.PartsDeferred != 1 {
		t.Fatalf("a verified, deferred part should be remembered: %+v", st)
	}
	// An execution that runs out of gas before the check learns nothing.
	if err := b.applySync(envWithGas(auth-1), f.part(t, 1, 2, 2)); !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("pre-check deferral: %v", err)
	}
	if st := b.SyncStats(); st.SigCacheSize != 1 || st.PartsDeferred != 2 || st.SigVerifies != 4 {
		t.Fatalf("pre-check deferral touched the cache: %+v", st)
	}

	// Same digest, different signature: a miss, and a failure.
	if err := b.applySync(envWithGas(deferGas), &bad); !errors.Is(err, ErrBadSyncSignature) {
		t.Fatalf("bad signature behind a cached digest: %v, want ErrBadSyncSignature", err)
	}
	// Same signature, tampered payload: the digest is recomputed from the
	// arguments, so it is a different key — a miss, and a failure.
	tampered := *good
	tp := *good.Payloads[0]
	tp.PoolReserve0 = u256.FromUint64(1)
	tampered.Payloads = []*summary.SyncPayload{&tp}
	if err := b.applySync(envWithGas(deferGas), &tampered); !errors.Is(err, ErrBadSyncSignature) {
		t.Fatalf("tampered payload: %v, want ErrBadSyncSignature", err)
	}
	// Same digest and signature, but the epoch's key changed: a miss.
	key := b.groupKeys[1]
	b.groupKeys[1] = f.groups[2]
	if err := b.applySync(envWithGas(deferGas), good); !errors.Is(err, ErrBadSyncSignature) {
		t.Fatalf("rotated key: %v, want ErrBadSyncSignature", err)
	}
	b.groupKeys[1] = key
	if st := b.SyncStats(); st.SigCacheHits != 0 || st.SigVerifies != 7 {
		t.Fatalf("no execution so far may have hit: %+v", st)
	}

	// The very same triple hits, and applying evicts.
	if err := b.applySync(envWithGas(auth+bill), good); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if st := b.SyncStats(); st.SigCacheHits != 1 || st.SigVerifies != 7 || st.SigCacheSize != 0 || st.PartsApplied != 1 {
		t.Fatalf("after the hit: %+v", st)
	}
}

// TestSyncSigCacheBoundedAcrossEpochs: with every part deferred once
// before it applies, the cache holds at most the parts in flight and is
// empty whenever an epoch completes — including the entry of a part that
// verified but never applied.
func TestSyncSigCacheBoundedAcrossEpochs(t *testing.T) {
	const epochs, parts = 40, 3
	f := newMultiBankFixture(t, epochs)
	b := f.bank
	for e := uint64(1); e <= epochs; e++ {
		args := make([]*MultiSyncArgs, parts)
		for i := range args {
			args[i] = f.part(t, e, i+1, parts)
			auth, bill := partGas(args[i])
			if err := b.applySync(envWithGas(auth+bill/2), args[i]); !errors.Is(err, ErrOutOfGas) {
				t.Fatalf("epoch %d part %d deferral: %v", e, i+1, err)
			}
		}
		// An equivocating committee also signs a second, different part 1.
		// It verifies and is deferred like the others but can never apply
		// (part 1 does first); its entry must still go with the epoch.
		rival := f.part(t, e, 1, parts)
		rival.Payloads[0].PoolReserve0 = u256.FromUint64(7)
		rival.Sig = f.sign(t, e, rival.Digest())
		auth, bill := partGas(rival)
		if err := b.applySync(envWithGas(auth+bill/2), rival); !errors.Is(err, ErrOutOfGas) {
			t.Fatalf("epoch %d rival part deferral: %v", e, err)
		}
		if n := b.SyncStats().SigCacheSize; n != parts+1 {
			t.Fatalf("epoch %d: %d entries with %d parts deferred", e, n, parts+1)
		}
		for i, a := range args {
			if err := b.applySync(envWithGas(30_000_000), a); err != nil {
				t.Fatalf("epoch %d part %d: %v", e, i+1, err)
			}
			if i == 0 {
				if err := b.applySync(envWithGas(30_000_000), rival); !errors.Is(err, ErrBadSyncPart) {
					t.Fatalf("epoch %d: rival part 1: %v, want ErrBadSyncPart", e, err)
				}
				if n := b.SyncStats().SigCacheSize; n != parts {
					t.Fatalf("epoch %d: %d entries after part 1 applied, want %d (rival still cached)", e, n, parts)
				}
			}
		}
		if b.LastSyncedEpoch != e {
			t.Fatalf("epoch %d did not complete", e)
		}
		if n := b.SyncStats().SigCacheSize; n != 0 {
			t.Fatalf("epoch %d complete with %d cache entries left", e, n)
		}
	}
	st := b.SyncStats()
	if st.PartsApplied != epochs*parts || st.SigCacheHits != epochs*(parts+1) {
		t.Errorf("stats %+v, want %d applied and %d hits", st, epochs*parts, epochs*(parts+1))
	}
}

// TestReplaySyncSharesTheVerificationPath: crash-recovery replay
// (env == nil) goes through the same check — one verification per part,
// nothing cached (a replayed part is never deferred), failures refused.
func TestReplaySyncSharesTheVerificationPath(t *testing.T) {
	f := newMultiBankFixture(t, 1)
	b := f.bank
	p1, p2 := f.part(t, 1, 1, 2), f.part(t, 1, 2, 2)
	forged := *p2
	forged.Sig = p1.Sig
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
	// RestoreState starts from a clean cache.
	blob := b.EncodeState()
	b.verified[[32]byte{1}] = verifiedSig{epoch: 9}
	if err := b.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if n := b.SyncStats().SigCacheSize; n != 0 {
		t.Errorf("restored bank kept %d cache entries", n)
	}
}
