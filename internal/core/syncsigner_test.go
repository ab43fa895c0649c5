package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// dealtSigner deals a t-of-n committee key and returns its sync signer.
func dealtSigner(t *testing.T, seed int64, th, n int) (*syncSigner, tsig.GroupKey, []tsig.Share) {
	t.Helper()
	d, err := tsig.Deal(rand.New(rand.NewSource(seed)), th, n)
	if err != nil {
		t.Fatal(err)
	}
	g := tsig.GroupKey{PK: d.Commitments[0], Threshold: th, N: n}
	return newSyncSigner(g, d.Shares), g, d.Shares
}

// TestSyncSignerMatchesCombine: the signer every backend shares produces
// the signature the general combiner does — from many goroutines at once,
// the first of which builds the weighting — and the bank's check accepts
// it.
func TestSyncSignerMatchesCombine(t *testing.T) {
	signer, g, shares := dealtSigner(t, 3, 7, 10)
	digest := [32]byte{1, 2, 3}
	partials := make([]tsig.PartialSig, g.Threshold)
	for i := range partials {
		partials[i] = tsig.PartialSign(shares[i], digest[:])
	}
	want, err := tsig.Combine(g, partials)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := signer.signDigest(digest)
			if err != nil || !got.Equal(want) {
				t.Errorf("signDigest = %v, %v; want Combine's signature", got, err)
			}
		}()
	}
	wg.Wait()
	if err := tsig.Verify(g, digest[:], want); err != nil {
		t.Fatal(err)
	}

	short := newSyncSigner(g, shares[:g.Threshold-1])
	if _, err := short.signDigest(digest); !errors.Is(err, tsig.ErrNotEnoughShares) {
		t.Errorf("signer one share short: %v, want ErrNotEnoughShares", err)
	}
}

// TestSignSyncPartsOrderAndFailure: parts come back slotted by index
// whatever the fan-out, each carrying a signature over its own digest,
// and a signing failure is reported for the lowest-numbered part.
func TestSignSyncPartsOrderAndFailure(t *testing.T) {
	signer, g, shares := dealtSigner(t, 4, 3, 4)
	res := &engine.EpochResult{Epoch: 9, SummaryRoot: [32]byte{9}}
	for i := 0; i < 12; i++ {
		res.Payloads = append(res.Payloads, &summary.SyncPayload{
			Epoch: 9, PoolID: fmt.Sprintf("pool-%02d", i), PoolReserve0: u256.FromUint64(uint64(i + 1)),
		})
	}
	ck := &committeeKeys{group: g, signer: signer}
	// A budget of one gas puts every pool in its own part.
	parts, sizes, err := signSyncParts(9, res, ck, g, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(res.Payloads) || len(sizes) != len(parts) {
		t.Fatalf("%d parts, %d sizes for %d pools", len(parts), len(sizes), len(res.Payloads))
	}
	for i, a := range parts {
		if a.Part != i+1 || a.NumParts != len(parts) || a.Payloads[0] != res.Payloads[i] {
			t.Errorf("slot %d holds part %d/%d of pool %s", i, a.Part, a.NumParts, a.Payloads[0].PoolID)
		}
		digest := a.Digest()
		if err := tsig.Verify(g, digest[:], a.Sig); err != nil {
			t.Errorf("part %d: %v", i+1, err)
		}
		if sizes[i] != 32+a.Payloads[0].MainchainBytes() {
			t.Errorf("part %d size %d", i+1, sizes[i])
		}
	}

	ck.signer = newSyncSigner(g, shares[:2])
	_, _, err = signSyncParts(9, res, ck, g, false, 1, nil)
	if !errors.Is(err, chain.ErrSignFailed) || err.Error() != fmt.Sprintf("%v: part 1/12: %v: have 2, need 3", chain.ErrSignFailed, tsig.ErrNotEnoughShares) {
		t.Errorf("failing signer: %v, want ErrSignFailed for part 1/12", err)
	}
}

// TestChunkPayloadsPacksByDeclaredGas: for seeded random epochs the
// chunker keeps every pool, in order, closes a part exactly when the next
// pool would take its declared gas past the budget, and lets only a
// single pool that is over the budget on its own exceed it.
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
