package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ammboost/internal/crypto/tsig"
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
