package tsig

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDealAndVerifyShares(t *testing.T) {
	d, err := Deal(testRand(1), 3, 5)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	if len(d.Shares) != 5 || len(d.Commitments) != 3 {
		t.Fatalf("got %d shares, %d commitments", len(d.Shares), len(d.Commitments))
	}
	for _, sh := range d.Shares {
		if err := VerifyShare(sh, d.Commitments); err != nil {
			t.Errorf("share %d: %v", sh.Index, err)
		}
	}
}

// TestDealKeyMatchesDeal: from the same random stream, the key-only deal
// returns Deal's first commitment and its shares, and each share still
// verifies against Deal's full commitment list.
func TestDealKeyMatchesDeal(t *testing.T) {
	for _, tc := range []struct {
		t, n int
		seed int64
	}{{1, 1, 1}, {2, 3, 2}, {14, 20, 3}, {42, 64, 4}, {64, 64, 5}} {
		d, err := Deal(testRand(tc.seed), tc.t, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		pk, shares, err := DealKey(testRand(tc.seed), tc.t, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if !pk.Equal(d.Commitments[0]) {
			t.Errorf("t=%d n=%d seed=%d: key differs from Deal's Commitments[0]", tc.t, tc.n, tc.seed)
		}
		if len(shares) != len(d.Shares) {
			t.Fatalf("t=%d n=%d: %d shares, Deal has %d", tc.t, tc.n, len(shares), len(d.Shares))
		}
		for i, sh := range shares {
			if sh.Index != d.Shares[i].Index || sh.Value.Cmp(d.Shares[i].Value) != 0 {
				t.Errorf("t=%d n=%d seed=%d: share %d differs from Deal's", tc.t, tc.n, tc.seed, i+1)
			}
		}
		if err := VerifyShare(shares[tc.n-1], d.Commitments); err != nil {
			t.Errorf("t=%d n=%d: share %d: %v", tc.t, tc.n, tc.n, err)
		}
	}
	if _, _, err := DealKey(testRand(6), 0, 5); err == nil {
		t.Error("t=0 should fail")
	}
}

func TestVerifyShareRejectsTampered(t *testing.T) {
	d, _ := Deal(testRand(2), 3, 5)
	sh := d.Shares[0]
	sh.Value = new(big.Int).Add(sh.Value, big.NewInt(1))
	if err := VerifyShare(sh, d.Commitments); err != ErrBadShare {
		t.Errorf("want ErrBadShare, got %v", err)
	}
}

func TestDealValidation(t *testing.T) {
	if _, err := Deal(testRand(3), 0, 5); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := Deal(testRand(3), 6, 5); err == nil {
		t.Error("t>n should fail")
	}
}

// dkg is a test helper running the joint DKG for a (2f+2)-of-(3f+2)
// committee with the given f.
func dkg(t *testing.T, seed int64, f int) []DKGResult {
	t.Helper()
	n, th := 3*f+2, 2*f+2
	results, err := RunDKG(testRand(seed), th, n)
	if err != nil {
		t.Fatalf("RunDKG: %v", err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	return results
}

func TestSignCombineVerify(t *testing.T) {
	results := dkg(t, 4, 1) // 4-of-5
	msg := []byte("sync epoch 3")
	partials := make([]PartialSig, 0, len(results))
	for _, r := range results {
		partials = append(partials, PartialSign(r.Share, msg))
	}
	sig, err := Combine(results[0].Group, partials)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if err := Verify(results[0].Group, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestAnyQuorumGivesSameSignature(t *testing.T) {
	results := dkg(t, 5, 1) // threshold 4 of 5
	msg := []byte("deterministic aggregate")
	all := make([]PartialSig, len(results))
	for i, r := range results {
		all[i] = PartialSign(r.Share, msg)
	}
	g := results[0].Group
	sig1, err := Combine(g, []PartialSig{all[0], all[1], all[2], all[3]})
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := Combine(g, []PartialSig{all[4], all[2], all[1], all[3]})
	if err != nil {
		t.Fatal(err)
	}
	if !sig1.Equal(sig2) {
		t.Error("different quorums must produce the same group signature")
	}
}

func TestCombineNeedsThreshold(t *testing.T) {
	results := dkg(t, 6, 1)
	msg := []byte("m")
	partials := []PartialSig{
		PartialSign(results[0].Share, msg),
		PartialSign(results[1].Share, msg),
		PartialSign(results[2].Share, msg),
	}
	if _, err := Combine(results[0].Group, partials); err == nil {
		t.Error("3 shares should not meet a threshold of 4")
	}
}

func TestCombineRejectsDuplicates(t *testing.T) {
	results := dkg(t, 7, 1)
	msg := []byte("m")
	p := PartialSign(results[0].Share, msg)
	partials := []PartialSig{p, p, p, p}
	if _, err := Combine(results[0].Group, partials); err != ErrDuplicateIndex {
		t.Errorf("want ErrDuplicateIndex, got %v", err)
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	results := dkg(t, 8, 1)
	msg := []byte("m")
	partials := make([]PartialSig, 4)
	for i := 0; i < 4; i++ {
		partials[i] = PartialSign(results[i].Share, msg)
	}
	sig, err := Combine(results[0].Group, partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(results[0].Group, []byte("other"), sig); err != ErrInvalid {
		t.Errorf("want ErrInvalid, got %v", err)
	}
}

func TestVerifyRejectsWrongCommitteeKey(t *testing.T) {
	a := dkg(t, 9, 1)
	b := dkg(t, 10, 1) // a different committee
	msg := []byte("m")
	partials := make([]PartialSig, 4)
	for i := 0; i < 4; i++ {
		partials[i] = PartialSign(a[i].Share, msg)
	}
	sig, err := Combine(a[0].Group, partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(b[0].Group, msg, sig); err != ErrInvalid {
		t.Errorf("a signature from committee A must not verify under committee B's key: %v", err)
	}
}

func TestPartialSignatureVerification(t *testing.T) {
	results := dkg(t, 11, 1)
	msg := []byte("partial check")
	ps := PartialSign(results[2].Share, msg)
	pk := PublicShare(results[2].Share)
	if err := VerifyPartial(pk, msg, ps); err != nil {
		t.Fatalf("VerifyPartial: %v", err)
	}
	// A share from another member must not verify under this commitment.
	other := PartialSign(results[3].Share, msg)
	other.Index = ps.Index
	if err := VerifyPartial(pk, msg, other); err != ErrInvalid {
		t.Errorf("want ErrInvalid, got %v", err)
	}
}

func TestMixedCommitteePartialsFailVerify(t *testing.T) {
	// Combining shares from two different DKGs yields garbage that must
	// not verify under either group key.
	a := dkg(t, 12, 1)
	b := dkg(t, 13, 1)
	msg := []byte("m")
	partials := []PartialSig{
		PartialSign(a[0].Share, msg),
		PartialSign(a[1].Share, msg),
		PartialSign(b[2].Share, msg),
		PartialSign(a[3].Share, msg),
	}
	sig, err := Combine(a[0].Group, partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a[0].Group, msg, sig); err != ErrInvalid {
		t.Errorf("mixed-committee aggregate should not verify: %v", err)
	}
}

func TestLargerCommittee(t *testing.T) {
	results := dkg(t, 14, 3) // 8-of-11
	msg := []byte("bigger committee")
	partials := make([]PartialSig, 8)
	for i := 0; i < 8; i++ {
		partials[i] = PartialSign(results[i+2].Share, msg)
	}
	sig, err := Combine(results[0].Group, partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(results[0].Group, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestPointBytes(t *testing.T) {
	results := dkg(t, 15, 1)
	b := results[0].Group.PK.Bytes()
	if len(b) != 64 {
		t.Errorf("point encoding = %d bytes, want 64", len(b))
	}
	var id Point
	if got := id.Bytes(); len(got) != 64 {
		t.Errorf("identity encoding = %d bytes", len(got))
	}
}

func BenchmarkPartialSign(b *testing.B) {
	results, err := RunDKG(testRand(16), 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PartialSign(results[0].Share, msg)
	}
}

func BenchmarkCombine4of5(b *testing.B) {
	results, err := RunDKG(testRand(17), 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench")
	partials := make([]PartialSig, 4)
	for i := range partials {
		partials[i] = PartialSign(results[i].Share, msg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(results[0].Group, partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	results, err := RunDKG(testRand(18), 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench")
	partials := make([]PartialSig, 4)
	for i := range partials {
		partials[i] = PartialSign(results[i].Share, msg)
	}
	sig, _ := Combine(results[0].Group, partials)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(results[0].Group, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// quorumFixture deals a t-of-n key and fixes the signer set to the first t
// members, the shape a provisioned committee signs with.
func quorumFixture(tb testing.TB, seed int64, t, n int) (GroupKey, []Share, *Quorum, []Share) {
	tb.Helper()
	d, err := Deal(testRand(seed), t, n)
	if err != nil {
		tb.Fatal(err)
	}
	g := GroupKey{PK: d.Commitments[0], Threshold: t, N: n}
	signers := d.Shares[:t]
	indices := make([]int, t)
	for i, sh := range signers {
		indices[i] = sh.Index
	}
	q, err := NewQuorum(g, indices)
	if err != nil {
		tb.Fatal(err)
	}
	weighted := make([]Share, t)
	for i, sh := range signers {
		if weighted[i], err = q.Weight(sh); err != nil {
			tb.Fatal(err)
		}
	}
	return g, signers, q, weighted
}

var benchSig Point

// BenchmarkSignPart prices one sync part's TSQC at the two committee sizes
// the benchmark workloads use (n20: threshold 14, n64: threshold 42):
// "combine" is per-signer PartialSign + the general Combine (what a part
// cost before signer-side weighting, and what PBFT certificates still
// pay), "weighted" is Quorum.Sign.
func BenchmarkSignPart(b *testing.B) {
	for _, c := range []struct {
		name string
		t, n int
	}{{"n20", 14, 20}, {"n64", 42, 64}} {
		g, signers, q, weighted := quorumFixture(b, 19, c.t, c.n)
		msg := []byte("sync part digest")
		b.Run("combine/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				partials := make([]PartialSig, len(signers))
				for j, sh := range signers {
					partials[j] = PartialSign(sh, msg)
				}
				sig, err := Combine(g, partials)
				if err != nil {
					b.Fatal(err)
				}
				benchSig = sig
			}
		})
		b.Run("weighted/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sig, err := q.Sign(weighted, msg)
				if err != nil {
					b.Fatal(err)
				}
				benchSig = sig
			}
		})
	}
}

// TestWeightedSigningMatchesCombine is the seeded property behind
// signer-side weighting: over random (t, n) and random signer subsets,
// the sum of weighted partials is the same point as Combine's
// interpolation and as sk·h·G with sk rebuilt from the dealing, and
// Verify accepts it.
func TestWeightedSigningMatchesCombine(t *testing.T) {
	rng := testRand(20)
	q := curve.Params().N
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(24)
		th := 1 + rng.Intn(n)
		d, err := Deal(rng, th, n)
		if err != nil {
			t.Fatal(err)
		}
		g := GroupKey{PK: d.Commitments[0], Threshold: th, N: n}
		signers := make([]Share, th)
		indices := make([]int, th)
		for i, j := range rng.Perm(n)[:th] {
			signers[i], indices[i] = d.Shares[j], d.Shares[j].Index
		}
		msg := make([]byte, 1+rng.Intn(64))
		rng.Read(msg)

		quorum, err := NewQuorum(g, indices)
		if err != nil {
			t.Fatalf("iter %d (%d of %d): NewQuorum: %v", iter, th, n, err)
		}
		weighted := make([]Share, th)
		plain := make([]PartialSig, th)
		for i, sh := range signers {
			if weighted[i], err = quorum.Weight(sh); err != nil {
				t.Fatalf("iter %d: Weight(%d): %v", iter, sh.Index, err)
			}
			plain[i] = PartialSign(sh, msg)
		}
		got, err := quorum.Sign(weighted, msg)
		if err != nil {
			t.Fatalf("iter %d: Sign: %v", iter, err)
		}
		// The members signing one by one and a combiner summing is the
		// same thing Sign does in one call.
		parts := make([]PartialSig, th)
		for i, w := range weighted {
			parts[i] = PartialSign(w, msg)
		}
		if summed, err := quorum.CombineWeighted(parts); err != nil || !summed.Equal(got) {
			t.Fatalf("iter %d: CombineWeighted of per-member partials = %v, %v", iter, summed, err)
		}
		want, err := Combine(g, plain)
		if err != nil {
			t.Fatalf("iter %d: Combine: %v", iter, err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d (%d of %d): weighted sum differs from Combine", iter, th, n)
		}
		// sk is the dealer polynomial at zero; the shares at x = 1..th
		// interpolate it, independent of which subset signed.
		lambda, err := lagrangeAtZero(indices)
		if err != nil {
			t.Fatal(err)
		}
		sk := new(big.Int)
		for i, sh := range signers {
			sk.Add(sk, new(big.Int).Mul(lambda[i], sh.Value))
		}
		sk.Mod(sk, q)
		if !scalarBase(sk).Equal(g.PK) {
			t.Fatalf("iter %d: reconstructed sk does not match the group key", iter)
		}
		k := new(big.Int).Mul(sk, hashToScalar(msg))
		if direct := scalarBase(k.Mod(k, q)); !got.Equal(direct) {
			t.Fatalf("iter %d: weighted sum differs from sk·h·G", iter)
		}
		if err := Verify(g, msg, got); err != nil {
			t.Fatalf("iter %d: Verify: %v", iter, err)
		}
	}
}

func TestQuorumRejectsMalformedSignerSets(t *testing.T) {
	g, signers, q, weighted := quorumFixture(t, 21, 4, 6)
	if _, err := NewQuorum(g, []int{1, 2, 3}); !errors.Is(err, ErrNotEnoughShares) {
		t.Errorf("3 indices for threshold 4: %v, want ErrNotEnoughShares", err)
	}
	if _, err := NewQuorum(g, []int{1, 2, 3, 2}); !errors.Is(err, ErrDuplicateIndex) {
		t.Errorf("repeated index: %v, want ErrDuplicateIndex", err)
	}
	if _, err := q.Weight(Share{Index: 6, Value: big.NewInt(1)}); !errors.Is(err, ErrNotInQuorum) {
		t.Errorf("Weight of a non-member: %v, want ErrNotInQuorum", err)
	}

	msg := []byte("part")
	good := make([]PartialSig, len(weighted))
	for i, w := range weighted {
		good[i] = PartialSign(w, msg)
	}
	mutate := func(f func(ps []PartialSig) []PartialSig) []PartialSig {
		return f(append([]PartialSig(nil), good...))
	}
	outsider := PartialSign(Share{Index: 6, Value: big.NewInt(7)}, msg)
	for _, c := range []struct {
		name     string
		partials []PartialSig
		want     error
	}{
		{"too few", good[:3], ErrNotEnoughShares},
		{"duplicate", mutate(func(ps []PartialSig) []PartialSig { ps[2] = ps[1]; return ps }), ErrDuplicateIndex},
		{"outside the quorum", mutate(func(ps []PartialSig) []PartialSig { ps[3] = outsider; return ps }), ErrNotInQuorum},
		{"wrong slot", mutate(func(ps []PartialSig) []PartialSig { ps[0], ps[1] = ps[1], ps[0]; return ps }), ErrNotInQuorum},
		{"too many", append(append([]PartialSig(nil), good...), outsider), ErrNotInQuorum},
	} {
		if _, err := q.CombineWeighted(c.partials); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := q.Sign(weighted[:3], msg); !errors.Is(err, ErrNotEnoughShares) {
		t.Errorf("Sign with a signer missing: %v, want ErrNotEnoughShares", err)
	}
	// An unweighted share in a weighted slot passes the index checks by
	// construction; the result must simply not verify.
	mixed := append([]Share(nil), weighted...)
	mixed[0] = signers[0]
	if sig, err := q.Sign(mixed, msg); err != nil || Verify(g, msg, sig) == nil {
		t.Errorf("unweighted share in the sum: err %v, verified %v", err, Verify(g, msg, sig) == nil)
	}
}

// FuzzPointFromBytes: any byte string either decodes to a point that
// re-encodes to the same bytes or is refused with ErrBadPointEncoding —
// store recovery and the bank's state decoder feed it bytes read from
// disk.
func FuzzPointFromBytes(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(scalarBase(big.NewInt(1)).Bytes())
	f.Add(scalarBase(big.NewInt(2)).Bytes()[:63])
	f.Add(append(scalarBase(big.NewInt(3)).Bytes(), 0))
	offCurve := scalarBase(big.NewInt(4)).Bytes()
	offCurve[63] ^= 1
	f.Add(offCurve)
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := PointFromBytes(b)
		if err != nil {
			if !errors.Is(err, ErrBadPointEncoding) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if !bytes.Equal(p.Bytes(), b) {
			t.Fatalf("round trip of %x gave %x", b, p.Bytes())
		}
	})
}
