// Package tsig implements the threshold signature scheme behind ammBoost's
// TSQC (threshold-signature quorum certificate) sync authentication: a
// (2f+2)-of-(3f+2) scheme with a joint Feldman-style DKG, partial signing,
// Lagrange share combination, and public verification against the
// committee's group key recorded in TokenBank.
//
// The paper uses BLS over BN256 (pairing-based); the Go standard library has
// no pairing-friendly curve, so this package realizes the same linear
// structure over P-256: a partial signature is σᵢ = skᵢ·h·G with
// h = H(m) mod q, combined via Lagrange interpolation in the exponent to
// σ = sk·h·G, verified as σ == h·PK. Every protocol mechanic is faithful
// (key sharing, share verification, threshold combination, public
// verification); only unforgeability is weaker because the hash-to-point
// has a known discrete log — irrelevant to the performance and correctness
// behaviour this reproduction measures, and gas for verification is charged
// at the paper's BN256 precompile prices.
//
// There are two ways to the same group signature, chosen by when the
// signer set is known:
//
//   - Combine(g, partials) interpolates over whoever's partials are handed
//     in: it computes their Lagrange coefficients and does one
//     variable-base multiplication per signer. PBFT certificates use it —
//     the quorum there is the first 2f+2 replicas to answer.
//   - A Quorum fixes the signer set up front (a committee's sync signers
//     are known when it is provisioned), computes the coefficients once,
//     and has each member fold its own coefficient into its own share
//     (Weight). Weighted partials are fixed-base multiplications and
//     combine by point addition alone (CombineWeighted). The coefficients
//     are public and each is applied by the member it belongs to, so
//     nothing about a share leaves its owner.
//
// Both reach σ = sk·h·G, which is unique, so they are interchangeable
// bit for bit and Verify is the same check either way. Both take their
// coefficients from the one lagrangeAtZero routine.
package tsig

import (
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// Errors returned by the scheme.
var (
	ErrBadShare        = errors.New("tsig: share fails commitment check")
	ErrNotEnoughShares = errors.New("tsig: not enough partial signatures")
	ErrInvalid         = errors.New("tsig: signature verification failed")
	ErrDuplicateIndex  = errors.New("tsig: duplicate share index")
	ErrNotInQuorum     = errors.New("tsig: partial signature from outside the quorum or out of order")
)

var curve = elliptic.P256()

// Point is an elliptic-curve point (affine coordinates; nil, nil is the
// identity).
type Point struct {
	X, Y *big.Int
}

// IsIdentity reports whether p is the point at infinity.
func (p Point) IsIdentity() bool { return p.X == nil }

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Bytes returns a 64-byte encoding (X || Y, zero-padded).
func (p Point) Bytes() []byte {
	out := make([]byte, 64)
	if p.IsIdentity() {
		return out
	}
	p.X.FillBytes(out[:32])
	p.Y.FillBytes(out[32:])
	return out
}

func addPoints(p, q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	x, y := curve.Add(p.X, p.Y, q.X, q.Y)
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}
	}
	return Point{X: x, Y: y}
}

func scalarBase(k *big.Int) Point {
	if k.Sign() == 0 {
		return Point{}
	}
	x, y := curve.ScalarBaseMult(k.Bytes())
	return Point{X: x, Y: y}
}

func scalarMult(p Point, k *big.Int) Point {
	if p.IsIdentity() || k.Sign() == 0 {
		return Point{}
	}
	x, y := curve.ScalarMult(p.X, p.Y, k.Bytes())
	return Point{X: x, Y: y}
}

// hashToScalar maps a message to a nonzero scalar mod the curve order.
func hashToScalar(msg []byte) *big.Int {
	h := sha256.Sum256(msg)
	k := new(big.Int).SetBytes(h[:])
	k.Mod(k, curve.Params().N)
	if k.Sign() == 0 {
		k.SetInt64(1)
	}
	return k
}

// Share is one participant's secret share. Index is 1-based (the share is
// the dealer polynomial evaluated at Index).
type Share struct {
	Index int
	Value *big.Int
}

// Dealing is the output of a single dealer in the DKG: one share per
// participant plus Feldman commitments to the polynomial coefficients.
type Dealing struct {
	Shares      []Share
	Commitments []Point // Commitments[k] = coeff_k * G
}

// Deal splits a fresh random secret into n shares with threshold t
// (any t shares reconstruct; t-1 reveal nothing), publishing Feldman
// commitments for share verification.
func Deal(random io.Reader, t, n int) (*Dealing, error) {
	coeffs, err := dealCoeffs(random, t, n)
	if err != nil {
		return nil, err
	}
	d := &Dealing{
		Shares:      shares(coeffs, n),
		Commitments: make([]Point, t),
	}
	for k, c := range coeffs {
		d.Commitments[k] = scalarBase(c)
	}
	return d, nil
}

// DealKey is Deal for a dealer that publishes only the group key: from
// the same random stream it returns Deal's Commitments[0] and Shares,
// and computes none of the other t-1 commitments.
func DealKey(random io.Reader, t, n int) (Point, []Share, error) {
	coeffs, err := dealCoeffs(random, t, n)
	if err != nil {
		return Point{}, nil, err
	}
	return scalarBase(coeffs[0]), shares(coeffs, n), nil
}

// dealCoeffs checks the threshold and draws a dealing polynomial's t
// coefficients, constant term first.
func dealCoeffs(random io.Reader, t, n int) ([]*big.Int, error) {
	if t < 1 || t > n {
		return nil, fmt.Errorf("tsig: invalid threshold %d of %d", t, n)
	}
	q := curve.Params().N
	coeffs := make([]*big.Int, t)
	for i := range coeffs {
		c, err := randScalar(random, q)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	return coeffs, nil
}

// shares evaluates the dealing polynomial at 1..n.
func shares(coeffs []*big.Int, n int) []Share {
	q := curve.Params().N
	out := make([]Share, n)
	for i := 1; i <= n; i++ {
		out[i-1] = Share{Index: i, Value: evalPoly(coeffs, int64(i), q)}
	}
	return out
}

func randScalar(random io.Reader, q *big.Int) (*big.Int, error) {
	buf := make([]byte, 40) // oversample to make mod bias negligible
	if _, err := io.ReadFull(random, buf); err != nil {
		return nil, fmt.Errorf("tsig: rand: %w", err)
	}
	k := new(big.Int).SetBytes(buf)
	return k.Mod(k, q), nil
}

func evalPoly(coeffs []*big.Int, x int64, q *big.Int) *big.Int {
	// Horner evaluation over the integers, reduced mod q once at the end:
	// the same value as reducing at every step, without t divisions. acc
	// is sized for the unreduced value, so the steps do not allocate.
	bx := big.NewInt(x)
	words := (q.BitLen()+len(coeffs)*bx.BitLen())/bits.UintSize + 2
	acc := new(big.Int).SetBits(make([]big.Word, 0, words))
	for k := len(coeffs) - 1; k >= 0; k-- {
		acc.Mul(acc, bx)
		acc.Add(acc, coeffs[k])
	}
	return acc.Mod(acc, q)
}

// VerifyShare checks a share against the dealer's Feldman commitments:
// share·G == Σ x^k · C_k.
func VerifyShare(share Share, commitments []Point) error {
	q := curve.Params().N
	lhs := scalarBase(share.Value)
	rhs := Point{}
	xPow := big.NewInt(1)
	bx := big.NewInt(int64(share.Index))
	for _, c := range commitments {
		rhs = addPoints(rhs, scalarMult(c, xPow))
		xPow = new(big.Int).Mul(xPow, bx)
		xPow.Mod(xPow, q)
	}
	if !lhs.Equal(rhs) {
		return ErrBadShare
	}
	return nil
}

// GroupKey is the committee verification key (vk_c in the paper), recorded
// on TokenBank to authenticate Sync calls.
type GroupKey struct {
	PK        Point
	Threshold int
	N         int
}

// Bytes serializes the whole key: the point, then the threshold and the
// committee size as big-endian uint64s. A copy of it under a signature
// binds the key's geometry as well as its point.
func (g GroupKey) Bytes() []byte {
	b := g.PK.Bytes()
	b = binary.BigEndian.AppendUint64(b, uint64(g.Threshold))
	return binary.BigEndian.AppendUint64(b, uint64(g.N))
}

// DKGResult is one participant's view after the joint DKG.
type DKGResult struct {
	Share Share
	Group GroupKey
}

// RunDKG executes a joint Feldman DKG among n participants with threshold
// t: every participant deals, shares are verified against the dealer
// commitments, and each participant's final share is the sum of the shares
// addressed to it. The group key is the sum of the dealers' constant-term
// commitments. The committee runs this at the start of its epoch to derive
// vk_c (registered on TokenBank by the previous committee's Sync).
func RunDKG(random io.Reader, t, n int) ([]DKGResult, error) {
	dealings := make([]*Dealing, n)
	for j := 0; j < n; j++ {
		d, err := Deal(random, t, n)
		if err != nil {
			return nil, err
		}
		dealings[j] = d
	}
	q := curve.Params().N
	group := Point{}
	for _, d := range dealings {
		group = addPoints(group, d.Commitments[0])
	}
	results := make([]DKGResult, n)
	for i := 0; i < n; i++ {
		sum := new(big.Int)
		for _, d := range dealings {
			sh := d.Shares[i]
			if err := VerifyShare(sh, d.Commitments); err != nil {
				return nil, err
			}
			sum.Add(sum, sh.Value)
		}
		sum.Mod(sum, q)
		results[i] = DKGResult{
			Share: Share{Index: i + 1, Value: sum},
			Group: GroupKey{PK: group, Threshold: t, N: n},
		}
	}
	return results, nil
}

// PartialSig is a single member's signature share.
type PartialSig struct {
	Index int
	Sig   Point
}

// PartialSign produces a member's signature share over msg.
func PartialSign(share Share, msg []byte) PartialSig {
	return partialSign(share, hashToScalar(msg))
}

// partialSign signs an already-hashed message.
func partialSign(share Share, h *big.Int) PartialSig {
	k := new(big.Int).Mul(h, share.Value)
	k.Mod(k, curve.Params().N)
	return PartialSig{Index: share.Index, Sig: scalarBase(k)}
}

// VerifyPartial checks a signature share against the member's public share
// commitment pkShare = skᵢ·G.
func VerifyPartial(pkShare Point, msg []byte, ps PartialSig) error {
	h := hashToScalar(msg)
	if !ps.Sig.Equal(scalarMult(pkShare, h)) {
		return ErrInvalid
	}
	return nil
}

// Combine aggregates at least g.Threshold partial signatures into the group
// signature via Lagrange interpolation at zero. It is the general combiner
// for a signer set known only once the partials are in (PBFT certificates:
// whoever answered first); a signer set fixed in advance uses a Quorum,
// which pays for the coefficients once instead of per signature.
func Combine(g GroupKey, partials []PartialSig) (Point, error) {
	if len(partials) < g.Threshold {
		return Point{}, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(partials), g.Threshold)
	}
	use := partials[:g.Threshold]
	indices := make([]int, len(use))
	for i, ps := range use {
		indices[i] = ps.Index
	}
	lambda, err := lagrangeAtZero(indices)
	if err != nil {
		return Point{}, err
	}
	sig := Point{}
	for i, ps := range use {
		sig = addPoints(sig, scalarMult(ps.Sig, lambda[i]))
	}
	return sig, nil
}

// lagrangeAtZero computes, for every i, λ_i = Π_{j≠i} x_j / (x_j - x_i)
// mod q over the given share indices. It is the package's one Lagrange
// routine (Combine and NewQuorum both go through it) and the one place a
// repeated index is detected: x_j - x_i = 0 has no inverse.
func lagrangeAtZero(indices []int) ([]*big.Int, error) {
	q := curve.Params().N
	xs := make([]*big.Int, len(indices))
	for i, x := range indices {
		xs[i] = big.NewInt(int64(x))
	}
	lambda := make([]*big.Int, len(indices))
	d := new(big.Int)
	for i, xi := range xs {
		num := big.NewInt(1)
		den := big.NewInt(1)
		for j, xj := range xs {
			if j == i {
				continue
			}
			if indices[j] == indices[i] {
				return nil, ErrDuplicateIndex
			}
			num.Mul(num, xj)
			num.Mod(num, q)
			den.Mul(den, d.Sub(xj, xi))
			den.Mod(den, q)
		}
		den.ModInverse(den, q)
		num.Mul(num, den)
		lambda[i] = num.Mod(num, q)
	}
	return lambda, nil
}

// Quorum is a signer set fixed before anything is signed — a committee's
// sync signers are known from the moment it is provisioned — with its
// Lagrange coefficients computed once. Each member folds its own
// coefficient into its own share (Weight: wᵢ = λᵢ·skᵢ mod q) and signs
// with that, so its partial is σ′ᵢ = wᵢ·h·G = λᵢ·σᵢ: a fixed-base
// multiplication by a scalar only that member knows. The combiner then
// only adds points, Σ σ′ᵢ = Σ λᵢ·σᵢ = sk·h·G — the very point Combine
// reaches with one variable-base multiplication per signer (the group
// signature is unique, so the two are bit-identical and Verify cannot
// tell them apart). No member learns another's share; a Quorum holds no
// secret. A Quorum is immutable after NewQuorum and safe for concurrent
// use.
type Quorum struct {
	indices []int
	lambda  []*big.Int
}

// NewQuorum fixes the signer set to the first g.Threshold of the given
// share indices, rejecting too few or repeated indices exactly as Combine
// does.
func NewQuorum(g GroupKey, indices []int) (*Quorum, error) {
	if len(indices) < g.Threshold {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(indices), g.Threshold)
	}
	use := append([]int(nil), indices[:g.Threshold]...)
	lambda, err := lagrangeAtZero(use)
	if err != nil {
		return nil, err
	}
	return &Quorum{indices: use, lambda: lambda}, nil
}

// Weight folds the quorum's coefficient for share.Index into the share:
// the result signs through PartialSign like any share and is combined by
// CombineWeighted. A member runs it once per quorum, on its own share.
func (q *Quorum) Weight(share Share) (Share, error) {
	for i, x := range q.indices {
		if x == share.Index {
			w := new(big.Int).Mul(q.lambda[i], share.Value)
			return Share{Index: share.Index, Value: w.Mod(w, curve.Params().N)}, nil
		}
	}
	return Share{}, fmt.Errorf("%w: index %d", ErrNotInQuorum, share.Index)
}

// CombineWeighted sums the quorum's weighted partials into the group
// signature. It wants exactly one partial per signer, in the quorum's
// order: a missing signer is ErrNotEnoughShares, a repeated, foreign or
// misplaced one ErrDuplicateIndex / ErrNotInQuorum — summing anything
// else would silently produce a signature that fails Verify.
func (q *Quorum) CombineWeighted(partials []PartialSig) (Point, error) {
	if len(partials) < len(q.indices) {
		return Point{}, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(partials), len(q.indices))
	}
	if len(partials) > len(q.indices) {
		return Point{}, fmt.Errorf("%w: %d partials for %d signers", ErrNotInQuorum, len(partials), len(q.indices))
	}
	for i, ps := range partials {
		if ps.Index == q.indices[i] {
			continue
		}
		for _, prev := range partials[:i] {
			if prev.Index == ps.Index {
				return Point{}, ErrDuplicateIndex
			}
		}
		return Point{}, fmt.Errorf("%w: index %d in slot %d, want %d", ErrNotInQuorum, ps.Index, i, q.indices[i])
	}
	sig := Point{}
	for _, ps := range partials {
		sig = addPoints(sig, ps.Sig)
	}
	return sig, nil
}

// Sign is the whole quorum signing msg inside one process — what the
// simulator's committees do, since every member's (weighted) share lives
// in the same address space: each signer's PartialSign over one shared
// hash of msg, then CombineWeighted with all of its checks.
func (q *Quorum) Sign(weighted []Share, msg []byte) (Point, error) {
	h := hashToScalar(msg)
	partials := make([]PartialSig, len(weighted))
	for i, sh := range weighted {
		partials[i] = partialSign(sh, h)
	}
	return q.CombineWeighted(partials)
}

// Verify checks the combined signature against the group key:
// σ == H(m)·PK. TokenBank performs this check (charging BN256 pairing gas
// in the cost model) before accepting a Sync.
func Verify(g GroupKey, msg []byte, sig Point) error {
	h := hashToScalar(msg)
	if !sig.Equal(scalarMult(g.PK, h)) {
		return ErrInvalid
	}
	return nil
}

// PublicShare returns the public commitment skᵢ·G for a share, used to
// verify partial signatures.
func PublicShare(share Share) Point {
	return scalarBase(share.Value)
}

// ErrBadPointEncoding rejects a byte slice that does not decode to a
// curve point (durable-store recovery re-verifies persisted signatures,
// so corrupt encodings must surface as errors, not panics).
var ErrBadPointEncoding = errors.New("tsig: malformed point encoding")

// PointFromBytes decodes the 64-byte X||Y encoding produced by
// Point.Bytes. All-zero bytes decode to the identity; any other encoding
// must be a point on the curve.
func PointFromBytes(b []byte) (Point, error) {
	if len(b) != 64 {
		return Point{}, fmt.Errorf("%w: %d bytes, want 64", ErrBadPointEncoding, len(b))
	}
	x := new(big.Int).SetBytes(b[:32])
	y := new(big.Int).SetBytes(b[32:])
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}, nil
	}
	if !curve.IsOnCurve(x, y) {
		return Point{}, fmt.Errorf("%w: not on curve", ErrBadPointEncoding)
	}
	return Point{X: x, Y: y}, nil
}
