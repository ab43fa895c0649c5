package summary

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

func randPayload(r *rand.Rand) *SyncPayload {
	p := &SyncPayload{Epoch: r.Uint64() % 1000}
	// Users and position IDs are unique, as in real payloads (both are
	// derived from maps keyed by user / position ID).
	users := r.Perm(26)
	for i := 0; i < r.Intn(8)+1; i++ {
		p.Payouts = append(p.Payouts, PayoutEntry{
			User:    string(rune('a' + users[i])),
			Amount0: u256.FromUint64(r.Uint64() % 1e9),
			Amount1: u256.FromUint64(r.Uint64() % 1e9),
		})
	}
	ids := r.Perm(10)
	for i := 0; i < r.Intn(5); i++ {
		p.Positions = append(p.Positions, PositionEntry{
			ID:        "p" + string(rune('0'+ids[i])),
			Owner:     string(rune('a' + r.Intn(26))),
			TickLower: int32(r.Intn(100)) * -60,
			TickUpper: int32(r.Intn(100)+1) * 60,
			Liquidity: u256.FromUint64(r.Uint64() % 1e12),
			Deleted:   r.Intn(5) == 0,
		})
	}
	return p
}

// TestDigestOrderInvariance: SortEntries makes the digest independent of
// the order entries were accumulated — the property that lets every
// committee member derive an identical TSQC message.
func TestDigestOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPayload(r)
		p.SortEntries()
		d1 := p.Digest()
		// Shuffle and re-sort.
		r.Shuffle(len(p.Payouts), func(i, j int) { p.Payouts[i], p.Payouts[j] = p.Payouts[j], p.Payouts[i] })
		r.Shuffle(len(p.Positions), func(i, j int) { p.Positions[i], p.Positions[j] = p.Positions[j], p.Positions[i] })
		p.SortEntries()
		return p.Digest() == d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDigestSensitivity: any change to any entry changes the digest.
func TestDigestSensitivity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	p := randPayload(r)
	p.SortEntries()
	base := p.Digest()

	q := *p
	q.Epoch++
	if q.Digest() == base {
		t.Error("epoch change not reflected")
	}
	if len(p.Payouts) > 0 {
		amt := p.Payouts[0].Amount0
		p.Payouts[0].Amount0 = u256.Add(amt, u256.One)
		if p.Digest() == base {
			t.Error("payout amount change not reflected")
		}
		p.Payouts[0].Amount0 = amt
	}
	p.PoolReserve0 = u256.Add(p.PoolReserve0, u256.One)
	if p.Digest() == base {
		t.Error("reserve change not reflected")
	}
}

// TestEncodeBinarySizeProperty: the binary encoding is exactly
// 97·payouts + 215·positions for any payload shape (Table IV).
func TestEncodeBinarySizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPayload(r)
		want := 97*len(p.Payouts) + 215*len(p.Positions)
		return len(p.EncodeBinary()) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTxSizeDefaults(t *testing.T) {
	tx := &Tx{Kind: 1} // swap
	if tx.Size() != 1008 {
		t.Errorf("default swap size = %d", tx.Size())
	}
	tx.SizeBytes = 42
	if tx.Size() != 42 {
		t.Errorf("explicit size = %d", tx.Size())
	}
}

func TestTxHashDistinguishes(t *testing.T) {
	a := &Tx{ID: "x", Kind: 1, User: "u", Amount: u256.FromUint64(5)}
	b := &Tx{ID: "y", Kind: 1, User: "u", Amount: u256.FromUint64(5)}
	c := &Tx{ID: "x", Kind: 1, User: "u", Amount: u256.FromUint64(6)}
	if a.Hash() == b.Hash() || a.Hash() == c.Hash() {
		t.Error("hash collisions across distinct txs")
	}
	if a.Hash() != (&Tx{ID: "x", Kind: 1, User: "u", Amount: u256.FromUint64(5)}).Hash() {
		t.Error("hash not deterministic")
	}
}

// streamTxHash is Tx.Hash's reference: the same length-prefixed fields,
// written one by one into a streaming SHA-256.
func streamTxHash(tx *Tx) [32]byte {
	h := sha256.New()
	var n [4]byte
	str := func(s string) {
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	str(tx.ID)
	h.Write([]byte{byte(tx.Kind)})
	str(tx.User)
	str(tx.PoolID)
	amt := tx.Amount.Bytes32()
	h.Write(amt[:])
	str(tx.PosID)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestTxHashMatchesStream pins Tx.Hash to the streaming reference,
// including fields that outgrow its stack buffer.
func TestTxHashMatchesStream(t *testing.T) {
	long := strings.Repeat("k", 300)
	for _, tx := range []*Tx{
		{},
		{ID: "swap-000017", Kind: 1, User: "user-0003", PoolID: "pool-0002", Amount: u256.FromUint64(5)},
		{ID: "m", Kind: 2, User: "lp", PosID: "pos-1", Amount: u256.Max},
		{ID: long, Kind: 3, User: "u"},
		{ID: "x", User: long, PoolID: long, PosID: long},
	} {
		if got, want := tx.Hash(), streamTxHash(tx); got != want {
			t.Errorf("Hash(%.20q...) = %x, stream %x", tx.ID, got[:8], want[:8])
		}
	}
}

// FuzzTxHash checks Tx.Hash against the streaming reference for
// byte-chosen fields: the first byte picks the kind, the next 32 the
// amount, and the rest is split four ways into ID, user, pool and
// position ID.
func FuzzTxHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05swap-1|user-0|pool-0000|"))
	f.Add(bytes.Repeat([]byte{0xff}, 400))
	f.Fuzz(func(t *testing.T, data []byte) {
		tx := &Tx{}
		if len(data) > 0 {
			tx.Kind, data = gasmodel.TxKind(data[0]), data[1:]
		}
		if len(data) >= 32 {
			tx.Amount, data = u256.FromBytes32([32]byte(data[:32])), data[32:]
		}
		q := len(data) / 4
		tx.ID, tx.User, tx.PoolID, tx.PosID = string(data[:q]), string(data[q:2*q]), string(data[2*q:3*q]), string(data[3*q:])
		if got, want := tx.Hash(), streamTxHash(tx); got != want {
			t.Fatalf("Hash %x, stream %x", got, want)
		}
	})
}

// TestEncodeBinaryKeyLayout pins the 65-byte uncompressed-pubkey
// rendering inside the binary packing: the in-place fillKey used on the
// encoder hot path must keep producing 0x04 || sha256(user) ||
// sha256(sha256(user)), byte for byte.
func TestEncodeBinaryKeyLayout(t *testing.T) {
	p := &SyncPayload{
		Epoch:   3,
		Payouts: []PayoutEntry{{User: "alice", Amount0: u256.FromUint64(7), Amount1: u256.FromUint64(9)}},
	}
	out := p.EncodeBinary()
	if len(out) != 97 {
		t.Fatalf("payout entry = %d bytes, want 97", len(out))
	}
	if out[0] != 0x04 {
		t.Fatalf("key prefix = %#x, want 0x04", out[0])
	}
	d := sha256.Sum256([]byte("alice"))
	d2 := sha256.Sum256(d[:])
	if !bytes.Equal(out[1:33], d[:]) || !bytes.Equal(out[33:65], d2[:]) {
		t.Fatal("key body diverged from sha256-derived rendering")
	}
}

// TestDigestAllocFree guards the digest hot paths against regressing to
// per-call heap copies.
func TestDigestAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := randPayload(r)
	tx := &Tx{ID: "t1", User: "u", PoolID: "pool-0001", Amount: u256.FromUint64(42)}
	if n := testing.AllocsPerRun(100, func() { _ = tx.Hash() }); n != 0 {
		t.Errorf("Tx.Hash allocates %.0f times per call", n)
	}
	// Digest writes through a reused stack buffer; the only heap
	// allocation should be the sha256 state itself.
	if n := testing.AllocsPerRun(100, func() { _ = p.Digest() }); n > 1 {
		t.Errorf("SyncPayload.Digest allocates %.0f times per call", n)
	}
}
