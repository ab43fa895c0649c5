package amm

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ammboost/internal/u256"
)

// buildCodecPool evolves a pool through a random mix of mints, swaps,
// burns, and collects so its encoding covers multi-tick, multi-position
// state with accrued fees.
func buildCodecPool(t testing.TB, seed int64) *Pool {
	t.Helper()
	p, err := NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mint("genesis", "lp", -887220, 887220, u256.MustFromDecimal("10000000000000")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 60; i++ {
		switch rng.Intn(4) {
		case 0:
			lo := int32(rng.Intn(40)-20) * 60
			hi := lo + int32(rng.Intn(10)+1)*60
			id := "pos-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			_, _ = p.Mint(id, "lp", lo, hi, u256.FromUint64(uint64(rng.Intn(1_000_000)+1000)))
		case 1, 2:
			_, _ = p.Swap(rng.Intn(2) == 0, true, u256.FromUint64(uint64(rng.Intn(100_000)+1)), u256.Zero)
		case 3:
			for _, pos := range p.Positions() {
				if pos.ID != "genesis" {
					_, _ = p.Burn(pos.ID, "lp", u256.Div(pos.Liquidity, u256.Two))
					break
				}
			}
		}
	}
	p.TakeDirty() // epoch boundary: snapshots are taken clean
	return p
}

// TestPoolCodecRoundTrip pins the identity AppendPool → DecodePool: the
// decoded pool must be structurally identical (reflect.DeepEqual over
// every field, exported or not) and re-encode to the same bytes.
func TestPoolCodecRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		p := buildCodecPool(t, seed)
		enc := AppendPool(nil, p)
		got, used, err := DecodePool(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if used != len(enc) {
			t.Fatalf("seed %d: decoded %d of %d bytes", seed, used, len(enc))
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("seed %d: decoded pool differs from original", seed)
		}
		if again := AppendPool(nil, got); string(again) != string(enc) {
			t.Fatalf("seed %d: re-encoding differs", seed)
		}
	}
}

// TestPoolCodecBehavioralEquivalence drives the original and the decoded
// copy through the same trades: every result and the final states must
// match bit for bit — the property recovery relies on when it resumes
// execution on restored pools.
func TestPoolCodecBehavioralEquivalence(t *testing.T) {
	p := buildCodecPool(t, 7)
	enc := AppendPool(nil, p)
	q, _, err := DecodePool(enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		amt := u256.FromUint64(uint64(rng.Intn(50_000) + 1))
		zf := rng.Intn(2) == 0
		rp, errP := p.Swap(zf, true, amt, u256.Zero)
		rq, errQ := q.Swap(zf, true, amt, u256.Zero)
		if (errP == nil) != (errQ == nil) || !reflect.DeepEqual(rp, rq) {
			t.Fatalf("swap %d diverged: %+v/%v vs %+v/%v", i, rp, errP, rq, errQ)
		}
	}
	p.TakeDirty()
	q.TakeDirty()
	if !reflect.DeepEqual(p, q) {
		t.Fatal("states diverged after identical trades")
	}
}

// TestPoolCodecTruncation: every truncation of a valid encoding fails
// cleanly instead of panicking or decoding garbage.
func TestPoolCodecTruncation(t *testing.T) {
	p := buildCodecPool(t, 3)
	enc := AppendPool(nil, p)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := DecodePool(enc[:cut]); !errors.Is(err, ErrBadPoolEncoding) {
			t.Fatalf("cut=%d: err = %v, want ErrBadPoolEncoding", cut, err)
		}
	}
}

// FuzzDecodePool feeds DecodePool arbitrary bytes, as a peer snapshot or
// a damaged store record would: it must fail with ErrBadPoolEncoding or
// return a clean pool whose encoding is exactly the bytes it consumed.
func FuzzDecodePool(f *testing.F) {
	for _, seed := range []int64{1, 3, 7, 42, 1337} {
		f.Add(AppendPool(nil, buildCodecPool(f, seed)))
	}
	fresh, err := NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendPool(nil, fresh))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, used, err := DecodePool(buf)
		if err != nil {
			if !errors.Is(err, ErrBadPoolEncoding) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if used < 0 || used > len(buf) {
			t.Fatalf("consumed %d of %d bytes", used, len(buf))
		}
		if d := p.TakeDirty(); d.Dirty() {
			t.Fatalf("decoded pool carries dirt: %+v", d)
		}
		if enc := AppendPool(nil, p); string(enc) != string(buf[:used]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", used)
		}
	})
}
