package amm

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
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

// outOfRangePools returns encodings of pools that are well framed but
// hold a tick, fee or price outside the ranges NewPool and Mint enforce.
// Before DecodePool checked them, the first one decoded and a one-for-zero
// swap on it panicked in SqrtRatioAtTick, and a pool with a fee of 2e6
// pips paid out most of its token1 reserve for 1 000 token0.
func outOfRangePools(t testing.TB) []namedBytes {
	t.Helper()
	build := func(mutate func(p *Pool)) []byte {
		p, err := NewPool("A", "B", 3000, 60, u256.Q96)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Mint("lp-pos", "lp", -600, 600, u256.FromUint64(1_000_000_000)); err != nil {
			t.Fatal(err)
		}
		mutate(p)
		return AppendPool(nil, p)
	}
	return []namedBytes{
		{"tick key", build(func(p *Pool) {
			p.ticks[900_000] = p.ticks[600]
			delete(p.ticks, 600)
			p.tickList[1] = 900_000
		})},
		{"position tick", build(func(p *Pool) { p.positions["lp-pos"].TickUpper = MaxTick + 1 })},
		{"position order", build(func(p *Pool) { p.positions["lp-pos"].TickLower = 600 })},
		{"pool tick", build(func(p *Pool) { p.Tick = MinTick - 1 })},
		{"price below", build(func(p *Pool) { p.SqrtPriceX96 = u256.Sub(MinSqrtRatio, u256.One) })},
		{"price at max", build(func(p *Pool) { p.SqrtPriceX96 = MaxSqrtRatio })},
		{"tick spacing", build(func(p *Pool) { p.TickSpacing = 0 })},
		{"fee", build(func(p *Pool) { p.FeePips = feeDenominator })},
	}
}

type namedBytes struct {
	name string
	enc  []byte
}

func TestDecodePoolRejectsOutOfRange(t *testing.T) {
	for _, c := range outOfRangePools(t) {
		if _, _, err := DecodePool(c.enc); !errors.Is(err, ErrBadPoolEncoding) {
			t.Errorf("%s: err = %v, want ErrBadPoolEncoding", c.name, err)
		}
	}
}

// swapErrors are the typed refusals a swap may return.
var swapErrors = []error{ErrZeroAmount, ErrPriceLimit, ErrLiquidityZero, ErrPriceOverflow, ErrAmountTooLarge}

// FuzzDecodePool feeds DecodePool arbitrary bytes, as a peer snapshot or
// a damaged store record would: it must fail with ErrBadPoolEncoding or
// return a clean pool whose encoding is exactly the bytes it consumed —
// EncodedPoolLen of them — and on which a swap in each direction succeeds
// or fails with a typed error.
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
	for _, c := range outOfRangePools(f) {
		f.Add(c.enc)
	}
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
		if enc := AppendPool(nil, p); string(enc) != string(buf[:used]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", used)
		}
		if n := EncodedPoolLen(p); n != used {
			t.Fatalf("EncodedPoolLen = %d, the encoding is %d bytes", n, used)
		}
		for _, zeroForOne := range []bool{true, false} {
			_, err := p.Clone().Swap(zeroForOne, true, u256.FromUint64(1_000_000), u256.Zero)
			if err != nil && !slices.ContainsFunc(swapErrors, func(e error) bool { return errors.Is(err, e) }) {
				t.Fatalf("swap zeroForOne=%v: untyped error %v", zeroForOne, err)
			}
		}
	})
}
