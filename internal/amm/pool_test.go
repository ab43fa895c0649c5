package amm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ammboost/internal/u256"
)

// newTestPool creates a pool at price 1.0 (tick 0) with spacing 60.
// absDiff is |x - y|.
func absDiff(x, y u256.Int) u256.Int {
	if x.Lt(y) {
		return u256.Sub(y, x)
	}
	return u256.Sub(x, y)
}

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func liq(v uint64) u256.Int { return u256.FromUint64(v) }

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool("A", "B", 3000, 60, u256.Zero); err == nil {
		t.Error("zero price should be rejected")
	}
	if _, err := NewPool("A", "B", 3000, 0, u256.Q96); err == nil {
		t.Error("zero tick spacing should be rejected")
	}
	if _, err := NewPool("A", "B", feeDenominator, 60, u256.Q96); err == nil {
		t.Error("a fee of 100% should be rejected")
	}
	p, err := NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil || p.Tick != 0 {
		t.Errorf("pool at price 1 should sit at tick 0, got %d err %v", p.Tick, err)
	}
}

func TestMintAmounts(t *testing.T) {
	p := newTestPool(t)
	// Symmetric in-range position around tick 0 requires both tokens.
	res, err := p.Mint("pos1", "lp1", -600, 600, liq(1_000_000))
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if res.Amount0.IsZero() || res.Amount1.IsZero() {
		t.Errorf("in-range mint should require both tokens, got %s / %s", res.Amount0, res.Amount1)
	}
	// Symmetric range at price 1: amounts should be nearly equal.
	if absDiff(res.Amount0, res.Amount1).Gt(u256.FromUint64(2)) {
		t.Errorf("symmetric mint amounts should match: %s vs %s", res.Amount0, res.Amount1)
	}

	// Range entirely above the current price requires only token0.
	res0, err := p.Mint("pos2", "lp1", 600, 1200, liq(1_000_000))
	if err != nil {
		t.Fatalf("Mint above: %v", err)
	}
	if res0.Amount0.IsZero() || !res0.Amount1.IsZero() {
		t.Errorf("above-range mint wants token0 only, got %s / %s", res0.Amount0, res0.Amount1)
	}

	// Range entirely below requires only token1.
	res1, err := p.Mint("pos3", "lp1", -1200, -600, liq(1_000_000))
	if err != nil {
		t.Fatalf("Mint below: %v", err)
	}
	if !res1.Amount0.IsZero() || res1.Amount1.IsZero() {
		t.Errorf("below-range mint wants token1 only, got %s / %s", res1.Amount0, res1.Amount1)
	}
}

func TestMintValidation(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("x", "lp", 600, -600, liq(1)); err != ErrInvalidTickRange {
		t.Errorf("inverted range: %v", err)
	}
	if _, err := p.Mint("x", "lp", -61, 600, liq(1)); err != ErrTickNotSpaced {
		t.Errorf("unaligned tick: %v", err)
	}
	if _, err := p.Mint("x", "lp", -600, 600, u256.Zero); err != ErrLiquidityZero {
		t.Errorf("zero liquidity: %v", err)
	}
	if _, err := p.Mint("x", "lp", -600, 600, liq(10)); err != nil {
		t.Fatalf("mint: %v", err)
	}
	if _, err := p.Mint("x", "other", -600, 600, liq(10)); err != ErrNotPositionOwner {
		t.Errorf("owner mismatch: %v", err)
	}
	if _, err := p.Mint("x", "lp", -1200, 600, liq(10)); err != ErrInvalidTickRange {
		t.Errorf("range mismatch on existing position: %v", err)
	}
}

func TestSwapExactInZeroForOne(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(10_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	in := u256.FromUint64(1_000_000)
	res, err := p.Swap(true, true, in, u256.Zero)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if !res.AmountIn.Eq(in) {
		t.Errorf("exact-in should consume all input: consumed %s of %s", res.AmountIn, in)
	}
	if res.AmountOut.IsZero() || !res.AmountOut.Lt(in) {
		// At price ~1, output ≈ input*(1-fee) minus slippage.
		t.Errorf("unexpected output %s for input %s", res.AmountOut, in)
	}
	if !p.SqrtPriceX96.Lt(u256.Q96) {
		t.Error("selling token0 should decrease the price")
	}
	if res.FeeAmount.IsZero() {
		t.Error("fee should be charged")
	}
	// Fee ≈ 0.3% of input.
	wantFee := u256.Div(u256.Mul(in, u256.FromUint64(3000)), u256.FromUint64(1_000_000))
	diff := absDiff(res.FeeAmount, wantFee)
	if diff.Gt(u256.FromUint64(5)) {
		t.Errorf("fee %s, want ~%s", res.FeeAmount, wantFee)
	}
}

func TestSwapExactInOneForZero(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(10_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	in := u256.FromUint64(500_000)
	res, err := p.Swap(false, true, in, u256.Zero)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if !p.SqrtPriceX96.Gt(u256.Q96) {
		t.Error("selling token1 should increase the price")
	}
	if res.AmountOut.IsZero() {
		t.Error("no output")
	}
}

func TestSwapExactOut(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(10_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	want := u256.FromUint64(250_000)
	res, err := p.Swap(true, false, want, u256.Zero)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if !res.AmountOut.Eq(want) {
		t.Errorf("exact-out delivered %s, want %s", res.AmountOut, want)
	}
	if !res.AmountIn.Gt(want) {
		// Input must exceed output at price ~1 because of the fee.
		t.Errorf("input %s should exceed output %s (fee)", res.AmountIn, want)
	}
}

func TestSwapPriceLimit(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(1_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	limit := SqrtRatioAtTick(-60) // allow only a small price move
	res, err := p.Swap(true, true, u256.FromUint64(1_000_000_000_000), limit)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if !p.SqrtPriceX96.Eq(limit) {
		t.Errorf("price should stop at the limit: %s vs %s", p.SqrtPriceX96, limit)
	}
	if !res.AmountIn.Lt(u256.FromUint64(1_000_000_000_000)) {
		t.Error("swap should have been partially filled")
	}
}

func TestSwapInvalidLimit(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(1_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	// Limit on the wrong side of the current price.
	if _, err := p.Swap(true, true, u256.FromUint64(10), SqrtRatioAtTick(60)); err != ErrPriceLimit {
		t.Errorf("want ErrPriceLimit, got %v", err)
	}
	if _, err := p.Swap(false, true, u256.FromUint64(10), SqrtRatioAtTick(-60)); err != ErrPriceLimit {
		t.Errorf("want ErrPriceLimit, got %v", err)
	}
	if _, err := p.Swap(true, true, u256.Zero, u256.Zero); err != ErrZeroAmount {
		t.Errorf("want ErrZeroAmount, got %v", err)
	}
}

func TestSwapCrossesTicks(t *testing.T) {
	p := newTestPool(t)
	// Narrow in-range position plus a wide backstop.
	if _, err := p.Mint("narrow", "lp", -60, 60, liq(5_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if _, err := p.Mint("wide", "lp", -12000, 12000, liq(1_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	startLiq := p.Liquidity
	res, err := p.Swap(true, true, u256.FromUint64(50_000_000), u256.Zero)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if res.TicksCrossed == 0 {
		t.Error("expected to cross the narrow position's lower tick")
	}
	if p.Tick >= -60 {
		t.Errorf("price should be below the narrow range, tick=%d", p.Tick)
	}
	if !p.Liquidity.Lt(startLiq) {
		t.Errorf("liquidity should drop after leaving the narrow range: %s -> %s", startLiq, p.Liquidity)
	}
}

func TestBurnAndCollectRoundTrip(t *testing.T) {
	p := newTestPool(t)
	mintRes, err := p.Mint("pos", "lp", -600, 600, liq(1_000_000_000))
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	burnRes, err := p.Burn("pos", "lp", liq(1_000_000_000))
	if err != nil {
		t.Fatalf("Burn: %v", err)
	}
	// Burn returns at most what the mint took (rounding favors the pool).
	if burnRes.Amount0.Gt(mintRes.Amount0) || burnRes.Amount1.Gt(mintRes.Amount1) {
		t.Errorf("burn returned more than minted: %s/%s > %s/%s",
			burnRes.Amount0, burnRes.Amount1, mintRes.Amount0, mintRes.Amount1)
	}
	diff0 := u256.Sub(mintRes.Amount0, burnRes.Amount0)
	if diff0.Gt(u256.FromUint64(2)) {
		t.Errorf("mint/burn rounding gap too large: %s", diff0)
	}
	paid0, paid1, err := p.Collect("pos", "lp", u256.Max, u256.Max)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !paid0.Eq(burnRes.Amount0) || !paid1.Eq(burnRes.Amount1) {
		t.Errorf("collect %s/%s, want %s/%s", paid0, paid1, burnRes.Amount0, burnRes.Amount1)
	}
	if p.Position("pos") != nil {
		t.Error("fully-collected empty position should be deleted")
	}
	if !p.Liquidity.IsZero() {
		t.Errorf("pool liquidity should be zero, got %s", p.Liquidity)
	}
}

func TestBurnValidation(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Burn("nope", "lp", liq(1)); err != ErrPositionNotFound {
		t.Errorf("missing position: %v", err)
	}
	if _, err := p.Mint("pos", "lp", -600, 600, liq(100)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if _, err := p.Burn("pos", "other", liq(1)); err != ErrNotPositionOwner {
		t.Errorf("wrong owner: %v", err)
	}
	if _, err := p.Burn("pos", "lp", liq(101)); err != ErrInsufficientLiq {
		t.Errorf("over-burn: %v", err)
	}
}

func TestFeesAccrueToLP(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(10_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	swapIn := u256.FromUint64(10_000_000)
	res, err := p.Swap(true, true, swapIn, u256.Zero)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	// Poke the position, then collect fees.
	if _, err := p.Burn("pos", "lp", u256.Zero); err != nil {
		t.Fatalf("poke: %v", err)
	}
	pos := p.Position("pos")
	if pos.TokensOwed0.IsZero() {
		t.Fatal("LP should have accrued token0 fees")
	}
	// The sole LP gets (almost) the entire fee; flooring may shave dust.
	if pos.TokensOwed0.Gt(res.FeeAmount) {
		t.Errorf("owed %s exceeds collected fee %s", pos.TokensOwed0, res.FeeAmount)
	}
	gap := u256.Sub(res.FeeAmount, pos.TokensOwed0)
	if gap.Gt(u256.FromUint64(2)) {
		t.Errorf("sole LP should earn nearly the whole fee: owed %s of %s", pos.TokensOwed0, res.FeeAmount)
	}
}

func TestFeesSplitProportionally(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("a", "lpA", -6000, 6000, liq(3_000_000_000)); err != nil {
		t.Fatalf("Mint a: %v", err)
	}
	if _, err := p.Mint("b", "lpB", -6000, 6000, liq(1_000_000_000)); err != nil {
		t.Fatalf("Mint b: %v", err)
	}
	if _, err := p.Swap(true, true, u256.FromUint64(40_000_000), u256.Zero); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if _, err := p.Burn("a", "lpA", u256.Zero); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Burn("b", "lpB", u256.Zero); err != nil {
		t.Fatal(err)
	}
	owedA := p.Position("a").TokensOwed0
	owedB := p.Position("b").TokensOwed0
	if owedA.IsZero() || owedB.IsZero() {
		t.Fatalf("both LPs should earn fees: %s / %s", owedA, owedB)
	}
	// lpA provided 3x the liquidity → ~3x the fees.
	ratio := u256.Div(u256.Mul(owedA, u256.FromUint64(100)), owedB)
	r, _ := ratio.Uint64()
	if r < 295 || r > 305 {
		t.Errorf("fee ratio = %d/100, want ~300", r)
	}
}

func TestSwapRoundTripConservation(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -6000, 6000, liq(50_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	// A → B → A round trip must lose money to fees (no free lunch).
	in := u256.FromUint64(5_000_000)
	res1, err := p.Swap(true, true, in, u256.Zero)
	if err != nil {
		t.Fatalf("swap 1: %v", err)
	}
	res2, err := p.Swap(false, true, res1.AmountOut, u256.Zero)
	if err != nil {
		t.Fatalf("swap 2: %v", err)
	}
	if !res2.AmountOut.Lt(in) {
		t.Errorf("round trip returned %s for %s input; should lose fees", res2.AmountOut, in)
	}
}

func TestPoolClone(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("pos", "lp", -600, 600, liq(1_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	c := p.Clone()
	if _, err := c.Swap(true, true, u256.FromUint64(100_000), u256.Zero); err != nil {
		t.Fatalf("Swap clone: %v", err)
	}
	if !p.SqrtPriceX96.Eq(u256.Q96) {
		t.Error("swapping the clone must not move the original's price")
	}
	if _, err := c.Burn("pos", "lp", liq(1)); err != nil {
		t.Fatalf("Burn clone: %v", err)
	}
	if !p.Position("pos").Liquidity.Eq(liq(1_000_000_000)) {
		t.Error("clone burn must not touch original position")
	}
}

// TestReservesNeverNegative fuzzes a trading session and checks reserve
// conservation: reserves always cover the sum of what positions are owed.
func TestReservesNeverNegative(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("base", "lp", -12000, 12000, liq(100_000_000_000)); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		zeroForOne := r.Intn(2) == 0
		amt := u256.FromUint64(uint64(r.Intn(5_000_000) + 1))
		if _, err := p.Swap(zeroForOne, true, amt, u256.Zero); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	// Burn everything; reserves must cover the owed amounts.
	if _, err := p.Burn("base", "lp", liq(100_000_000_000)); err != nil {
		t.Fatalf("Burn: %v", err)
	}
	pos := p.Position("base")
	if p.Reserve0.Lt(pos.TokensOwed0) || p.Reserve1.Lt(pos.TokensOwed1) {
		t.Errorf("reserves %s/%s cannot cover owed %s/%s",
			p.Reserve0, p.Reserve1, pos.TokensOwed0, pos.TokensOwed1)
	}
	paid0, paid1, err := p.Collect("base", "lp", u256.Max, u256.Max)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if paid0.IsZero() && paid1.IsZero() {
		t.Error("collect should pay out principal and fees")
	}
}

func BenchmarkSwapExactIn(b *testing.B) {
	p, _ := NewPool("A", "B", 3000, 60, u256.Q96)
	if _, err := p.Mint("pos", "lp", -887220, 887220, u256.MustFromDecimal("100000000000000000000")); err != nil {
		b.Fatal(err)
	}
	in := u256.FromUint64(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroForOne := i%2 == 0 // alternate to keep the price centered
		if _, err := p.Swap(zeroForOne, true, in, u256.Zero); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMintBurn(b *testing.B) {
	p, _ := NewPool("A", "B", 3000, 60, u256.Q96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Mint("pos", "lp", -600, 600, liq(1_000_000)); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Burn("pos", "lp", liq(1_000_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPositionKeysSorted: the sorted position index follows mints, and a
// position a full burn and collect deletes leaves it.
func TestPositionKeysSorted(t *testing.T) {
	p := newTestPool(t)
	for _, id := range []string{"zz", "aa", "mm", "bb"} {
		if _, err := p.Mint(id, "lp", -600, 600, liq(100_000)); err != nil {
			t.Fatal(err)
		}
	}
	keys := p.PositionKeys()
	if len(keys) != 4 {
		t.Fatalf("PositionKeys len = %d, want 4", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("PositionKeys not sorted: %v", keys)
		}
	}
	if _, err := p.Burn("mm", "lp", liq(100_000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Collect("mm", "lp", u256.Max, u256.Max); err != nil {
		t.Fatal(err)
	}
	if p.Position("mm") != nil {
		t.Fatal("position should be deleted after full burn+collect")
	}
	if keys := p.PositionKeys(); !slices.Equal(keys, []string{"aa", "bb", "zz"}) {
		t.Errorf("PositionKeys after deleting mm = %v, want [aa bb zz]", keys)
	}
}

// randomWrites runs n random mints, burns, collects and swaps on p,
// drawn from r; most fail or succeed at random, as traffic does.
func randomWrites(p *Pool, r *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", r.Intn(6))
		if r.Intn(6) == 0 {
			id = "genesis" // a position the pools held before the Clone
		}
		switch r.Intn(5) {
		case 0:
			lo := int32(r.Intn(30)-15) * 60
			_, _ = p.Mint(id, "lp", lo, lo+int32(1+r.Intn(8))*60, u256.FromUint64(uint64(1000+r.Intn(1_000_000))))
		case 1:
			if pos := p.Position(id); pos != nil {
				_, _ = p.Burn(id, "lp", u256.Div(pos.Liquidity, u256.FromUint64(uint64(1+r.Intn(3)))))
			}
		case 2:
			_, _, _ = p.Collect(id, "lp", u256.FromUint64(uint64(r.Intn(5000))), u256.Max)
		default:
			_, _ = p.Swap(r.Intn(2) == 0, r.Intn(2) == 0, u256.FromUint64(uint64(1+r.Intn(200_000))), u256.Zero)
		}
	}
}

// TestCloneIsolation: a Clone shares its collections copy-on-write, and
// neither side's writes reach the other. Random writes on one side, then
// the other, in both orders and through a clone of a clone, leave the
// other side's encoding byte-identical, and each side ends exactly where
// the same writes take an unshared pool decoded from its bytes.
func TestCloneIsolation(t *testing.T) {
	decoded := func(p *Pool) *Pool {
		q, _, err := DecodePool(AppendPool(nil, p))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for seed := int64(1); seed <= 30; seed++ {
		src := buildCodecPool(t, seed)
		clone := src.Clone()
		second := clone.Clone()
		pools := []*Pool{src, clone, second}
		order := rand.New(rand.NewSource(seed)).Perm(len(pools))
		for _, w := range order {
			before := make([][]byte, len(pools))
			for i, p := range pools {
				before[i] = AppendPool(nil, p)
			}
			ref := decoded(pools[w])
			opSeed := seed*10 + int64(w)
			randomWrites(pools[w], rand.New(rand.NewSource(opSeed)), 80)
			randomWrites(ref, rand.New(rand.NewSource(opSeed)), 80)
			if got, want := AppendPool(nil, pools[w]), AppendPool(nil, ref); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: pool %d's writes end elsewhere than on an unshared copy", seed, w)
			}
			for i, p := range pools {
				if i != w && !bytes.Equal(AppendPool(nil, p), before[i]) {
					t.Fatalf("seed %d: writes on pool %d reached pool %d (write order %v)", seed, w, i, order)
				}
			}
		}
	}
}

// TestSwapCommitsOrDoesNothing pins SwapIf against the unconditional Swap
// on random pools: an accepted swap is that Swap, byte for byte; a
// rejected or failed one leaves the pool's encoding — ticks, header,
// positions — exactly as it was.
func TestSwapCommitsOrDoesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	errRejected := errors.New("rejected")
	var accepted, rejectedAfterCross, failedAfterCross int
	for n := 0; n < 1500; n++ {
		p := newTestPool(t)
		for i, k := 0, 1+r.Intn(6); i < k; i++ {
			lower, upper := int32(-887220), int32(887220)
			if r.Intn(3) > 0 {
				lower = int32(r.Intn(40)-30) * 60
				upper = lower + int32(1+r.Intn(20))*60
			}
			l := u256.Shl(u256.One, uint(r.Intn(51)))
			if _, err := p.Mint(fmt.Sprintf("p%d", i), "lp", lower, upper, l); err != nil {
				t.Fatalf("pool %d mint: %v", n, err)
			}
		}
		for s := 0; s < 8; s++ {
			zeroForOne, exactIn, reject := r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0
			amount := u256.Shl(u256.One, uint(r.Intn(63)))
			before, ref := AppendPool(nil, p), p.Clone()
			want, wantErr := ref.Swap(zeroForOne, exactIn, amount, u256.Zero)
			var seen SwapResult
			got, err := p.SwapIf(zeroForOne, exactIn, amount, u256.Zero, func(res SwapResult) error {
				seen = res
				if reject {
					return errRejected
				}
				return nil
			})
			switch {
			case wantErr != nil:
				if want.TicksCrossed > 0 {
					failedAfterCross++
				}
				if err != wantErr || !bytes.Equal(AppendPool(nil, p), before) {
					t.Fatalf("pool %d swap %d: failed swap (%v, want %v) changed the pool", n, s, err, wantErr)
				}
			case reject:
				if want.TicksCrossed > 0 {
					rejectedAfterCross++
				}
				if err != errRejected || seen != want || !bytes.Equal(AppendPool(nil, p), before) {
					t.Fatalf("pool %d swap %d: rejected swap (%v) changed the pool or saw %+v, want %+v", n, s, err, seen, want)
				}
			default:
				accepted++
				if err != nil || got != want || !bytes.Equal(AppendPool(nil, p), AppendPool(nil, ref)) {
					t.Fatalf("pool %d swap %d: accepted swap differs from Swap: %v, %+v, want %+v", n, s, err, got, want)
				}
			}
		}
	}
	// A consistent pool never fails after a crossing, so that case is
	// crafted: liquidity the ticks do not account for wraps at the
	// crossing of tick 600, and the next step overflows.
	p := newTestPool(t)
	if _, err := p.Mint("range", "lp", 0, 600, liq(1<<40)); err != nil {
		t.Fatal(err)
	}
	p.Liquidity = u256.Zero
	before := AppendPool(nil, p)
	res, err := p.SwapIf(false, true, u256.Shl(u256.One, 60), u256.Zero, nil)
	if unchanged := bytes.Equal(AppendPool(nil, p), before); !errors.Is(err, ErrPriceOverflow) || res.TicksCrossed == 0 || !unchanged {
		t.Fatalf("crafted swap: %v after %d crossings, pool unchanged %v; want ErrPriceOverflow after a crossing, pool unchanged",
			err, res.TicksCrossed, unchanged)
	}
	failedAfterCross++
	if accepted == 0 || rejectedAfterCross == 0 || failedAfterCross == 0 {
		t.Fatalf("cases not covered: accepted %d, rejected after a crossing %d, failed after one %d", accepted, rejectedAfterCross, failedAfterCross)
	}
	t.Logf("accepted %d, rejected after a crossing %d, failed after one %d", accepted, rejectedAfterCross, failedAfterCross)
}

// TestSwapStepWithoutMoveKeepsCrossedTick: like Uniswap V3, a swap step
// recomputes the tick only when it moved the price. A swap that crosses
// tick -600 downward and then spends its last wei on fee without moving
// must end at tick -601, below the range whose liquidity the crossing
// already removed.
func TestSwapStepWithoutMoveKeepsCrossedTick(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("genesis", "lp", -887220, 887220, u256.MustFromDecimal("10000000000000")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mint("range", "lp", -600, 600, liq(1_000_000_000)); err != nil {
		t.Fatal(err)
	}
	full := p.Liquidity
	// A dry run limited at tick -600's price finds the input that reaches
	// the tick exactly.
	dry, err := p.Clone().Swap(true, true, u256.MustFromDecimal("1000000000000"), SqrtRatioAtTick(-600))
	if err != nil {
		t.Fatal(err)
	}
	if dry.Tick != -600 && dry.Tick != -601 {
		t.Fatalf("dry run ended at tick %d, want the -600 boundary", dry.Tick)
	}
	res, err := p.Swap(true, true, u256.Add(dry.AmountIn, u256.One), u256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SqrtPriceX96.Eq(SqrtRatioAtTick(-600)) || res.TicksCrossed != 1 {
		t.Fatalf("swap ended at price %s after %d crossings, want tick -600's price after 1", res.SqrtPriceX96, res.TicksCrossed)
	}
	if want := u256.Sub(full, liq(1_000_000_000)); !p.Liquidity.Eq(want) {
		t.Fatalf("liquidity %s, want %s with the range crossed out", p.Liquidity, want)
	}
	if p.Tick != -601 || res.Tick != -601 {
		t.Fatalf("tick = %d (result %d), want -601 below the crossed tick", p.Tick, res.Tick)
	}
}

// TestSwapDownFromInitializedTickCrossesIt runs the three-step recipe
// that left liquidity active outside its range, in both directions:
// push the price past the last initialized tick with an exact-out swap,
// swap 1 wei back (the pool jumps to that tick, crosses it and spends
// the wei on fee without moving), then keep swapping the first way.
// Like Uniswap V3, the last swap must cross the tick it starts on with
// a zero-amount step; otherwise it trades against the range's liquidity
// outside the range and pays out tokens the pool does not hold.
func TestSwapDownFromInitializedTickCrossesIt(t *testing.T) {
	for _, zeroForOne := range []bool{true, false} {
		p := newTestPool(t)
		if _, err := p.Mint("range", "lp", -600, 600, liq(1_000_000_000)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Swap(zeroForOne, false, u256.Shl(u256.One, 60), u256.Zero); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Swap(!zeroForOne, true, u256.One, u256.Zero); err != nil {
			t.Fatal(err)
		}
		if !p.Liquidity.Eq(liq(1_000_000_000)) {
			t.Fatalf("zeroForOne=%v: liquidity %s back at the boundary, want the range's", zeroForOne, p.Liquidity)
		}
		held := p.Reserve1
		if !zeroForOne {
			held = p.Reserve0
		}
		res, err := p.Swap(zeroForOne, true, liq(1_000_000), u256.Zero)
		if err != nil {
			t.Fatal(err)
		}
		if res.TicksCrossed != 1 || !p.Liquidity.IsZero() {
			t.Errorf("zeroForOne=%v: %d crossings, liquidity %s; want the boundary crossed and none left",
				zeroForOne, res.TicksCrossed, p.Liquidity)
		}
		if res.AmountOut.Gt(held) {
			t.Errorf("zeroForOne=%v: paid out %s, the pool holds %s", zeroForOne, res.AmountOut, held)
		}
	}
}

// TestBurnEmptyingTicksOwesOnlyPrincipal: a burn that takes a range's
// ticks to zero liquidity deletes them, and must accrue the position's
// fees before it does. A range minted after the pool earned fees, with
// no swap since, is owed exactly its principal back; reading fee growth
// inside after the delete credited it the pool's whole fee history.
func TestBurnEmptyingTicksOwesOnlyPrincipal(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Mint("genesis", "lp", -887220, 887220, u256.MustFromDecimal("10000000000000")); err != nil {
		t.Fatal(err)
	}
	for _, zeroForOne := range []bool{true, false} {
		if _, err := p.Swap(zeroForOne, true, liq(1_000_000_000), u256.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if p.FeeGrowthGlobal0X128.IsZero() || p.FeeGrowthGlobal1X128.IsZero() {
		t.Fatal("swaps earned no fees")
	}
	if _, err := p.Mint("range", "lp", -600, 600, liq(1_000_000_000)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Burn("range", "lp", liq(1_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if p.TickInfoAt(-600) != nil || p.TickInfoAt(600) != nil {
		t.Fatal("emptied ticks still initialized")
	}
	pos := p.Position("range")
	if !pos.TokensOwed0.Eq(res.Amount0) || !pos.TokensOwed1.Eq(res.Amount1) {
		t.Errorf("owed %s/%s after the burn, want the principal %s/%s", pos.TokensOwed0, pos.TokensOwed1, res.Amount0, res.Amount1)
	}
}
