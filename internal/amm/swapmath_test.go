package amm

import (
	"testing"

	"ammboost/internal/u256"
)

func mustRatio(t *testing.T, tick int32) u256.Int {
	t.Helper()
	return SqrtRatioAtTick(tick)
}

func TestComputeSwapStepExactInReachesTarget(t *testing.T) {
	// Plenty of input: the step should stop exactly at the target price.
	cur, target := u256.Q96, mustRatio(t, -60)
	liq := u256.FromUint64(10_000_000_000)
	step, err := ComputeSwapStep(cur, target, liq, u256.FromUint64(1<<40), 3000, true)
	if err != nil {
		t.Fatal(err)
	}
	if !step.SqrtPriceNextX96.Eq(target) {
		t.Errorf("price stopped at %s, want target %s", step.SqrtPriceNextX96, target)
	}
	if step.AmountIn.IsZero() || step.AmountOut.IsZero() || step.FeeAmount.IsZero() {
		t.Errorf("amounts: in=%s out=%s fee=%s", step.AmountIn, step.AmountOut, step.FeeAmount)
	}
}

func TestComputeSwapStepExactInPartial(t *testing.T) {
	// Tiny input: the price must not reach the target, and the entire
	// remainder is consumed as input+fee.
	cur, target := u256.Q96, mustRatio(t, -600)
	liq := u256.FromUint64(10_000_000_000)
	in := u256.FromUint64(1_000)
	step, err := ComputeSwapStep(cur, target, liq, in, 3000, true)
	if err != nil {
		t.Fatal(err)
	}
	if step.SqrtPriceNextX96.Eq(target) {
		t.Error("tiny input should not reach the target")
	}
	total := u256.Add(step.AmountIn, step.FeeAmount)
	if !total.Eq(in) {
		t.Errorf("in+fee = %s, want all of %s", total, in)
	}
}

func TestComputeSwapStepExactOut(t *testing.T) {
	cur, target := u256.Q96, mustRatio(t, -600)
	liq := u256.FromUint64(10_000_000_000)
	want := u256.FromUint64(5_000)
	step, err := ComputeSwapStep(cur, target, liq, want, 3000, false)
	if err != nil {
		t.Fatal(err)
	}
	if step.AmountOut.Gt(want) {
		t.Errorf("out %s exceeds requested %s", step.AmountOut, want)
	}
	if step.AmountIn.IsZero() {
		t.Error("no input charged")
	}
}

func TestComputeSwapStepZeroFee(t *testing.T) {
	cur, target := u256.Q96, mustRatio(t, -60)
	liq := u256.FromUint64(1_000_000_000)
	step, err := ComputeSwapStep(cur, target, liq, u256.FromUint64(1<<40), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !step.FeeAmount.IsZero() {
		t.Errorf("zero-fee pool charged %s", step.FeeAmount)
	}
}

func TestComputeSwapStepDirectionOneForZero(t *testing.T) {
	cur, target := u256.Q96, mustRatio(t, 60)
	liq := u256.FromUint64(10_000_000_000)
	step, err := ComputeSwapStep(cur, target, liq, u256.FromUint64(1<<40), 3000, true)
	if err != nil {
		t.Fatal(err)
	}
	if !step.SqrtPriceNextX96.Gt(cur) {
		t.Error("one-for-zero should raise the price")
	}
}

func TestAmountDeltasRounding(t *testing.T) {
	a, b := mustRatio(t, -60), mustRatio(t, 60)
	liq := u256.FromUint64(999_999_937) // awkward prime-ish value
	up0, err := Amount0Delta(a, b, liq, true)
	if err != nil {
		t.Fatal(err)
	}
	down0, err := Amount0Delta(a, b, liq, false)
	if err != nil {
		t.Fatal(err)
	}
	if down0.Gt(up0) {
		t.Error("round-down exceeds round-up")
	}
	if u256.Sub(up0, down0).Gt(u256.One) {
		t.Error("rounding gap exceeds one unit")
	}
	up1, _ := Amount1Delta(a, b, liq, true)
	down1, _ := Amount1Delta(a, b, liq, false)
	if down1.Gt(up1) || u256.Sub(up1, down1).Gt(u256.One) {
		t.Error("amount1 rounding inconsistent")
	}
	// Argument order must not matter.
	swapped, _ := Amount0Delta(b, a, liq, true)
	if !swapped.Eq(up0) {
		t.Error("Amount0Delta should be symmetric in price order")
	}
}

func TestNextSqrtPriceRoundTrips(t *testing.T) {
	liq := u256.FromUint64(50_000_000_000)
	amount := u256.FromUint64(1_000_000)
	// Adding token0 then removing the amount0 actually absorbed must
	// come back above-or-equal to the start (rounding favors the pool).
	down, err := NextSqrtPriceFromAmount0(u256.Q96, liq, amount, true)
	if err != nil {
		t.Fatal(err)
	}
	if !down.Lt(u256.Q96) {
		t.Error("adding token0 must lower the price")
	}
	up, err := NextSqrtPriceFromAmount1(u256.Q96, liq, amount, true)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Gt(u256.Q96) {
		t.Error("adding token1 must raise the price")
	}
}

func TestNextSqrtPriceErrors(t *testing.T) {
	if _, err := NextSqrtPriceFromAmount0(u256.Q96, u256.Zero, u256.One, true); err != ErrLiquidityZero {
		t.Errorf("zero liquidity: %v", err)
	}
	// Removing more token1 than the price supports.
	if _, err := NextSqrtPriceFromAmount1(u256.FromUint64(1), u256.One, u256.Max, false); err == nil {
		t.Error("over-removal should fail")
	}
	// Zero amount is a no-op.
	p, err := NextSqrtPriceFromAmount0(u256.Q96, u256.One, u256.Zero, true)
	if err != nil || !p.Eq(u256.Q96) {
		t.Errorf("zero amount: %s, %v", p, err)
	}
}

func TestLiquidityForAmountsRegions(t *testing.T) {
	below, in, above := mustRatio(t, -600), u256.Q96, mustRatio(t, 600)
	amount := u256.FromUint64(1_000_000)
	// Price below the range: only token0 matters.
	l := LiquidityForAmounts(mustRatio(t, -1200), below, above, amount, u256.Zero)
	if l.IsZero() {
		t.Error("below range: token0 alone should fund liquidity")
	}
	// Price above the range: only token1 matters.
	l = LiquidityForAmounts(mustRatio(t, 1200), below, above, u256.Zero, amount)
	if l.IsZero() {
		t.Error("above range: token1 alone should fund liquidity")
	}
	// In range: the scarcer side limits.
	lBoth := LiquidityForAmounts(in, below, above, amount, amount)
	lScarce := LiquidityForAmounts(in, below, above, amount, u256.FromUint64(10))
	if !lScarce.Lt(lBoth) {
		t.Error("scarce token1 should limit in-range liquidity")
	}
}

func TestAmountsForLiquidityInverse(t *testing.T) {
	below, above := mustRatio(t, -600), mustRatio(t, 600)
	amount := u256.FromUint64(1_000_000)
	l := LiquidityForAmounts(u256.Q96, below, above, amount, amount)
	a0, a1, err := AmountsForLiquidity(u256.Q96, below, above, l, true)
	if err != nil {
		t.Fatal(err)
	}
	// Round-tripped amounts never exceed the inputs by more than a unit.
	if a0.Gt(u256.Add(amount, u256.One)) || a1.Gt(u256.Add(amount, u256.One)) {
		t.Errorf("amounts %s/%s exceed funding %s", a0, a1, amount)
	}
}

func BenchmarkComputeSwapStep(b *testing.B) {
	cur, target := u256.Q96, SqrtRatioAtTick(-60)
	liq := u256.FromUint64(10_000_000_000)
	in := u256.FromUint64(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSwapStep(cur, target, liq, in, 3000, true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSwapMathZeroAlloc pins the property the swap path's speed rests on:
// the u256 divisions and a whole swap step run without touching the heap,
// so a math/big round-trip creeping back in fails here.
func TestSwapMathZeroAlloc(t *testing.T) {
	x := u256.Sub(u256.Shl(u256.One, 180), u256.One)
	y := u256.Sub(u256.Shl(u256.One, 150), u256.FromUint64(7))
	d := u256.Sub(u256.Shl(u256.One, 96), u256.FromUint64(11))
	cur, target := u256.Q96, SqrtRatioAtTick(-600) // warms the tick cache
	liq := u256.FromUint64(10_000_000_000)
	delta := u256.Sub(cur, target)
	near := u256.Add(SqrtRatioAtTick(-601), u256.One)
	cases := []struct {
		name string
		fn   func()
	}{
		{"MulDiv", func() { u256.MulDiv(x, y, d) }},
		{"MulDivRoundingUp", func() { u256.MulDivRoundingUp(x, y, d) }},
		{"Div", func() { u256.Div(x, d) }},
		{"Mod", func() { u256.Mod(x, d) }},
		{"DivRoundingUp", func() { u256.DivRoundingUp(x, d) }},
		{"ComputeSwapStep/exactIn", func() {
			ComputeSwapStep(cur, target, liq, u256.FromUint64(1_000), 3000, true)
		}},
		{"ComputeSwapStep/exactInToTarget", func() {
			ComputeSwapStep(cur, target, liq, u256.FromUint64(1<<40), 3000, true)
		}},
		{"ComputeSwapStep/exactOut", func() {
			ComputeSwapStep(cur, target, liq, u256.FromUint64(1_000), 3000, false)
		}},
		{"TickAtSqrtRatio", func() { TickAtSqrtRatio(target) }},
		{"MulDiv/divQ96", func() { u256.MulDiv(liq, delta, u256.Q96) }},
		{"MulDivRoundingUp/divQ96", func() { u256.MulDivRoundingUp(liq, delta, u256.Q96) }},
		{"MulDiv/mulQ96divL", func() { u256.MulDiv(u256.FromUint64(1_000), u256.Q96, liq) }},
		{"MulDiv/mulQ128divL", func() { u256.MulDiv(u256.FromUint64(3), u256.Q128, liq) }},
		{"tickAtSqrtRatioNear", func() { tickAtSqrtRatioNear(near, -600) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}
