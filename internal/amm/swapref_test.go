package amm

import (
	"errors"
	"math/big"
	"testing"

	"ammboost/internal/u256"
)

// A math/big transcription of Uniswap V3's SqrtPriceMath and SwapMath, the
// oracle FuzzSwapStep holds the u256 swap math to. It rounds in the same
// directions. Where Solidity 0.7 wraps (shifts, unchecked arithmetic), it
// reduces mod 2^256; where Solidity reverts, it returns the error the Go
// code returns in its place, checked in the Go code's order. Two
// departures follow the Go code on purpose: results keep 256 bits instead
// of Uniswap's uint160 casts, and the sum in the token0 add fallback wraps
// instead of reverting.

var (
	bigQ96      = new(big.Int).Lsh(big.NewInt(1), 96)
	big2To256   = new(big.Int).Lsh(big.NewInt(1), 256)
	bigFeeDenom = big.NewInt(feeDenominator)
)

// fits reports whether x is below 2^256.
func fits(x *big.Int) bool { return x.Cmp(big2To256) < 0 }

// wrap256 returns x mod 2^256.
func wrap256(x *big.Int) *big.Int { return new(big.Int).Mod(x, big2To256) }

// refMulDiv is FullMath.mulDiv (or mulDivRoundingUp when up): it reverts,
// here ErrPriceOverflow, for d == 0 or a quotient of 2^256 or more.
func refMulDiv(x, y, d *big.Int, up bool) (*big.Int, error) {
	if d.Sign() == 0 {
		return nil, ErrPriceOverflow
	}
	q, r := new(big.Int).QuoRem(new(big.Int).Mul(x, y), d, new(big.Int))
	if up && r.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	if !fits(q) {
		return nil, ErrPriceOverflow
	}
	return q, nil
}

// refDiv is x/d (or UnsafeMath.divRoundingUp when up): 0 for d == 0, as
// the EVM divides.
func refDiv(x, d *big.Int, up bool) *big.Int {
	if d.Sign() == 0 {
		return new(big.Int)
	}
	q, r := new(big.Int).QuoRem(x, d, new(big.Int))
	if up && r.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q
}

// refAmount0Delta is SqrtPriceMath.getAmount0Delta.
func refAmount0Delta(a, b, liq *big.Int, up bool) (*big.Int, error) {
	if a.Cmp(b) > 0 {
		a, b = b, a
	}
	if a.Sign() == 0 {
		return nil, ErrPriceOverflow
	}
	n1 := wrap256(new(big.Int).Lsh(liq, 96))
	interim, err := refMulDiv(n1, new(big.Int).Sub(b, a), b, up)
	if err != nil {
		return nil, err
	}
	return refDiv(interim, a, up), nil
}

// refAmount1Delta is SqrtPriceMath.getAmount1Delta.
func refAmount1Delta(a, b, liq *big.Int, up bool) (*big.Int, error) {
	if a.Cmp(b) > 0 {
		a, b = b, a
	}
	return refMulDiv(liq, new(big.Int).Sub(b, a), bigQ96, up)
}

// refNextFromAmount0 is SqrtPriceMath.getNextSqrtPriceFromAmount0RoundingUp.
func refNextFromAmount0(p, liq, amount *big.Int, add bool) (*big.Int, error) {
	if amount.Sign() == 0 {
		return p, nil
	}
	if liq.Sign() == 0 {
		return nil, ErrLiquidityZero
	}
	n1 := wrap256(new(big.Int).Lsh(liq, 96))
	product := new(big.Int).Mul(amount, p)
	if add {
		if fits(product) {
			if denom := new(big.Int).Add(n1, product); fits(denom) {
				return refMulDiv(n1, p, denom, true)
			}
		}
		denom := wrap256(new(big.Int).Add(refDiv(n1, p, false), amount))
		return refDiv(n1, denom, true), nil
	}
	if !fits(product) || n1.Cmp(product) <= 0 {
		return nil, ErrAmountTooLarge
	}
	return refMulDiv(n1, p, new(big.Int).Sub(n1, product), true)
}

// refNextFromAmount1 is SqrtPriceMath.getNextSqrtPriceFromAmount1RoundingDown.
func refNextFromAmount1(p, liq, amount *big.Int, add bool) (*big.Int, error) {
	if liq.Sign() == 0 {
		return nil, ErrLiquidityZero
	}
	if add {
		q, err := refMulDiv(amount, bigQ96, liq, false)
		if err != nil {
			return nil, err
		}
		next := new(big.Int).Add(p, q)
		if !fits(next) {
			return nil, ErrPriceOverflow
		}
		return next, nil
	}
	q, err := refMulDiv(amount, bigQ96, liq, true)
	if err != nil || p.Cmp(q) <= 0 {
		return nil, ErrAmountTooLarge
	}
	return new(big.Int).Sub(p, q), nil
}

// refNextFromInput is SqrtPriceMath.getNextSqrtPriceFromInput.
func refNextFromInput(p, liq, amountIn *big.Int, zeroForOne bool) (*big.Int, error) {
	if p.Sign() == 0 {
		return nil, ErrPriceOverflow
	}
	if zeroForOne {
		return refNextFromAmount0(p, liq, amountIn, true)
	}
	return refNextFromAmount1(p, liq, amountIn, true)
}

// refNextFromOutput is SqrtPriceMath.getNextSqrtPriceFromOutput.
func refNextFromOutput(p, liq, amountOut *big.Int, zeroForOne bool) (*big.Int, error) {
	if p.Sign() == 0 {
		return nil, ErrPriceOverflow
	}
	if zeroForOne {
		return refNextFromAmount1(p, liq, amountOut, false)
	}
	return refNextFromAmount0(p, liq, amountOut, false)
}

// refSwapStep is SwapMath.computeSwapStep's result.
type refSwapStep struct {
	next, in, out, fee *big.Int
}

// refComputeSwapStep is SwapMath.computeSwapStep.
func refComputeSwapStep(cur, target, liq, remaining *big.Int, feePips uint32, exactIn bool) (refSwapStep, error) {
	var s refSwapStep
	var err error
	zeroForOne := cur.Cmp(target) >= 0
	feeFactor := big.NewInt(feeDenominator - int64(feePips))
	if exactIn {
		lessFee, err := refMulDiv(remaining, feeFactor, bigFeeDenom, false)
		if err != nil {
			return s, err
		}
		if zeroForOne {
			s.in, err = refAmount0Delta(target, cur, liq, true)
		} else {
			s.in, err = refAmount1Delta(cur, target, liq, true)
		}
		if err != nil {
			return s, err
		}
		if lessFee.Cmp(s.in) >= 0 {
			s.next = target
		} else if s.next, err = refNextFromInput(cur, liq, lessFee, zeroForOne); err != nil {
			return s, err
		}
	} else {
		if zeroForOne {
			s.out, err = refAmount1Delta(target, cur, liq, false)
		} else {
			s.out, err = refAmount0Delta(cur, target, liq, false)
		}
		if err != nil {
			return s, err
		}
		if remaining.Cmp(s.out) >= 0 {
			s.next = target
		} else if s.next, err = refNextFromOutput(cur, liq, remaining, zeroForOne); err != nil {
			return s, err
		}
	}
	max := s.next.Cmp(target) == 0
	lo, hi := cur, s.next // the traversed interval, low price first
	if zeroForOne {
		lo, hi = s.next, cur
	}
	if !(max && exactIn) {
		if zeroForOne {
			s.in, err = refAmount0Delta(lo, hi, liq, true)
		} else {
			s.in, err = refAmount1Delta(lo, hi, liq, true)
		}
		if err != nil {
			return s, err
		}
	}
	if !(max && !exactIn) {
		if zeroForOne {
			s.out, err = refAmount1Delta(lo, hi, liq, false)
		} else {
			s.out, err = refAmount0Delta(lo, hi, liq, false)
		}
		if err != nil {
			return s, err
		}
	}
	if !exactIn && s.out.Cmp(remaining) > 0 {
		s.out = remaining
	}
	if exactIn && !max {
		s.fee = wrap256(new(big.Int).Sub(remaining, s.in))
	} else if s.fee, err = refMulDiv(s.in, big.NewInt(int64(feePips)), feeFactor, true); err != nil {
		return s, err
	}
	return s, nil
}

// b32 is x's 32-byte big-endian encoding as a fuzz argument.
func b32(x u256.Int) []byte {
	b := x.Bytes32()
	return b[:]
}

// fuzzU256 decodes a fuzz argument as a big-endian value, keeping its last
// 32 bytes.
func fuzzU256(b []byte) u256.Int {
	var buf [32]byte
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	copy(buf[32-len(b):], b)
	return u256.FromBytes32(buf)
}

// FuzzSwapStep holds ComputeSwapStep, Amount0Delta/Amount1Delta and
// NextSqrtPriceFromInput/FromOutput to the math/big transcription above
// for byte-chosen prices, liquidity, amount, fee and flags: the same values
// and the same error. FuzzMulDiv pins each u256 kernel; this pins the way
// the swap math composes them. flags bit 0 is the direction of the price
// functions, bit 1 exactIn, bit 2 the delta functions' rounding.
func FuzzSwapStep(f *testing.F) {
	genesis := u256.FromUint64(10_000_000_000_000)        // genesis liquidity, one limb
	deep := u256.MustFromDecimal("100000000000000000000") // two limbs
	down, up := SqrtRatioAtTick(-60), SqrtRatioAtTick(60)
	seeds := []struct {
		cur, target, liq, amount u256.Int
		fee                      uint32
		flags                    uint8
	}{
		// The swap-hot shapes: genesis pool, 0.30% fee, sqrt prices near
		// 2^96, amounts that stay within a tick and ones that reach it.
		{u256.Q96, down, genesis, u256.FromUint64(1_000_000), 3000, 0b011},
		{u256.Q96, up, genesis, u256.FromUint64(1_000_000), 3000, 0b010},
		{u256.Q96, down, genesis, u256.FromUint64(1 << 50), 3000, 0b111},
		{u256.Q96, up, deep, u256.FromUint64(1_000_000), 3000, 0b100},
		{u256.Q96, down, deep, u256.FromUint64(5_000), 3000, 0b001},
		{u256.Add(down, u256.FromUint64(12_345)), down, genesis, u256.FromUint64(999), 500, 0b011},
		// Zero fee, full fee, zero liquidity, zero amount.
		{u256.Q96, up, genesis, u256.FromUint64(1 << 40), 0, 0b010},
		{u256.Q96, down, genesis, u256.FromUint64(1 << 40), feeDenominator, 0b011},
		{u256.Q96, down, u256.Zero, u256.FromUint64(1_000), 3000, 0b011},
		{u256.Q96, up, genesis, u256.Zero, 3000, 0b000},
		// Extremes of the price range and of uint128 liquidity.
		{u256.Add(MinSqrtRatio, u256.One), MinSqrtRatio, u256.Sub(u256.Shl(u256.One, 128), u256.One), u256.Max, 3000, 0b011},
		{u256.Sub(MaxSqrtRatio, u256.One), MaxSqrtRatio, u256.One, u256.Max, 3000, 0b110},
		{u256.Sub(MaxSqrtRatio, u256.One), MinSqrtRatio, u256.Shl(u256.One, 127), u256.Shl(u256.One, 200), 100, 0b001},
	}
	for _, s := range seeds {
		f.Add(b32(s.cur), b32(s.target), b32(s.liq), b32(s.amount), s.fee, s.flags)
	}
	f.Fuzz(func(t *testing.T, curB, targetB, liqB, amountB []byte, fee uint32, flags uint8) {
		cur, target, liq, amount := fuzzU256(curB), fuzzU256(targetB), fuzzU256(liqB), fuzzU256(amountB)
		fee %= feeDenominator + 1
		zeroForOne, exactIn, roundUp := flags&1 != 0, flags&2 != 0, flags&4 != 0
		bc, bt, bl, ba := cur.ToBig(), target.ToBig(), liq.ToBig(), amount.ToBig()

		check := func(name string, got u256.Int, gotErr error, want *big.Int, wantErr error) {
			t.Helper()
			if gotErr != nil || wantErr != nil {
				if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
					t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
				}
				return
			}
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("%s = %s, reference %s", name, got, want)
			}
		}

		got, err := Amount0Delta(cur, target, liq, roundUp)
		want, wantErr := refAmount0Delta(bc, bt, bl, roundUp)
		check("Amount0Delta", got, err, want, wantErr)
		got, err = Amount1Delta(cur, target, liq, roundUp)
		want, wantErr = refAmount1Delta(bc, bt, bl, roundUp)
		check("Amount1Delta", got, err, want, wantErr)
		got, err = NextSqrtPriceFromInput(cur, liq, amount, zeroForOne)
		want, wantErr = refNextFromInput(bc, bl, ba, zeroForOne)
		check("NextSqrtPriceFromInput", got, err, want, wantErr)
		got, err = NextSqrtPriceFromOutput(cur, liq, amount, zeroForOne)
		want, wantErr = refNextFromOutput(bc, bl, ba, zeroForOne)
		check("NextSqrtPriceFromOutput", got, err, want, wantErr)

		step, err := ComputeSwapStep(cur, target, liq, amount, fee, exactIn)
		ref, refErr := refComputeSwapStep(bc, bt, bl, ba, fee, exactIn)
		if err != nil || refErr != nil {
			check("ComputeSwapStep", u256.Zero, err, nil, refErr)
			return
		}
		check("ComputeSwapStep.SqrtPriceNextX96", step.SqrtPriceNextX96, nil, ref.next, nil)
		check("ComputeSwapStep.AmountIn", step.AmountIn, nil, ref.in, nil)
		check("ComputeSwapStep.AmountOut", step.AmountOut, nil, ref.out, nil)
		check("ComputeSwapStep.FeeAmount", step.FeeAmount, nil, ref.fee, nil)
	})
}
