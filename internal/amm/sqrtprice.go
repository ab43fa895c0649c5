package amm

import (
	"errors"

	"ammboost/internal/u256"
)

// Errors returned by price/liquidity math.
var (
	ErrLiquidityZero    = errors.New("amm: zero liquidity")
	ErrPriceOverflow    = errors.New("amm: price computation overflow")
	ErrAmountTooLarge   = errors.New("amm: amount exceeds available reserves")
	ErrInvalidTickRange = errors.New("amm: invalid tick range")
)

// Amount0Delta returns the amount of token0 between prices sqrtA and sqrtB
// for liquidity L:
//
//	amount0 = L * 2^96 * (sqrtB - sqrtA) / (sqrtB * sqrtA)
//
// rounding up when roundUp is true (charging the user) and down otherwise
// (paying the user). Price arguments may be given in either order.
func Amount0Delta(sqrtA, sqrtB, liquidity u256.Int, roundUp bool) (u256.Int, error) {
	if sqrtA.Gt(sqrtB) {
		sqrtA, sqrtB = sqrtB, sqrtA
	}
	if sqrtA.IsZero() {
		return u256.Zero, ErrPriceOverflow
	}
	numerator1 := u256.Shl(liquidity, 96)
	numerator2 := u256.Sub(sqrtB, sqrtA)
	if roundUp {
		interim, overflow := u256.MulDivRoundingUp(numerator1, numerator2, sqrtB)
		if overflow {
			return u256.Zero, ErrPriceOverflow
		}
		return u256.DivRoundingUp(interim, sqrtA), nil
	}
	interim, overflow := u256.MulDiv(numerator1, numerator2, sqrtB)
	if overflow {
		return u256.Zero, ErrPriceOverflow
	}
	return u256.Div(interim, sqrtA), nil
}

// Amount1Delta returns the amount of token1 between prices sqrtA and sqrtB
// for liquidity L:
//
//	amount1 = L * (sqrtB - sqrtA) / 2^96
//
// with the same rounding convention as Amount0Delta.
func Amount1Delta(sqrtA, sqrtB, liquidity u256.Int, roundUp bool) (u256.Int, error) {
	if sqrtA.Gt(sqrtB) {
		sqrtA, sqrtB = sqrtB, sqrtA
	}
	diff := u256.Sub(sqrtB, sqrtA)
	var out u256.Int
	var overflow bool
	if roundUp {
		out, overflow = u256.MulDivRoundingUp(liquidity, diff, u256.Q96)
	} else {
		out, overflow = u256.MulDiv(liquidity, diff, u256.Q96)
	}
	if overflow {
		return u256.Zero, ErrPriceOverflow
	}
	return out, nil
}

// NextSqrtPriceFromAmount0 returns the price after adding (add=true) or
// removing (add=false) amount of token0 at price sqrtP with liquidity L.
// Adding token0 decreases the price. The result rounds up (in the pool's
// favor).
//
//	sqrtNext = L * 2^96 * sqrtP / (L * 2^96 ± amount * sqrtP)
func NextSqrtPriceFromAmount0(sqrtP, liquidity, amount u256.Int, add bool) (u256.Int, error) {
	if amount.IsZero() {
		return sqrtP, nil
	}
	if liquidity.IsZero() {
		return u256.Zero, ErrLiquidityZero
	}
	numerator1 := u256.Shl(liquidity, 96)
	product, mulOverflow := u256.MulOverflow(amount, sqrtP)
	if add {
		var denominator u256.Int
		if !mulOverflow {
			var carry bool
			denominator, carry = u256.AddOverflow(numerator1, product)
			if !carry {
				out, overflow := u256.MulDivRoundingUp(numerator1, sqrtP, denominator)
				if overflow {
					return u256.Zero, ErrPriceOverflow
				}
				return out, nil
			}
		}
		// Fallback: sqrtNext = ceil(L*2^96 / (L*2^96/sqrtP + amount)).
		denom := u256.Add(u256.Div(numerator1, sqrtP), amount)
		return u256.DivRoundingUp(numerator1, denom), nil
	}
	// Removing token0 increases the price; the product must not overflow
	// and the denominator must stay positive.
	if mulOverflow || !numerator1.Gt(product) {
		return u256.Zero, ErrAmountTooLarge
	}
	denominator := u256.Sub(numerator1, product)
	out, overflow := u256.MulDivRoundingUp(numerator1, sqrtP, denominator)
	if overflow {
		return u256.Zero, ErrPriceOverflow
	}
	return out, nil
}

// NextSqrtPriceFromAmount1 returns the price after adding (add=true) or
// removing (add=false) amount of token1 at price sqrtP with liquidity L.
// Adding token1 increases the price. The result rounds down (in the pool's
// favor).
//
//	sqrtNext = sqrtP ± amount * 2^96 / L
func NextSqrtPriceFromAmount1(sqrtP, liquidity, amount u256.Int, add bool) (u256.Int, error) {
	if liquidity.IsZero() {
		return u256.Zero, ErrLiquidityZero
	}
	if add {
		quotient, overflow := u256.MulDiv(amount, u256.Q96, liquidity)
		if overflow {
			return u256.Zero, ErrPriceOverflow
		}
		next, carry := u256.AddOverflow(sqrtP, quotient)
		if carry {
			return u256.Zero, ErrPriceOverflow
		}
		return next, nil
	}
	quotient, overflow := u256.MulDivRoundingUp(amount, u256.Q96, liquidity)
	if overflow || !sqrtP.Gt(quotient) {
		return u256.Zero, ErrAmountTooLarge
	}
	return u256.Sub(sqrtP, quotient), nil
}

// NextSqrtPriceFromInput returns the price after swapping amountIn of the
// input token (token0 when zeroForOne, token1 otherwise).
func NextSqrtPriceFromInput(sqrtP, liquidity, amountIn u256.Int, zeroForOne bool) (u256.Int, error) {
	if sqrtP.IsZero() {
		return u256.Zero, ErrPriceOverflow
	}
	if zeroForOne {
		return NextSqrtPriceFromAmount0(sqrtP, liquidity, amountIn, true)
	}
	return NextSqrtPriceFromAmount1(sqrtP, liquidity, amountIn, true)
}

// NextSqrtPriceFromOutput returns the price after receiving amountOut of the
// output token (token1 when zeroForOne, token0 otherwise).
func NextSqrtPriceFromOutput(sqrtP, liquidity, amountOut u256.Int, zeroForOne bool) (u256.Int, error) {
	if sqrtP.IsZero() {
		return u256.Zero, ErrPriceOverflow
	}
	if zeroForOne {
		return NextSqrtPriceFromAmount1(sqrtP, liquidity, amountOut, false)
	}
	return NextSqrtPriceFromAmount0(sqrtP, liquidity, amountOut, false)
}
