// Package amm implements a Uniswap-V3-style constant-function market maker
// with concentrated liquidity: Q64.96 sqrt-price arithmetic, tick-indexed
// liquidity, per-position fee-growth accounting, swaps (exact input and
// exact output), mints, burns, collects, and flash loans.
//
// The same engine backs the on-mainchain baseline AMM, the ammBoost
// sidechain executor, and TokenBank's pool-state reconstruction, satisfying
// the paper's requirement that layer-2 processing follows "the same logic
// adopted by the AMM itself".
package amm

import (
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"ammboost/internal/u256"
)

// Tick bounds, matching Uniswap V3: price = 1.0001^tick must fit the
// Q64.96 sqrt-price representation.
const (
	MinTick int32 = -887272
	MaxTick int32 = 887272
)

var (
	// MinSqrtRatio is SqrtRatioAtTick(MinTick).
	MinSqrtRatio = SqrtRatioAtTick(MinTick)
	// MaxSqrtRatio is SqrtRatioAtTick(MaxTick).
	MaxSqrtRatio = SqrtRatioAtTick(MaxTick)
)

// tickRatio is one memoized SqrtRatioAtTick result.
type tickRatio struct {
	tick  int32
	ratio u256.Int
}

// tickRatioCache memoizes SqrtRatioAtTick: experiments touch a small set of
// ticks millions of times. tickRatioSlots is a direct-mapped front for it,
// since a swap step looks ratios up several times: a hit is one atomic
// load, where a sync.Map load hashes an interface.
var (
	tickRatioCache sync.Map // int32 -> *tickRatio
	tickRatioSlots [1024]atomic.Pointer[tickRatio]
)

// SqrtRatioAtTick returns floor(sqrt(1.0001^tick) * 2^96) as a Q64.96 value.
//
// It is computed with 300-bit big.Float arithmetic (deterministic: fixed
// precision, round-to-nearest-even), rather than Uniswap's magic-constant
// product chain; both approximate the same real number to well below one
// ulp of the Q64.96 grid over the supported tick range.
func SqrtRatioAtTick(tick int32) u256.Int {
	if tick < MinTick || tick > MaxTick {
		panic("amm: tick out of range")
	}
	slot := &tickRatioSlots[uint32(tick)%uint32(len(tickRatioSlots))]
	if e := slot.Load(); e != nil && e.tick == tick {
		return e.ratio
	}
	var e *tickRatio
	if v, ok := tickRatioCache.Load(tick); ok {
		e = v.(*tickRatio)
	} else {
		e = &tickRatio{tick, computeSqrtRatio(tick)}
		tickRatioCache.Store(tick, e)
	}
	slot.Store(e)
	return e.ratio
}

const tickFloatPrec = 300

func computeSqrtRatio(tick int32) u256.Int {
	// base = 1.0001 at 300-bit precision.
	base := new(big.Float).SetPrec(tickFloatPrec).Quo(
		new(big.Float).SetPrec(tickFloatPrec).SetInt64(10001),
		new(big.Float).SetPrec(tickFloatPrec).SetInt64(10000),
	)
	neg := tick < 0
	n := uint32(tick)
	if neg {
		n = uint32(-tick)
	}
	// pow = 1.0001^|tick| by exponentiation by squaring.
	pow := new(big.Float).SetPrec(tickFloatPrec).SetInt64(1)
	sq := new(big.Float).SetPrec(tickFloatPrec).Set(base)
	for n > 0 {
		if n&1 == 1 {
			pow.Mul(pow, sq)
		}
		sq.Mul(sq, sq)
		n >>= 1
	}
	if neg {
		pow.Quo(new(big.Float).SetPrec(tickFloatPrec).SetInt64(1), pow)
	}
	pow.Sqrt(pow)
	// Scale by 2^96 and floor.
	scale := new(big.Float).SetPrec(tickFloatPrec).SetInt(new(big.Int).Lsh(big.NewInt(1), 96))
	pow.Mul(pow, scale)
	out, _ := pow.Int(nil)
	v, overflow := u256.FromBig(out)
	if overflow {
		panic("amm: sqrt ratio overflow")
	}
	return v
}

// TickAtSqrtRatio returns the largest tick t such that
// SqrtRatioAtTick(t) <= sqrtPriceX96. It panics if sqrtPriceX96 is outside
// [MinSqrtRatio, MaxSqrtRatio).
//
// A float estimate from the price's top 64 bits picks the starting tick;
// stepping against the exact ratios then lands on the answer. The ratios are
// strictly increasing, so the result is exact whatever the estimate: the
// float only decides how many steps (about two) it takes. A swap step,
// whose price moved from a known tick, uses tickAtSqrtRatioNear instead and
// runs the estimate only when that tick's neighbourhood misses.
func TickAtSqrtRatio(sqrtPriceX96 u256.Int) int32 {
	if sqrtPriceX96.Lt(MinSqrtRatio) || !sqrtPriceX96.Lt(MaxSqrtRatio) {
		panic("amm: sqrt price out of range")
	}
	t := tickEstimate(sqrtPriceX96)
	for SqrtRatioAtTick(t).Gt(sqrtPriceX96) {
		t--
	}
	for !SqrtRatioAtTick(t + 1).Gt(sqrtPriceX96) {
		t++
	}
	return t
}

// tickAtSqrtRatioNear is TickAtSqrtRatio for a price that moved from tick
// hint: it first tries hint and the neighbour on the price's side of it,
// whose cached ratios bracket the price exactly when it stayed within one
// tick of hint, and runs the float estimate only when they miss. The
// bracket test is exact, so the answer is the same unique tick.
func tickAtSqrtRatioNear(sqrtPriceX96 u256.Int, hint int32) int32 {
	if hint > MinTick && hint < MaxTick-1 {
		if SqrtRatioAtTick(hint).Gt(sqrtPriceX96) {
			if !SqrtRatioAtTick(hint - 1).Gt(sqrtPriceX96) {
				return hint - 1
			}
		} else if SqrtRatioAtTick(hint + 1).Gt(sqrtPriceX96) {
			return hint
		} else if SqrtRatioAtTick(hint + 2).Gt(sqrtPriceX96) {
			return hint + 1
		}
	}
	return TickAtSqrtRatio(sqrtPriceX96)
}

// log2TickBase is log2(1.0001): the price doubles every 1/log2TickBase
// ticks, the sqrt price every 2/log2TickBase.
var log2TickBase = math.Log2(1.0001)

// tickEstimate returns floor(2·log2(p/2^96) / log2(1.0001)) evaluated in
// float64 on p's top 64 bits, clamped to [MinTick, MaxTick-1].
func tickEstimate(p u256.Int) int32 {
	shift := max(p.BitLen()-64, 0)
	top, _ := u256.Shr(p, uint(shift)).Uint64()
	log2p := math.Log2(float64(top)) + float64(shift) - 96
	t := math.Floor(2 * log2p / log2TickBase)
	return int32(min(max(t, float64(MinTick)), float64(MaxTick-1)))
}
