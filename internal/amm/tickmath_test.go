package amm

import (
	"math/rand"
	"testing"

	"ammboost/internal/u256"
)

func TestSqrtRatioAtTickZero(t *testing.T) {
	// 1.0001^0 = 1, so the ratio is exactly 2^96.
	if got := SqrtRatioAtTick(0); !got.Eq(u256.Q96) {
		t.Errorf("SqrtRatioAtTick(0) = %s, want 2^96", got)
	}
}

func TestSqrtRatioKnownValues(t *testing.T) {
	// Uniswap V3's published extremes. Our 300-bit computation should land
	// within 1 part in 10^10 of the magic-constant chain (which itself
	// carries ~2^-60 relative error).
	cases := []struct {
		tick int32
		want u256.Int
	}{
		{MinTick, u256.MustFromDecimal("4295128739")},
		{MaxTick, u256.MustFromDecimal("1461446703485210103287273052203988822378723970342")},
	}
	for _, c := range cases {
		got := SqrtRatioAtTick(c.tick)
		// |got - want| / want < 1e-10
		diff := absDiff(got, c.want)
		bound := u256.Div(c.want, u256.FromUint64(10_000_000_000))
		if diff.Gt(bound) && diff.Gt(u256.One) {
			t.Errorf("SqrtRatioAtTick(%d) = %s, want ~%s (diff %s)", c.tick, got, c.want, diff)
		}
	}
}

func TestSqrtRatioMonotonic(t *testing.T) {
	prev := SqrtRatioAtTick(MinTick)
	// Stride through the range; exhaustive would be slow.
	for tick := MinTick + 1009; tick <= MaxTick; tick += 1009 {
		cur := SqrtRatioAtTick(tick)
		if !cur.Gt(prev) {
			t.Fatalf("SqrtRatioAtTick not strictly increasing at %d", tick)
		}
		prev = cur
	}
}

func TestSqrtRatioReciprocal(t *testing.T) {
	// sqrt(1.0001^t) * sqrt(1.0001^-t) = 1, so ratio(t)*ratio(-t) ≈ 2^192.
	two192 := u256.Shl(u256.One, 192)
	for _, tick := range []int32{1, 100, 5000, 100000, 800000} {
		a := SqrtRatioAtTick(tick)
		b := SqrtRatioAtTick(-tick)
		prod, _ := u256.MulDiv(a, b, u256.One)
		diff := absDiff(prod, two192)
		// Error bound: one ulp of each operand → |diff| <= a + b.
		if diff.Gt(u256.Add(a, b)) {
			t.Errorf("ratio(%d)*ratio(-%d) = %s, too far from 2^192", tick, tick, prod)
		}
	}
}

func TestTickAtSqrtRatioRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		tick := int32(r.Intn(int(MaxTick-MinTick))) + MinTick
		ratio := SqrtRatioAtTick(tick)
		if got := TickAtSqrtRatio(ratio); got != tick {
			t.Fatalf("TickAtSqrtRatio(SqrtRatioAtTick(%d)) = %d", tick, got)
		}
		// One below the ratio must resolve to the previous tick.
		if tick > MinTick {
			if got := TickAtSqrtRatio(u256.Sub(ratio, u256.One)); got != tick-1 {
				t.Fatalf("TickAtSqrtRatio(ratio(%d)-1) = %d, want %d", tick, got, tick-1)
			}
		}
	}
}

func TestTickAtSqrtRatioBounds(t *testing.T) {
	if got := TickAtSqrtRatio(MinSqrtRatio); got != MinTick {
		t.Errorf("TickAtSqrtRatio(min) = %d", got)
	}
	if got := TickAtSqrtRatio(u256.Sub(MaxSqrtRatio, u256.One)); got != MaxTick-1 {
		t.Errorf("TickAtSqrtRatio(max-1) = %d, want %d", got, MaxTick-1)
	}
	assertPanics(t, func() { TickAtSqrtRatio(MaxSqrtRatio) })
	assertPanics(t, func() { TickAtSqrtRatio(u256.Sub(MinSqrtRatio, u256.One)) })
	assertPanics(t, func() { SqrtRatioAtTick(MaxTick + 1) })
	assertPanics(t, func() { SqrtRatioAtTick(MinTick - 1) })
}

// bisectTick is the binary search TickAtSqrtRatio used to run: the
// reference its estimate-then-verify walk must agree with everywhere.
func bisectTick(sqrtPriceX96 u256.Int) int32 {
	lo, hi := MinTick, MaxTick
	// Invariant: SqrtRatioAtTick(lo) <= sqrtPriceX96 < SqrtRatioAtTick(hi+1).
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if SqrtRatioAtTick(mid).Cmp(sqrtPriceX96) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func TestTickAtSqrtRatioMatchesBisection(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	prices := []u256.Int{MinSqrtRatio, u256.Sub(MaxSqrtRatio, u256.One)}
	for i := 0; i < 300; i++ {
		ratio := SqrtRatioAtTick(int32(r.Intn(int(MaxTick-MinTick))) + MinTick)
		prices = append(prices, u256.Sub(ratio, u256.One), ratio, u256.Add(ratio, u256.One))
	}
	// Random in-range prices, uniform in bit length so every octave of
	// the tick range is drawn.
	span := u256.Sub(MaxSqrtRatio, MinSqrtRatio)
	for i := 0; i < 300; i++ {
		var b [32]byte
		r.Read(b[:])
		p := u256.Shr(u256.FromBytes32(b), uint(256-r.Intn(span.BitLen()+1)))
		prices = append(prices, u256.Add(MinSqrtRatio, u256.Mod(p, span)))
	}
	for _, p := range prices {
		if p.Lt(MinSqrtRatio) || !p.Lt(MaxSqrtRatio) {
			continue // a drawn ratio's neighbour left the range
		}
		if got, want := TickAtSqrtRatio(p), bisectTick(p); got != want {
			t.Fatalf("TickAtSqrtRatio(%s) = %d, bisection %d", p, got, want)
		}
	}
}

// TestTickAtSqrtRatioNearMatchesBisection checks the swap's hinted lookup
// against bisection: prices on, just below and just above a tick's ratio,
// each with hints at, beside and far from the answer. A price exactly on
// SqrtRatioAtTick(t) with hint t-1 is where a downward crossing leaves a
// pool: the answer is still t.
func TestTickAtSqrtRatioNearMatchesBisection(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ticks := []int32{MinTick, MinTick + 1, MinTick + 2, -1, 0, 1, MaxTick - 2, MaxTick - 1}
	for i := 0; i < 100; i++ {
		ticks = append(ticks, int32(r.Intn(int(MaxTick-MinTick)))+MinTick)
	}
	for _, tick := range ticks {
		ratio := SqrtRatioAtTick(tick)
		for _, p := range []u256.Int{u256.Sub(ratio, u256.One), ratio, u256.Add(ratio, u256.One)} {
			if p.Lt(MinSqrtRatio) || !p.Lt(MaxSqrtRatio) {
				continue
			}
			want := bisectTick(p)
			for _, hint := range []int32{want, want - 1, want + 1, want - 2, want + 2, tick - 1, want - 5000, want + 5000, MinTick, MaxTick} {
				if got := tickAtSqrtRatioNear(p, hint); got != want {
					t.Fatalf("tickAtSqrtRatioNear(%s, hint %d) = %d, bisection %d", p, hint, got, want)
				}
			}
		}
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func BenchmarkSqrtRatioAtTickCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = computeSqrtRatio(int32(i%1000) * 60)
	}
}

func BenchmarkSqrtRatioAtTickCached(b *testing.B) {
	SqrtRatioAtTick(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SqrtRatioAtTick(60)
	}
}

// BenchmarkTickAtSqrtRatio times the float-estimate lookup and the swap's
// hinted one, for a price inside the hint's tick.
func BenchmarkTickAtSqrtRatio(b *testing.B) {
	p := u256.Add(SqrtRatioAtTick(-23_028), u256.FromUint64(12_345))
	b.Run("estimate", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tickSink = TickAtSqrtRatio(p)
		}
	})
	b.Run("hinted", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tickSink = tickAtSqrtRatioNear(p, -23_028)
		}
	})
}

// tickSink keeps benchmarked ticks live.
var tickSink int32
