package engine

import (
	"fmt"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/u256"
)

// buildBigPool creates a pool with many positions and initialized ticks,
// the state-size regime where a pool's whole re-hash is costliest.
func buildBigPool(tb testing.TB, positions int) *amm.Pool {
	tb.Helper()
	p, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Mint("genesis", "lp", -887220, 887220, u256.MustFromDecimal("10000000000000")); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < positions; i++ {
		lower := -60 * int32(i%53+1)
		upper := 60 * int32(i%47+1)
		if _, err := p.Mint(fmt.Sprintf("pos-%05d", i), "lp", lower, upper, u256.FromUint64(1_000_000)); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkStateRoot times the commit of a touched pool: one position
// poke on a pool with 512 positions, then a whole re-hash of every chunk,
// which is what SealedEpoch.Finalize computes for each pool the epoch
// touched.
func BenchmarkStateRoot(b *testing.B) {
	const positions = 512
	b.Run("full", func(b *testing.B) {
		p := buildBigPool(b, positions)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Burn("pos-00007", "lp", u256.Zero); err != nil {
				b.Fatal(err)
			}
			_ = StateRoot("bench-pool", p)
		}
	})
}

// BenchmarkFoldRoots folds 256 pool roots through the fixed-width merkle
// path (merkle's TestNew32MatchesNew pins it to the generic tree).
func BenchmarkFoldRoots(b *testing.B) {
	roots := make([][32]byte, 256)
	for i := range roots {
		roots[i][0] = byte(i)
		roots[i][1] = byte(i >> 8)
	}
	b.Run("fixed32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = FoldRoots(roots)
		}
	})
}
