package engine

import (
	"fmt"
	"testing"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
)

// buildBigPool creates a pool with many positions and initialized ticks,
// the state-size regime where incremental commitments matter.
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

// BenchmarkStateRoot compares a full state re-hash against the
// incremental commitment for the same small mutation (one position poke)
// on a pool with 512 positions: the full path re-serializes and re-hashes
// every chunk, the incremental path re-hashes one leaf and its tree path.
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
	b.Run("incremental", func(b *testing.B) {
		p := buildBigPool(b, positions)
		c := newPoolCommit()
		c.Root("bench-pool", p) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Burn("pos-00007", "lp", u256.Zero); err != nil {
				b.Fatal(err)
			}
			_ = c.Root("bench-pool", p)
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

// epochCloseBench drives full epoch cycles on a 256-pool engine where
// ~10% of pools see traffic, the Zipf-skewed regime the incremental
// subsystem targets. Setup seeds every pool with positions and tick
// state; each iteration is one epoch: BeginEpoch (snapshot), one round
// of swaps on the active pools, EndEpoch (summaries + roots + fold).
func epochCloseBench(b *testing.B, full bool) {
	epochCloseBenchCfg(b, Config{NumPools: 256, NumShards: 8, FullRecompute: full})
}

// epochCloseState is a primed 256-pool deployment plus the fixed
// per-epoch inputs, so one close() call is exactly one measured epoch
// cycle — shared by the per-variant benchmarks and the paired
// trace-overhead measurement.
type epochCloseState struct {
	eng   *Engine
	deps  map[string]map[string]summary.Deposit
	batch []*summary.Tx
	epoch uint64
}

func (s *epochCloseState) close(b *testing.B) {
	s.epoch++
	if err := s.eng.BeginEpoch(s.epoch, s.deps); err != nil {
		b.Fatal(err)
	}
	if _, err := s.eng.ExecuteRound(s.batch, 1); err != nil {
		b.Fatal(err)
	}
	if _, err := s.eng.EndEpoch(nil); err != nil {
		b.Fatal(err)
	}
}

func newEpochCloseState(b *testing.B, cfg Config) *epochCloseState {
	const (
		activePools = 25 // <=10% of pools see traffic per epoch
		seedPos     = 24
		swapsPerEp  = 100
	)
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ids := eng.PoolIDs()
	for pi, id := range ids {
		p := eng.Pool(id)
		for j := 0; j < seedPos; j++ {
			lower := -60 * int32((pi+j*7)%40+1)
			upper := 60 * int32((pi+j*5)%40+1)
			if _, err := p.Mint(fmt.Sprintf("seed-%04d-%02d", pi, j), "lp", lower, upper, u256.FromUint64(2_000_000)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Prime the commitment caches (cold-start build outside the loop).
	eng.StateRoots()

	active := ids[:activePools]
	dep := u256.FromUint64(1 << 40)
	deps := UniformDeposits(active, []string{"trader"}, dep, dep)
	batch := make([]*summary.Tx, swapsPerEp)
	for k := range batch {
		batch[k] = &summary.Tx{
			ID: fmt.Sprintf("swap-%03d", k), Kind: gasmodel.KindSwap, User: "trader",
			PoolID: active[k%activePools], ZeroForOne: k%2 == 0, ExactIn: true,
			Amount: u256.FromUint64(10_000),
		}
	}

	return &epochCloseState{eng: eng, deps: deps, batch: batch}
}

func epochCloseBenchCfg(b *testing.B, cfg Config) {
	s := newEpochCloseState(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.close(b)
	}
}

// BenchmarkEpochClose is the PR's headline number: full epoch cycles on
// a 256-pool deployment with ~10% pool activity, reference full-rehash
// mode vs the incremental commitment subsystem. The "traced" variant is
// the incremental path with the lifecycle tracer attached; the paired
// "trace-overhead" sub-benchmark is what bench.sh records as
// trace_overhead_pct (gated < 3% by bench_check.sh).
func BenchmarkEpochClose(b *testing.B) {
	b.Run("full", func(b *testing.B) { epochCloseBench(b, true) })
	b.Run("incremental", func(b *testing.B) { epochCloseBench(b, false) })
	b.Run("traced", func(b *testing.B) {
		epochCloseBenchCfg(b, Config{NumPools: 256, NumShards: 8, Tracer: trace.New(8)})
	})
	// The gated ratio comes from this PAIRED measurement: each iteration
	// closes one epoch untraced and one traced back to back, so host
	// load and CPU-speed swings hit both sides equally. Comparing the
	// separate incremental/traced sub-benchmarks instead measures
	// whatever the machine was doing between their windows — observed
	// anywhere from -9% to +23% for identical code on a busy host.
	b.Run("trace-overhead", func(b *testing.B) {
		plain := newEpochCloseState(b, Config{NumPools: 256, NumShards: 8})
		traced := newEpochCloseState(b, Config{NumPools: 256, NumShards: 8, Tracer: trace.New(8)})
		var plainNS, tracedNS time.Duration
		b.ResetTimer()
		// Alternate which side runs first so cache-warmth and GC-cycle
		// placement cancel instead of systematically taxing one side.
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				t0 := time.Now()
				plain.close(b)
				t1 := time.Now()
				traced.close(b)
				plainNS += t1.Sub(t0)
				tracedNS += time.Since(t1)
			} else {
				t0 := time.Now()
				traced.close(b)
				t1 := time.Now()
				plain.close(b)
				tracedNS += t1.Sub(t0)
				plainNS += time.Since(t1)
			}
		}
		b.StopTimer()
		if plainNS > 0 {
			b.ReportMetric(100*float64(tracedNS-plainNS)/float64(plainNS), "overhead_pct")
		}
	})
}
