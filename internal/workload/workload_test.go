package workload

import (
	"testing"

	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
)

func TestRho(t *testing.T) {
	cases := []struct {
		vd    int
		round float64
		want  int
	}{
		{50_000, 7, 5},        // ceil(4.05)
		{500_000, 7, 41},      // ceil(40.5)
		{25_000_000, 7, 2026}, // ceil(2025.5)
		{1, 7, 1},             // floor of 1
	}
	for _, c := range cases {
		if got := Rho(c.vd, c.round); got != c.want {
			t.Errorf("Rho(%d, %.0f) = %d, want %d", c.vd, c.round, got, c.want)
		}
	}
}

func TestDistributionMatchesConfig(t *testing.T) {
	g := New(DefaultConfig(1))
	const n = 200_000
	counts := map[gasmodel.TxKind]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	check := func(kind gasmodel.TxKind, wantPct, tolerance float64) {
		got := 100 * float64(counts[kind]) / n
		if got < wantPct-tolerance || got > wantPct+tolerance {
			t.Errorf("%s share = %.2f%%, want %.2f%%±%.1f", kind, got, wantPct, tolerance)
		}
	}
	check(gasmodel.KindSwap, 93.19, 1.0)
	check(gasmodel.KindMint, 2.14, 0.5)
	// Burns/collects degrade to swaps before any position exists, so they
	// run slightly under their nominal share.
	if counts[gasmodel.KindBurn] == 0 || counts[gasmodel.KindCollect] == 0 {
		t.Error("burns/collects never generated")
	}
}

func TestDeterministicStream(t *testing.T) {
	a, b := New(DefaultConfig(7)), New(DefaultConfig(7))
	for i := 0; i < 5000; i++ {
		ta, tb := a.Next(), b.Next()
		if ta.ID != tb.ID || ta.Kind != tb.Kind || ta.User != tb.User || !ta.Amount.Eq(tb.Amount) {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestBurnsReferenceLivePositions(t *testing.T) {
	g := New(DefaultConfig(3))
	seenPos := map[string]bool{}
	for i := 0; i < 50_000; i++ {
		tx := g.Next()
		switch tx.Kind {
		case gasmodel.KindMint:
			if tx.PosID == "" {
				// New position: remember the derived ID.
				seenPos[summary.DerivePositionID(tx.ID, tx.User)] = true
			} else if !seenPos[tx.PosID] {
				t.Fatalf("mint top-up references unknown position %s", tx.PosID)
			}
		case gasmodel.KindBurn, gasmodel.KindCollect:
			if tx.PosID == "" || !seenPos[tx.PosID] {
				t.Fatalf("%s references unknown position %q", tx.Kind, tx.PosID)
			}
		}
	}
}

func TestPositionCapHolds(t *testing.T) {
	g := New(DefaultConfig(4))
	for i := 0; i < 50_000; i++ {
		g.Next()
	}
	for lp, ps := range g.positions {
		if len(ps) > maxPositionsPerLP {
			t.Errorf("%s has %d positions, cap %d", lp, len(ps), maxPositionsPerLP)
		}
	}
}

// TestHandBuiltConfigGenerates: a Config not built by DefaultConfig still
// generates every transaction kind — the traffic shape is constant, so no
// zero-valued field can reach the generator.
func TestHandBuiltConfigGenerates(t *testing.T) {
	g := New(Config{Seed: 1, Distribution: UniswapDistribution})
	kinds := map[gasmodel.TxKind]bool{}
	for i := 0; i < 20_000; i++ {
		kinds[g.Next().Kind] = true
	}
	if len(kinds) != 4 {
		t.Errorf("generated kinds %v, want all four", kinds)
	}
	if len(g.LPs()) != len(g.Users())/4 {
		t.Errorf("%d LPs among %d users, want a quarter", len(g.LPs()), len(g.Users()))
	}
}

func TestMintRangesAligned(t *testing.T) {
	g := New(DefaultConfig(5))
	for i := 0; i < 20_000; i++ {
		tx := g.Next()
		if tx.Kind != gasmodel.KindMint {
			continue
		}
		if tx.TickLower >= tx.TickUpper {
			t.Fatalf("inverted range %d..%d", tx.TickLower, tx.TickUpper)
		}
		if tx.TickLower%60 != 0 || tx.TickUpper%60 != 0 {
			t.Fatalf("unaligned ticks %d..%d", tx.TickLower, tx.TickUpper)
		}
	}
}

func TestCustomDistribution(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.Distribution = Distribution{SwapPct: 60, MintPct: 20, BurnPct: 10, CollectPct: 10}
	g := New(cfg)
	counts := map[gasmodel.TxKind]int{}
	const n = 50_000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	mintPct := 100 * float64(counts[gasmodel.KindMint]) / n
	if mintPct < 18 || mintPct > 22 {
		t.Errorf("mint share = %.1f%%, want ~20%%", mintPct)
	}
}
