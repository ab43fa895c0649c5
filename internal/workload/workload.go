// Package workload generates synthetic AMM traffic following the paper's
// measured Uniswap V3 distribution for 2023 (Appendix D, Table VII):
// 93.19% swaps, 2.14% mints, 2.38% burns, 2.27% collects, with per-type
// transaction sizes and a constant arrival rate ρ = ⌈V_D·bt/86400⌉
// transactions per sidechain round for a configured daily volume V_D.
package workload

import (
	"fmt"
	"math/rand"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// Distribution is a traffic mix in percent. The four shares should sum to
// 100 (validated by Normalize).
type Distribution struct {
	SwapPct    float64
	MintPct    float64
	BurnPct    float64
	CollectPct float64
}

// UniswapDistribution is the 2023 Uniswap V3 traffic mix (Table VII).
var UniswapDistribution = Distribution{SwapPct: 93.19, MintPct: 2.14, BurnPct: 2.38, CollectPct: 2.27}

// Sum returns the total percentage mass.
func (d Distribution) Sum() float64 {
	return d.SwapPct + d.MintPct + d.BurnPct + d.CollectPct
}

// Rho returns the per-round arrival count for a daily volume and round
// duration in seconds: ρ = ⌈V_D·bt/86400⌉ (Section VI-A).
func Rho(dailyVolume int, roundSeconds float64) int {
	rho := float64(dailyVolume) * roundSeconds / 86400.0
	n := int(rho)
	if float64(n) < rho {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Config parameterizes the generator.
type Config struct {
	Seed         int64
	Distribution Distribution
	// IDPrefix namespaces transaction IDs (and therefore derived position
	// IDs); multi-pool generation sets it per pool so IDs never collide
	// across pools.
	IDPrefix string
	// NumUsers is the trading population (paper: 100).
	NumUsers int
}

// DefaultConfig mirrors the paper's experiment setup.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Distribution: UniswapDistribution, NumUsers: 100}
}

// Traffic shape shared by every generator.
const (
	// SwapAmountMax bounds swap input sizes (uniform in [1, max]).
	SwapAmountMax = 2_000_000
	// MintAmountMax bounds per-mint funding.
	MintAmountMax = 50_000_000
	// lpShare of users (at least one) provide liquidity and own positions.
	lpShare = 0.25
	// maxPositionsPerLP bounds live positions so sync cost scales with the
	// user population, matching the paper's observation.
	maxPositionsPerLP = 3
	// tickSpan bounds position ranges around the current price; bounds
	// align to the pools' tick spacing.
	tickSpan = 1200
)

// position tracks a live LP position the generator may burn/collect.
type position struct {
	id        string
	owner     string
	liquidity u256.Int // approximate; burns request fractions
}

// Generator produces a deterministic stream of sidechain transactions.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	users []string
	lps   []string
	// positions per LP, and each position's fixed tick range.
	positions map[string][]*position
	ranges    map[string][2]int32
	seq       int
}

// New creates a generator.
func New(cfg Config) *Generator {
	if cfg.NumUsers <= 0 {
		cfg.NumUsers = 100
	}
	g := &Generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		positions: make(map[string][]*position),
	}
	numLPs := int(float64(cfg.NumUsers) * lpShare)
	if numLPs < 1 {
		numLPs = 1
	}
	for i := 0; i < cfg.NumUsers; i++ {
		u := fmt.Sprintf("user-%03d", i)
		g.users = append(g.users, u)
		if i < numLPs {
			g.lps = append(g.lps, u)
		}
	}
	return g
}

// Users returns all user IDs.
func (g *Generator) Users() []string { return g.users }

// LPs returns the liquidity-provider subset.
func (g *Generator) LPs() []string { return g.lps }

// Next produces the next transaction in the stream.
func (g *Generator) Next() *summary.Tx {
	g.seq++
	id := fmt.Sprintf("%stx-%08d", g.cfg.IDPrefix, g.seq)
	d := g.cfg.Distribution
	total := d.Sum()
	roll := g.rng.Float64() * total
	switch {
	case roll < d.SwapPct:
		return g.nextSwap(id)
	case roll < d.SwapPct+d.MintPct:
		return g.nextMint(id)
	case roll < d.SwapPct+d.MintPct+d.BurnPct:
		return g.nextBurn(id)
	default:
		return g.nextCollect(id)
	}
}

func (g *Generator) nextSwap(id string) *summary.Tx {
	user := g.users[g.rng.Intn(len(g.users))]
	amount := uint64(g.rng.Int63n(SwapAmountMax)) + 1
	return &summary.Tx{
		ID: id, Kind: gasmodel.KindSwap, User: user,
		ZeroForOne: g.rng.Intn(2) == 0,
		ExactIn:    g.rng.Float64() < 0.8, // exact-input dominates in practice
		Amount:     u256.FromUint64(amount),
		SizeBytes:  gasmodel.MainnetSwapTxBytes,
	}
}

func (g *Generator) nextMint(id string) *summary.Tx {
	lp := g.lps[g.rng.Intn(len(g.lps))]
	amount := uint64(g.rng.Int63n(MintAmountMax)) + 1000
	tx := &summary.Tx{
		ID: id, Kind: gasmodel.KindMint, User: lp,
		Amount0Desired: u256.FromUint64(amount),
		Amount1Desired: u256.FromUint64(amount),
		SizeBytes:      gasmodel.MainnetMintTxBytes,
	}
	// Top up an existing position when the LP is at its cap; otherwise
	// open a new symmetric range around the current price.
	if ps := g.positions[lp]; len(ps) >= maxPositionsPerLP {
		p := ps[g.rng.Intn(len(ps))]
		tx.PosID = p.id
		// Ranges are fixed per position; the executor validates them.
		tx.TickLower, tx.TickUpper = g.rangeFor(p.id)
	} else {
		span := (g.rng.Int31n(tickSpan/amm.GenesisTickSpacing) + 1) * amm.GenesisTickSpacing
		tx.TickLower, tx.TickUpper = -span, span
		posID := summary.DerivePositionID(id, lp)
		g.positions[lp] = append(g.positions[lp], &position{id: posID, owner: lp})
		g.rememberRange(posID, -span, span)
	}
	return tx
}

func (g *Generator) rememberRange(posID string, lower, upper int32) {
	if g.ranges == nil {
		g.ranges = make(map[string][2]int32)
	}
	g.ranges[posID] = [2]int32{lower, upper}
}

func (g *Generator) rangeFor(posID string) (int32, int32) {
	r := g.ranges[posID]
	return r[0], r[1]
}

func (g *Generator) nextBurn(id string) *summary.Tx {
	lp, p := g.randomPosition()
	if p == nil {
		return g.nextSwap(id) // no positions yet: degenerate to a swap
	}
	// Burn a fraction; occasionally a full withdrawal that deletes it.
	full := g.rng.Float64() < 0.2
	tx := &summary.Tx{
		ID: id, Kind: gasmodel.KindBurn, User: lp, PosID: p.id,
		SizeBytes: gasmodel.MainnetBurnTxBytes,
	}
	if full {
		tx.BurnFractionBps = 10_000
		g.removePosition(lp, p.id)
	} else {
		tx.BurnFractionBps = uint32(g.rng.Intn(5000) + 1000) // 10–60%
	}
	return tx
}

func (g *Generator) nextCollect(id string) *summary.Tx {
	lp, p := g.randomPosition()
	if p == nil {
		return g.nextSwap(id)
	}
	return &summary.Tx{
		ID: id, Kind: gasmodel.KindCollect, User: lp, PosID: p.id,
		Collect0: u256.Max, Collect1: u256.Max,
		SizeBytes: gasmodel.MainnetCollectTxBytes,
	}
}

func (g *Generator) randomPosition() (string, *position) {
	if len(g.lps) == 0 {
		return "", nil
	}
	// Try a few LPs for one with positions.
	for i := 0; i < 4; i++ {
		lp := g.lps[g.rng.Intn(len(g.lps))]
		if ps := g.positions[lp]; len(ps) > 0 {
			return lp, ps[g.rng.Intn(len(ps))]
		}
	}
	return "", nil
}

func (g *Generator) removePosition(lp, id string) {
	ps := g.positions[lp]
	for i, p := range ps {
		if p.id == id {
			g.positions[lp] = append(ps[:i], ps[i+1:]...)
			return
		}
	}
}
