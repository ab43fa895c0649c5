package experiments

import (
	"fmt"
	"time"

	"ammboost/internal/core"
	"ammboost/internal/rollup"
	"ammboost/internal/workload"
)

// scalePoint is one configuration's headline metrics.
type scalePoint struct {
	Label         string
	Throughput    float64
	SCLatency     time.Duration
	PayoutLatency time.Duration
	MaxSCGrowth   int
}

// --- Table V: scalability across daily volumes ---

// Table5Result sweeps V_D ∈ {50K, 500K, 5M, 25M}.
type Table5Result struct{ Points []scalePoint }

// RunTable5 reproduces the scalability experiment.
func RunTable5(o Options) (*Table5Result, error) {
	o = o.withDefaults()
	res := &Table5Result{}
	for _, vd := range []int{50_000, 500_000, 5_000_000, 25_000_000} {
		_, rep, err := runAmmBoost(paperSystemConfig(o), paperDriverConfig(o, vd))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, scalePoint{
			Label:         volLabel(vd),
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
		})
	}
	return res, nil
}

func volLabel(vd int) string {
	switch {
	case vd >= 1_000_000:
		return fmt.Sprintf("%dM", vd/1_000_000)
	default:
		return fmt.Sprintf("%dK", vd/1_000)
	}
}

// Render implements Result.
func (r *Table5Result) Render() string {
	t := &table{
		title:   "Table V: scalability of ammBoost",
		headers: []string{"Daily volume", "Throughput (tx/s)", "Avg. sc latency (s)", "Avg. payout latency (s)"},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency))
	}
	return t.String()
}

// --- Table VI: ammBoost vs ammOP (Optimism-inspired rollup) ---

// Table6Result compares the two layer-2 designs under V_D = 25M.
type Table6Result struct {
	AmmOP    scalePoint
	AmmBoost scalePoint
}

// RunTable6 runs both backends on identical traffic.
func RunTable6(o Options) (*Table6Result, error) {
	o = o.withDefaults()
	const vd = 25_000_000

	// ammBoost.
	_, rep, err := runAmmBoost(paperSystemConfig(o), paperDriverConfig(o, vd))
	if err != nil {
		return nil, err
	}

	// ammOP with the same arrival process.
	op, err := rollup.New(rollup.DefaultConfig())
	if err != nil {
		return nil, err
	}
	gen := workload.New(workload.DefaultConfig(o.Seed))
	roundDur := 7 * time.Second
	rho := workload.Rho(vd, roundDur.Seconds())
	totalRounds := o.Epochs * 30
	workload.ConstantRate(rho, totalRounds, roundDur, func(at time.Duration) {
		op.Sim().At(at, func() { op.Submit(gen.Next()) })
	})
	op.Run(time.Duration(totalRounds) * roundDur)

	return &Table6Result{
		AmmOP: scalePoint{
			Label:         "ammOP",
			Throughput:    op.Collector().Throughput(),
			SCLatency:     op.Collector().AvgSCLatency(),
			PayoutLatency: op.Collector().AvgPayoutLatency(),
		},
		AmmBoost: scalePoint{
			Label:         "ammBoost",
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
		},
	}, nil
}

// Render implements Result.
func (r *Table6Result) Render() string {
	t := &table{
		title:   "Table VI: comparison between ammBoost and ammOP",
		headers: []string{"System", "Throughput (tx/s)", "Transaction latency (s)", "Payout latency (s)"},
	}
	for _, p := range []scalePoint{r.AmmOP, r.AmmBoost} {
		t.add(p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency))
	}
	return t.String()
}

// --- Table VIII: meta-block size sweep ---

// Table8Result sweeps block sizes at V_D = 50M.
type Table8Result struct{ Points []scalePoint }

// RunTable8 reproduces the block-size experiment.
func RunTable8(o Options) (*Table8Result, error) {
	o = o.withDefaults()
	res := &Table8Result{}
	for _, mb := range []int{512 << 10, 1 << 20, 3 << 19, 2 << 20} { // 0.5, 1, 1.5, 2 MB
		cfg := paperSystemConfig(o)
		cfg.MetaBlockBytes = mb
		_, rep, err := runAmmBoost(cfg, paperDriverConfig(o, 50_000_000))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, scalePoint{
			Label:         fmt.Sprintf("%.1fMB", float64(mb)/(1<<20)),
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
		})
	}
	return res, nil
}

// Render implements Result.
func (r *Table8Result) Render() string {
	t := &table{
		title:   "Table VIII: impact of different sidechain block sizes (V_D = 50M)",
		headers: []string{"Block size", "Throughput (tx/s)", "Avg. sc latency (s)", "Avg. payout latency (s)"},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency))
	}
	return t.String()
}

// --- Table IX: round duration sweep ---

// Table9Result sweeps round durations at V_D = 25M.
type Table9Result struct{ Points []scalePoint }

// RunTable9 reproduces the round-duration experiment.
func RunTable9(o Options) (*Table9Result, error) {
	o = o.withDefaults()
	res := &Table9Result{}
	for _, rd := range []time.Duration{7 * time.Second, 11 * time.Second, 16 * time.Second, 21 * time.Second} {
		cfg := paperSystemConfig(o)
		cfg.RoundDuration = rd
		_, rep, err := runAmmBoost(cfg, paperDriverConfig(o, 25_000_000))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, scalePoint{
			Label:         fmt.Sprintf("%ds", int(rd.Seconds())),
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
		})
	}
	return res, nil
}

// Render implements Result.
func (r *Table9Result) Render() string {
	t := &table{
		title:   "Table IX: impact of different sidechain round durations (V_D = 25M)",
		headers: []string{"Round duration", "Throughput (tx/s)", "Avg. sc latency (s)", "Payout latency (s)"},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency))
	}
	return t.String()
}

// --- Table X: rounds-per-epoch sweep ---

// Table10Result sweeps epoch lengths at V_D = 25M.
type Table10Result struct{ Points []scalePoint }

// RunTable10 reproduces the epoch-length experiment.
func RunTable10(o Options) (*Table10Result, error) {
	o = o.withDefaults()
	res := &Table10Result{}
	for _, rounds := range []int{5, 10, 20, 30, 60, 96} {
		cfg := paperSystemConfig(o)
		cfg.EpochRounds = rounds
		// Keep total simulated traffic time comparable: the paper holds
		// the run at 11 epochs of the default length; shorter epochs get
		// proportionally more epochs.
		drv := paperDriverConfig(o, 25_000_000)
		drv.Epochs = o.Epochs * 30 / rounds
		if drv.Epochs < 1 {
			drv.Epochs = 1
		}
		_, rep, err := runAmmBoost(cfg, drv)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, scalePoint{
			Label:         fmt.Sprintf("%d", rounds),
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
		})
	}
	return res, nil
}

// Render implements Result.
func (r *Table10Result) Render() string {
	t := &table{
		title:   "Table X: impact of number of sidechain rounds per epoch (V_D = 25M)",
		headers: []string{"Epoch len (rounds)", "Throughput (tx/s)", "SC latency (s)", "Payout latency (s)"},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency))
	}
	return t.String()
}

// --- Table XI: traffic distribution sweep ---

// Table11Result sweeps transaction mixes.
type Table11Result struct{ Points []scalePoint }

// RunTable11 reproduces the traffic-distribution experiment.
func RunTable11(o Options) (*Table11Result, error) {
	o = o.withDefaults()
	mixes := []workload.Distribution{
		{SwapPct: 60, MintPct: 20, BurnPct: 10, CollectPct: 10},
		{SwapPct: 60, MintPct: 10, BurnPct: 20, CollectPct: 10},
		{SwapPct: 60, MintPct: 10, BurnPct: 10, CollectPct: 20},
		{SwapPct: 80, MintPct: 10, BurnPct: 5, CollectPct: 5},
		{SwapPct: 80, MintPct: 5, BurnPct: 10, CollectPct: 5},
		{SwapPct: 80, MintPct: 5, BurnPct: 5, CollectPct: 10},
	}
	res := &Table11Result{}
	for _, mix := range mixes {
		drv := paperDriverConfig(o, 25_000_000)
		drv.Workload.Distribution = mix
		sys, rep, err := runAmmBoost(paperSystemConfig(o), drv)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, scalePoint{
			Label: fmt.Sprintf("(%.0f/%.0f/%.0f/%.0f)",
				mix.SwapPct, mix.MintPct, mix.BurnPct, mix.CollectPct),
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
			MaxSCGrowth:   maxSummaryBytes(sys),
		})
	}
	return res, nil
}

func maxSummaryBytes(sys *core.MultiSystem) int {
	max := 0
	for _, sb := range sys.SidechainLedger().Summaries() {
		if sb.SizeBytes > max {
			max = sb.SizeBytes
		}
	}
	return max
}

// Render implements Result.
func (r *Table11Result) Render() string {
	t := &table{
		title:   "Table XI: impact of traffic distribution (swap/mint/burn/collect %, V_D = 25M)",
		headers: []string{"Mix", "Throughput (tx/s)", "SC latency (s)", "Payout latency (s)", "Max sc growth (B)"},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency),
			fmt.Sprintf("%d", p.MaxSCGrowth))
	}
	return t.String()
}
