package experiments

import (
	"fmt"
	"time"

	"ammboost/internal/rollup"
	"ammboost/internal/sidechain"
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

// ScaleResult is one of the paper's throughput/latency tables (V, VI,
// VIII–XI): one row per configuration.
type ScaleResult struct {
	Title   string
	Headers []string
	Points  []scalePoint
}

// Render implements Result. A fifth header adds each row's largest
// summary block (Table XI's "Max sc growth").
func (r *ScaleResult) Render() string {
	t := &table{title: r.Title, headers: r.Headers}
	for _, p := range r.Points {
		row := []string{p.Label, fmt.Sprintf("%.2f", p.Throughput), secs(p.SCLatency), secs(p.PayoutLatency)}
		if len(r.Headers) > len(row) {
			row = append(row, fmt.Sprintf("%d", p.MaxSCGrowth))
		}
		t.add(row...)
	}
	return t.String()
}

// variant is one row of a sweep: its label and the one setting it
// changes on the paper's deployment (nil changes nothing).
type variant struct {
	label string
	set   func(*deployment)
}

// sweep is a table that runs the paper's deployment at daily volume vd
// once per variant.
type sweep struct {
	title    string
	headers  []string
	vd       int
	variants []variant
}

// run executes every variant through runAmmBoost.
func (s sweep) run(o Options) (*ScaleResult, error) {
	o = o.withDefaults()
	res := &ScaleResult{Title: s.title, Headers: s.headers}
	for _, v := range s.variants {
		d := paperDeployment(o, s.vd)
		if v.set != nil {
			v.set(&d)
		}
		rep, ledger, err := runAmmBoost(d)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, scalePoint{
			Label:         v.label,
			Throughput:    rep.Throughput,
			SCLatency:     rep.AvgSCLatency,
			PayoutLatency: rep.AvgPayoutLatency,
			MaxSCGrowth:   maxSummaryBytes(ledger),
		})
	}
	return res, nil
}

func maxSummaryBytes(ledger *sidechain.Ledger) int {
	m := 0
	for _, sb := range ledger.Summaries() {
		m = max(m, sb.SizeBytes)
	}
	return m
}

// The paper's Section VI sweeps.
var (
	table5 = sweep{
		title:    "Table V: scalability of ammBoost",
		headers:  []string{"Daily volume", "Throughput (tx/s)", "Avg. sc latency (s)", "Avg. payout latency (s)"},
		variants: []variant{volume(50_000), volume(500_000), volume(5_000_000), volume(25_000_000)},
	}
	table8 = sweep{
		title:   "Table VIII: impact of different sidechain block sizes (V_D = 50M)",
		headers: []string{"Block size", "Throughput (tx/s)", "Avg. sc latency (s)", "Avg. payout latency (s)"},
		vd:      50_000_000,
		variants: []variant{
			metaBlockBytes(512 << 10), metaBlockBytes(1 << 20), metaBlockBytes(3 << 19), metaBlockBytes(2 << 20),
		},
	}
	table9 = sweep{
		title:   "Table IX: impact of different sidechain round durations (V_D = 25M)",
		headers: []string{"Round duration", "Throughput (tx/s)", "Avg. sc latency (s)", "Payout latency (s)"},
		vd:      25_000_000,
		variants: []variant{
			roundDuration(7 * time.Second), roundDuration(11 * time.Second),
			roundDuration(16 * time.Second), roundDuration(21 * time.Second),
		},
	}
	table10 = sweep{
		title:   "Table X: impact of number of sidechain rounds per epoch (V_D = 25M)",
		headers: []string{"Epoch len (rounds)", "Throughput (tx/s)", "SC latency (s)", "Payout latency (s)"},
		vd:      25_000_000,
		variants: []variant{
			epochRounds(5), epochRounds(10), epochRounds(20), epochRounds(30), epochRounds(60), epochRounds(96),
		},
	}
	table11 = sweep{
		title:   "Table XI: impact of traffic distribution (swap/mint/burn/collect %, V_D = 25M)",
		headers: []string{"Mix", "Throughput (tx/s)", "SC latency (s)", "Payout latency (s)", "Max sc growth (B)"},
		vd:      25_000_000,
		variants: []variant{
			mix(60, 20, 10, 10), mix(60, 10, 20, 10), mix(60, 10, 10, 20),
			mix(80, 10, 5, 5), mix(80, 5, 10, 5), mix(80, 5, 5, 10),
		},
	}
)

func volume(vd int) variant {
	label := fmt.Sprintf("%dK", vd/1_000)
	if vd >= 1_000_000 {
		label = fmt.Sprintf("%dM", vd/1_000_000)
	}
	return variant{label, func(d *deployment) { d.dailyVolume = vd }}
}

func metaBlockBytes(b int) variant {
	return variant{fmt.Sprintf("%.1fMB", float64(b)/(1<<20)), func(d *deployment) { d.metaBlockBytes = b }}
}

func roundDuration(rd time.Duration) variant {
	return variant{fmt.Sprintf("%ds", int(rd.Seconds())), func(d *deployment) { d.roundDuration = rd }}
}

// epochRounds keeps the simulated traffic time comparable: shorter
// epochs run proportionally more of them (deployment.configs).
func epochRounds(rounds int) variant {
	return variant{fmt.Sprintf("%d", rounds), func(d *deployment) { d.epochRounds = rounds }}
}

func mix(swap, mint, burn, collect float64) variant {
	return variant{fmt.Sprintf("(%.0f/%.0f/%.0f/%.0f)", swap, mint, burn, collect), func(d *deployment) {
		d.mix = workload.Distribution{SwapPct: swap, MintPct: mint, BurnPct: burn, CollectPct: collect}
	}}
}

// RunTable6 compares ammBoost with ammOP, the Optimism-inspired rollup,
// on the same arrivals at V_D = 25M.
func RunTable6(o Options) (*ScaleResult, error) {
	o = o.withDefaults()
	const vd = 25_000_000
	res, err := sweep{
		title:    "Table VI: comparison between ammBoost and ammOP",
		headers:  []string{"System", "Throughput (tx/s)", "Transaction latency (s)", "Payout latency (s)"},
		vd:       vd,
		variants: []variant{{label: "ammBoost"}},
	}.run(o)
	if err != nil {
		return nil, err
	}
	op, err := rollup.New(rollup.DefaultConfig())
	if err != nil {
		return nil, err
	}
	op.Run(replayPaperTraffic(o, vd, op.Sim(), op.Submit))
	c := op.Collector()
	ammOP := scalePoint{Label: "ammOP", Throughput: c.Throughput(), SCLatency: c.AvgSCLatency(), PayoutLatency: c.AvgPayoutLatency()}
	res.Points = append([]scalePoint{ammOP}, res.Points...)
	return res, nil
}
