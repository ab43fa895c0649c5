// Package experiments regenerates every table and figure in the paper's
// evaluation (Section VI and Appendix E). Each runner returns a structured
// result whose Render method prints the same rows the paper reports;
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/workload"
)

// Options tune experiment scale. Zero values take the paper's settings.
type Options struct {
	// Epochs per run (paper: 11).
	Epochs int
	// Seed for deterministic runs.
	Seed int64
	// CommitteeSize (paper: 500).
	CommitteeSize int
}

func (o Options) withDefaults() Options {
	if o.Epochs == 0 {
		o.Epochs = 11
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.CommitteeSize == 0 {
		o.CommitteeSize = 500
	}
	return o
}

// paperSystemConfig is the paper's default deployment: 30 rounds of 7 s
// per epoch, 1 MB meta-blocks, a 500-member committee, and a pipeline
// window of one, so each epoch's Sync is submitted at the epoch's end as
// in the paper rather than one epoch later.
func paperSystemConfig(o Options) chain.Config {
	return chain.Config{
		Seed:          o.Seed,
		EpochRounds:   30,
		RoundDuration: 7 * time.Second,
		CommitteeSize: o.CommitteeSize,
		PipelineDepth: 1,
	}.WithDefaults()
}

func paperDriverConfig(o Options, dailyVolume int) core.DriverConfig {
	return core.DriverConfig{
		DailyVolume: dailyVolume,
		Epochs:      o.Epochs,
		Workload:    workload.DefaultConfig(o.Seed),
	}
}

// runAmmBoost executes a full ammBoost deployment through the unified
// chain.Chain API and validates the cross-layer invariants. The node is
// returned for the few experiments that inspect its sidechain ledger.
func runAmmBoost(sysCfg chain.Config, drvCfg core.DriverConfig) (*core.MultiSystem, *chain.Report, error) {
	node, _, err := core.NewDriver(sysCfg, drvCfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := node.Run(drvCfg.Epochs)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: lifecycle fault: %w", err)
	}
	if err := node.Validate(); err != nil {
		return nil, nil, fmt.Errorf("experiments: invariant violation: %w", err)
	}
	return node.(*core.MultiSystem), rep, nil
}

// table renders an aligned text table.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.title)
	for i, h := range t.headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for i := range t.headers {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// Result is the common experiment output: a renderable report.
type Result interface {
	Render() string
}

// Runner executes a named experiment.
type Runner func(Options) (Result, error)

// Registry maps experiment names (table1 … table12, fig5) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":    func(o Options) (Result, error) { return RunTable1(o) },
		"table2":    func(o Options) (Result, error) { return RunTable2(o) },
		"table3":    func(o Options) (Result, error) { return RunTable3(o) },
		"table4":    func(o Options) (Result, error) { return RunTable4(o) },
		"fig5":      func(o Options) (Result, error) { return RunFig5(o) },
		"table5":    func(o Options) (Result, error) { return RunTable5(o) },
		"table6":    func(o Options) (Result, error) { return RunTable6(o) },
		"table7":    func(o Options) (Result, error) { return RunTable7(o) },
		"table8":    func(o Options) (Result, error) { return RunTable8(o) },
		"table9":    func(o Options) (Result, error) { return RunTable9(o) },
		"table10":   func(o Options) (Result, error) { return RunTable10(o) },
		"table11":   func(o Options) (Result, error) { return RunTable11(o) },
		"table12":   func(o Options) (Result, error) { return RunTable12(o) },
		"ablations": func(o Options) (Result, error) { return RunAblations(o) },
		"poolscale": func(o Options) (Result, error) { return RunPoolScale(o) },
		"pipelinescale": func(o Options) (Result, error) {
			return RunPipelineScale(o)
		},
		"chaos":      func(o Options) (Result, error) { return RunChaos(o) },
		"federation": func(o Options) (Result, error) { return RunFederation(o) },
	}
}

// Names returns the registry keys in run order.
func Names() []string {
	names := make([]string, 0)
	for n := range Registry() {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		order := func(s string) int {
			switch s {
			case "fig5":
				return 45 // between table4 and table5
			case "poolscale":
				return 500 // after the paper tables
			case "pipelinescale":
				return 510 // after poolscale
			case "chaos":
				return 520 // after pipelinescale
			case "federation":
				return 530 // after chaos
			case "ablations":
				return 999 // last
			default:
				var n int
				fmt.Sscanf(s, "table%d", &n)
				return n * 10
			}
		}
		return order(names[i]) < order(names[j])
	})
	return names
}
