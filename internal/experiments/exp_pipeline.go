package experiments

import (
	"fmt"
	"runtime"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/trace"
	"ammboost/internal/workload"
)

// --- pipelinescale: epoch lifecycle pipeline sweep ---

// pipeScalePoint is one PipelineDepth configuration's measured run.
type pipeScalePoint struct {
	Depth int
	// Wall is real elapsed time for the full lifecycle run.
	Wall time.Duration
	// Virtual is the simulated duration of the run.
	Virtual time.Duration
	// PayoutLatency is the mean submission → sync-confirmed latency,
	// showing the pipeline's latency/throughput trade.
	PayoutLatency time.Duration
	// Stages are the run's per-stage wall-clock latency summaries
	// (p50/p95/p99 over every retained span), from the lifecycle tracer.
	Stages []chain.StageSummary
	// ImbalanceAvg/Max summarize per-epoch shard skew (max/mean shard
	// execute time); ImbalanceMaxEpoch names the worst epoch.
	ImbalanceAvg      float64
	ImbalanceMax      float64
	ImbalanceMaxEpoch uint64
	// StallByStage attributes run-loop blocking to the commit-stage
	// phase it was waiting on (pipelined depths only).
	StallByStage map[string]time.Duration
	EpochsRun    int
}

// PipeScaleResult sweeps PipelineDepth over identical multi-pool traffic:
// wall-clock epoch throughput versus depth 1 (a window of one), where
// each depth's wall-clock goes stage by stage (p50/p95/p99), how skewed
// the shard fan-out ran, and which commit-stage phase the pipeline
// stalled on. Every epoch's summary root and sync payload digests must be
// bit-identical at every depth — pipelining (and tracing) may change
// timing, never state.
type PipeScaleResult struct {
	Points         []pipeScalePoint
	RootsIdentical bool
	NumCPU         int
}

// pipeScale deployment: a 64-pool node with traffic concentrated on
// ~10 pools, sized so the commit/sync stage is comparable to execution.
const (
	pipeScalePools  = 64
	pipeScaleActive = 6
	pipeScaleVolume = 1_500_000
)

// RunPipelineScale reproduces the lifecycle-pipeline experiment:
// PipelineDepth {1, 2, 3} over identical traffic and seeds, with the
// lifecycle tracer attached for the stage-latency breakdown.
func RunPipelineScale(o Options) (*PipeScaleResult, error) {
	o = o.withDefaults()
	res := &PipeScaleResult{RootsIdentical: true, NumCPU: runtime.NumCPU()}
	epochs := o.Epochs
	if epochs > 4 {
		epochs = 4 // the sweep repeats full runs; keep one point tractable
	}
	var base chain.Fingerprint
	for _, depth := range []int{1, 2, 3} {
		sysCfg := chain.Config{
			Seed:          o.Seed,
			NumPools:      pipeScalePools,
			NumShards:     4,
			EpochRounds:   5,
			CommitteeSize: o.CommitteeSize,
			PipelineDepth: depth,
			// Room for the drain epochs too, so the stage rows cover the run.
			Tracer: trace.New(2 * epochs),
		}
		wcfg := workload.DefaultMultiConfig(o.Seed, pipeScaleActive)
		drvCfg := core.MultiDriverConfig{
			DailyVolume: pipeScaleVolume,
			Epochs:      epochs,
			Workload:    wcfg,
		}
		node, _, err := core.NewMultiDriver(sysCfg, drvCfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := node.Run(epochs)
		if err != nil {
			return nil, fmt.Errorf("experiments: pipelinescale depth %d: %w", depth, err)
		}
		wall := time.Since(start)
		pt := pipeScalePoint{
			Depth:             depth,
			Wall:              wall,
			Virtual:           rep.Duration,
			PayoutLatency:     rep.AvgPayoutLatency,
			Stages:            rep.Stages,
			ImbalanceAvg:      rep.ShardImbalanceAvg,
			ImbalanceMax:      rep.ShardImbalanceMax,
			ImbalanceMaxEpoch: rep.ShardImbalanceMaxEpoch,
			StallByStage:      rep.PipelineStallByStage,
			EpochsRun:         rep.EpochsRun,
		}
		res.Points = append(res.Points, pt)
		fp := node.(*core.MultiSystem).Fingerprint(nil)
		if depth == 1 {
			base = fp
		} else if err := base.Diff(fp); err != nil {
			res.RootsIdentical = false
			return res, fmt.Errorf("experiments: pipelinescale depth 1 vs %d: %w", depth, err)
		}
	}
	return res, nil
}

// Render implements Result.
func (r *PipeScaleResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Pipelinescale: epoch lifecycle pipeline sweep (%d pools, ~%d active, %d CPU(s))",
			pipeScalePools, pipeScaleActive, r.NumCPU),
		headers: []string{"Depth", "Wall (ms)", "Speedup vs depth 1",
			"Shard imbalance", "Virtual (s)", "Payout latency (s)"},
	}
	var baseWall time.Duration
	for i, p := range r.Points {
		if i == 0 {
			baseWall = p.Wall
		}
		speedup := float64(baseWall) / float64(p.Wall)
		t.add(
			fmt.Sprintf("%d", p.Depth),
			fmt.Sprintf("%.1f", float64(p.Wall.Microseconds())/1000),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.2f avg / %.2f max @e%d", p.ImbalanceAvg, p.ImbalanceMax, p.ImbalanceMaxEpoch),
			secs(p.Virtual),
			secs(p.PayoutLatency),
		)
	}
	s := t.String()

	for _, p := range r.Points {
		st := &table{
			title:   fmt.Sprintf("depth %d stage latency (wall clock)", p.Depth),
			headers: []string{"Stage", "Count", "p50", "p95", "p99"},
		}
		for _, sm := range p.Stages {
			st.add(sm.Stage, fmt.Sprintf("%d", sm.Count),
				sm.P50.String(), sm.P95.String(), sm.P99.String())
		}
		s += st.String()
		if len(p.StallByStage) > 0 {
			s += "  stalled on:"
			for _, stage := range []string{"queued", "commit-build", "sign", "store-encode"} {
				if d, ok := p.StallByStage[stage]; ok {
					s += fmt.Sprintf(" %s=%s", stage, d)
				}
			}
			s += "\n"
		}
	}

	if r.RootsIdentical {
		s += "every epoch's summary root and payload digests: bit-identical across all pipeline depths (tracing on)\n"
	} else {
		s += "every epoch's summary root and payload digests: DIVERGED (determinism violation)\n"
	}
	s += "shard imbalance is max/mean per-shard execute time per epoch (1.00 = perfectly\n" +
		"balanced); stall attribution names the commit-stage phase retirement waited on.\n"
	return s
}
