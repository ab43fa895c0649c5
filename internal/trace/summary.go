package trace

import (
	"sort"
	"time"
)

// StageSummary is one lifecycle stage's span durations over a span
// window: exact count and total, nearest-rank quantiles.
type StageSummary struct {
	Stage string
	Count int
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Total time.Duration
}

// Summary is where a span window's wall-clock went: per stage, per epoch
// across the execute shards, and per commit phase the run loop stalled on.
type Summary struct {
	// Stages has one row per stage with spans in the window, by name.
	Stages []StageSummary
	// ImbalanceAvg and ImbalanceMax are the mean and worst per-epoch
	// busiest-shard execute time over the mean across all shards (1.0 =
	// balanced); ImbalanceMaxEpoch is the epoch that hit the worst.
	ImbalanceAvg      float64
	ImbalanceMax      float64
	ImbalanceMaxEpoch uint64
	// Stalls sums pipeline-stall time by the commit phase it waited on
	// (SpanRecord.WaitedOn); nil when the window holds no stall.
	Stalls map[string]time.Duration
}

// Summarize folds a span window (a Snapshot) into its Summary. shards is
// the configured execute shard count: an idle shard records no execute
// span, yet it still pulls an epoch's mean down. A nil window yields the
// zero Summary.
func Summarize(spans []SpanRecord, shards int) Summary {
	var out Summary
	if len(spans) == 0 {
		return out
	}
	byStage := make(map[string][]time.Duration)
	type shardLoad struct{ sum, top time.Duration }
	loads := make(map[uint64]*shardLoad)
	for _, rec := range spans {
		name := rec.Stage.String()
		byStage[name] = append(byStage[name], rec.Dur)
		switch rec.Stage {
		case StageExecute:
			l := loads[rec.Epoch]
			if l == nil {
				l = &shardLoad{}
				loads[rec.Epoch] = l
			}
			l.sum += rec.Dur
			l.top = max(l.top, rec.Dur)
		case StageStall:
			if out.Stalls == nil {
				out.Stalls = make(map[string]time.Duration)
			}
			out.Stalls[rec.WaitedOn] += rec.Dur
		}
	}

	for name, ds := range byStage {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		out.Stages = append(out.Stages, StageSummary{
			Stage: name, Count: len(ds), Total: total,
			P50: quantile(ds, 50), P95: quantile(ds, 95), P99: quantile(ds, 99),
		})
	}
	sort.Slice(out.Stages, func(i, j int) bool { return out.Stages[i].Stage < out.Stages[j].Stage })

	// Epochs fold in order so the float average is reproducible.
	epochs := make([]uint64, 0, len(loads))
	for e := range loads {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	var ratioSum float64
	var n int
	for _, e := range epochs {
		l := loads[e]
		if l.sum == 0 {
			continue
		}
		ratio := float64(l.top) * float64(shards) / float64(l.sum)
		ratioSum += ratio
		n++
		if ratio > out.ImbalanceMax {
			out.ImbalanceMax, out.ImbalanceMaxEpoch = ratio, e
		}
	}
	if n > 0 {
		out.ImbalanceAvg = ratioSum / float64(n)
	}
	return out
}

// quantile is the nearest-rank pth percentile of a non-empty sorted
// slice: the element at index p/100·(len-1), rounded down.
func quantile(ds []time.Duration, p float64) time.Duration {
	return ds[int(p/100*float64(len(ds)-1))]
}
