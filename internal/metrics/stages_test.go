package metrics_test

import (
	"testing"
	"time"

	"ammboost/internal/trace"
)

// The stage-timing metrics of a report — per-stage latency, per-epoch
// shard imbalance and pipeline stalls by commit phase — are not kept by
// the Collector: trace.Summarize folds them from the tracer's span
// window. These tests pin that fold, the one every stage-timing surface
// reads.

// stageWindow records a fixed span window and summarizes it over four
// execute shards. Seal spans are 1..100 ms; one sign span is 5 ms.
// Epoch 1: shards 0 and 1 busy 30 ms and 10 ms, shards 2 and 3 idle:
// mean 10 ms over 4 shards, so the ratio is 3. Epoch 2: shards 0..3 busy
// 10 ms each: balanced. Epoch 3: shard 3 alone carries the load: ratio 4.
// Stalls wait 10 ms and 5 ms on "sign" and 2 ms on "store-encode".
func stageWindow() trace.Summary {
	tr := trace.New(0)
	for i := 1; i <= 100; i++ {
		tr.Record(trace.SpanRecord{Stage: trace.StageSeal, Epoch: uint64(i%4 + 1), Dur: time.Duration(i) * time.Millisecond})
	}
	tr.Record(trace.SpanRecord{Stage: trace.StageSign, Epoch: 1, Dur: 5 * time.Millisecond})
	for _, rec := range []trace.SpanRecord{
		{Stage: trace.StageExecute, Epoch: 1, Shard: 0, Dur: 30 * time.Millisecond},
		{Stage: trace.StageExecute, Epoch: 1, Shard: 1, Dur: 10 * time.Millisecond},
		{Stage: trace.StageExecute, Epoch: 2, Shard: 0, Dur: 10 * time.Millisecond},
		{Stage: trace.StageExecute, Epoch: 2, Shard: 1, Dur: 10 * time.Millisecond},
		{Stage: trace.StageExecute, Epoch: 2, Shard: 2, Dur: 10 * time.Millisecond},
		{Stage: trace.StageExecute, Epoch: 2, Shard: 3, Dur: 10 * time.Millisecond},
		{Stage: trace.StageExecute, Epoch: 3, Shard: 3, Dur: 10 * time.Millisecond},
		{Stage: trace.StageStall, Epoch: 1, Dur: 10 * time.Millisecond, WaitedOn: "sign"},
		{Stage: trace.StageStall, Epoch: 2, Dur: 5 * time.Millisecond, WaitedOn: "sign"},
		{Stage: trace.StageStall, Epoch: 3, Dur: 2 * time.Millisecond, WaitedOn: "store-encode"},
	} {
		tr.Record(rec)
	}
	return trace.Summarize(tr.Snapshot(0), 4)
}

// TestStageLatency pins the per-stage rows: one per stage in the window,
// sorted by name, with exact count and total and nearest-rank quantiles.
func TestStageLatency(t *testing.T) {
	if got := trace.Summarize(nil, 4).Stages; got != nil {
		t.Fatalf("empty window stages = %v, want nil", got)
	}
	sum := stageWindow()
	var names []string
	byName := make(map[string]trace.StageSummary)
	for _, st := range sum.Stages {
		names = append(names, st.Stage)
		byName[st.Stage] = st
	}
	want := []string{"execute-shard", "pipeline-stall", "seal", "sign"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v (sorted by name)", names, want)
		}
	}
	seal := byName["seal"]
	if seal.Count != 100 || seal.Total != 5050*time.Millisecond {
		t.Fatalf("seal count/total = %d/%v, want 100/5.05s", seal.Count, seal.Total)
	}
	if seal.P50 != 50*time.Millisecond || seal.P95 != 95*time.Millisecond || seal.P99 != 99*time.Millisecond {
		t.Fatalf("seal p50/p95/p99 = %v/%v/%v, want 50ms/95ms/99ms", seal.P50, seal.P95, seal.P99)
	}
	if sign := byName["sign"]; sign.Count != 1 || sign.P50 != 5*time.Millisecond || sign.P99 != 5*time.Millisecond {
		t.Fatalf("single-span stage = %+v", sign)
	}
	if ex := byName["execute-shard"]; ex.Count != 7 || ex.Total != 90*time.Millisecond {
		t.Fatalf("execute-shard count/total = %d/%v, want 7/90ms", ex.Count, ex.Total)
	}
}

// TestShardImbalance pins the per-epoch imbalance: busiest shard over the
// mean across all configured shards (an idle shard still pulls the mean
// down), averaged over epochs, with the epoch that hit the worst.
func TestShardImbalance(t *testing.T) {
	if got := trace.Summarize(nil, 4); got.ImbalanceAvg != 0 || got.ImbalanceMax != 0 || got.ImbalanceMaxEpoch != 0 {
		t.Fatalf("empty window imbalance = (%v, %v, %d)", got.ImbalanceAvg, got.ImbalanceMax, got.ImbalanceMaxEpoch)
	}
	sum := stageWindow()
	if sum.ImbalanceMax != 4 || sum.ImbalanceMaxEpoch != 3 {
		t.Fatalf("imbalance max = %v at epoch %d, want 4 at epoch 3", sum.ImbalanceMax, sum.ImbalanceMaxEpoch)
	}
	if want := (3.0 + 1.0 + 4.0) / 3; sum.ImbalanceAvg != want {
		t.Fatalf("imbalance avg = %v, want %v", sum.ImbalanceAvg, want)
	}
}

// TestStallAttribution pins stall time keyed by the commit phase each
// pipeline-stall span waited on.
func TestStallAttribution(t *testing.T) {
	if got := trace.Summarize(nil, 4).Stalls; got != nil {
		t.Fatalf("empty window stalls = %v, want nil", got)
	}
	sum := stageWindow()
	if len(sum.Stalls) != 2 || sum.Stalls["sign"] != 15*time.Millisecond ||
		sum.Stalls["store-encode"] != 2*time.Millisecond {
		t.Fatalf("stalls = %v, want sign=15ms store-encode=2ms", sum.Stalls)
	}
}
