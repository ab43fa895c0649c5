package core

import (
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/trace"
)

// TestTraceReportSurfaces checks the traced run's report carries the
// observability summaries: per-stage latency histograms covering the
// whole lifecycle and the shard-imbalance gauge (>= 1 by construction,
// max/mean). Stall attribution is not asserted — a fast commit stage
// may legitimately never block retirement.
func TestTraceReportSurfaces(t *testing.T) {
	tr := trace.New(8)
	sysCfg, drvCfg := multiTestConfigs(5, 16, 4, 3)
	sysCfg.PipelineDepth = 2
	sysCfg.Tracer = tr
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(drvCfg.Epochs)
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Stages) == 0 {
		t.Fatal("traced run report has no stage summaries")
	}
	byName := make(map[string]chain.StageSummary, len(rep.Stages))
	for _, st := range rep.Stages {
		byName[st.Stage] = st
		if st.Count <= 0 {
			t.Errorf("stage %q has count %d, want > 0", st.Stage, st.Count)
		}
		if st.P99 < st.P95 || st.P95 < st.P50 {
			t.Errorf("stage %q quantiles not monotone: p50=%v p95=%v p99=%v",
				st.Stage, st.P50, st.P95, st.P99)
		}
	}
	for _, want := range []string{
		"submit", "execute-shard", "seal", "commit-build", "chunk", "sign",
		"sync-submit", "sync-confirm", "prune",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("report stage summaries missing %q (have %v)", want, rep.Stages)
		}
	}
	if rep.ShardImbalanceAvg < 1 {
		t.Errorf("shard imbalance avg = %.3f, want >= 1 (max/mean)", rep.ShardImbalanceAvg)
	}
	if rep.ShardImbalanceMax < rep.ShardImbalanceAvg {
		t.Errorf("imbalance max %.3f < avg %.3f", rep.ShardImbalanceMax, rep.ShardImbalanceAvg)
	}
	if rep.ShardImbalanceMaxEpoch == 0 {
		t.Error("worst-imbalance epoch not recorded")
	}
	if tr.Total() == 0 {
		t.Error("tracer recorded no spans")
	}

	// The untraced report stays clean: no stage summaries, no imbalance.
	plainCfg, plainDrv := multiTestConfigs(5, 16, 4, 3)
	plain, _, err := NewMultiDriver(plainCfg, plainDrv)
	if err != nil {
		t.Fatal(err)
	}
	plainRep, err := plain.Run(plainDrv.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainRep.Stages) != 0 || plainRep.ShardImbalanceMax != 0 {
		t.Errorf("untraced report carries telemetry: stages=%d imbalanceMax=%.2f",
			len(plainRep.Stages), plainRep.ShardImbalanceMax)
	}
}

// TestReportStagesWallClock pins Report.Stages to one clock: every row is
// a sum of wall-clock spans, so on one shard (no parallel execute spans)
// no stage's total can exceed the run's own wall-clock time — a row in
// virtual time, minutes long per epoch, would.
func TestReportStagesWallClock(t *testing.T) {
	start := time.Now()
	sysCfg, drvCfg := multiTestConfigs(5, 16, 1, 3)
	sysCfg.Tracer = trace.New(0)
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(drvCfg.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if len(rep.Stages) == 0 {
		t.Fatal("traced run report has no stage summaries")
	}
	for _, st := range rep.Stages {
		if st.Total > wall {
			t.Errorf("stage %q totals %v, more than the run's %v wall clock", st.Stage, st.Total, wall)
		}
	}
}

// TestTraceBufferKeepsTracerWindow pins who sizes the trace window: the
// tracer's own retention stands unless Config.TraceBuffer asks for
// another, so a trace.New(16) tracer keeps every epoch of a 12-epoch run
// (the default window is 8).
func TestTraceBufferKeepsTracerWindow(t *testing.T) {
	for _, buffer := range []int{0, 4} {
		tr := trace.New(16)
		sysCfg, drvCfg := multiTestConfigs(3, 8, 2, 12)
		sysCfg.Tracer = tr
		sysCfg.TraceBuffer = buffer
		sys, _, err := NewMultiDriver(sysCfg, drvCfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(drvCfg.Epochs)
		if err != nil {
			t.Fatal(err)
		}
		want := rep.EpochsRun // 12 planned, plus any drain epoch
		if buffer > 0 {
			want = buffer
		}
		if rep.EpochsRun < 12 || rep.EpochsRun > 16 {
			t.Fatalf("ran %d epochs, want 12..16", rep.EpochsRun)
		}
		if got := len(tr.Epochs()); got != want {
			t.Errorf("TraceBuffer %d: tracer retained %d epochs, want %d", buffer, got, want)
		}
	}
}
