package chain

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ammboost/internal/mainchain"
	"ammboost/internal/metrics"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
)

// busNode is a minimal Chain whose event surface is a real Bus — just
// enough for Admin, which only calls Subscribe/Unsubscribe.
type busNode struct {
	bus *Bus
}

func (n *busNode) Submit(context.Context, *summary.Tx) (*Receipt, error) {
	return nil, ErrMalformedTx
}
func (n *busNode) SubmitBatch(_ context.Context, txs []*summary.Tx) (*BatchResult, error) {
	res := &BatchResult{Receipts: make([]*Receipt, len(txs)), Errs: make([]error, len(txs))}
	for i := range txs {
		res.Errs[i] = ErrMalformedTx
	}
	return res, nil
}
func (n *busNode) SubmitDeposit(string, uint64, u256.Int, u256.Int) (*Receipt, error) {
	return nil, ErrMalformedTx
}
func (n *busNode) Subscribe(mask EventMask) <-chan Event { return n.bus.Subscribe(mask) }
func (n *busNode) Unsubscribe(ch <-chan Event)           { n.bus.Unsubscribe(ch) }
func (n *busNode) Run(int) (*Report, error)              { return &Report{}, nil }
func (n *busNode) Validate() error                       { return nil }
func (n *busNode) Close() error                          { return nil }
func (n *busNode) Sim() *sim.Simulator                   { return nil }
func (n *busNode) Collector() *metrics.Collector         { return nil }
func (n *busNode) Epoch() uint64                         { return 0 }
func (n *busNode) LastSyncedEpoch() uint64               { return 0 }
func (n *busNode) PoolIDs() []string                     { return nil }
func (n *busNode) PoolInfo(string) (PoolInfo, bool)      { return PoolInfo{}, false }
func (n *busNode) Positions() []summary.PositionEntry    { return nil }

// publishAndSettle publishes events and waits for the admin watcher to
// fold them in (the bus pumps asynchronously).
func publishAndSettle(t *testing.T, a *Admin, bus *Bus, evs ...Event) {
	t.Helper()
	var wantEpoch uint64
	for _, ev := range evs {
		bus.Publish(ev)
		if ev.Epoch > wantEpoch {
			wantEpoch = ev.Epoch
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		var seen uint64
		for _, c := range a.counts {
			seen += c
		}
		a.mu.Unlock()
		if seen >= uint64(len(evs)) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("admin did not observe %d events in time", len(evs))
}

func TestAdminHealthzAndMetrics(t *testing.T) {
	bus := NewBus()
	node := &busNode{bus: bus}
	tr := trace.New(4)
	sp := tr.Start(trace.StageSeal, 3)
	sp.End()
	a := NewAdmin(node, tr)
	defer bus.Close()

	publishAndSettle(t, a, bus,
		Event{Type: EventEpochStart, Epoch: 3},
		Event{Type: EventSyncConfirmed, Epoch: 2, SyncParts: mainchain.SyncStats{
			PartExecs: 11, PartsApplied: 4, SigVerifies: 5}},
		Event{Type: EventMetaBlock, Epoch: 3, Round: 1},
	)

	h := a.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz status = %d, want 200", rec.Code)
	}
	var hz struct {
		Status      string `json:"status"`
		Epoch       uint64 `json:"epoch"`
		SyncedEpoch uint64 `json:"synced_epoch"`
		Halted      bool   `json:"halted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, rec.Body.String())
	}
	if hz.Status != "ok" || hz.Epoch != 3 || hz.SyncedEpoch != 2 || hz.Halted {
		t.Fatalf("healthz = %+v, want ok/epoch 3/synced 2", hz)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"ammboost_epoch 3\n",
		"ammboost_synced_epoch 2\n",
		"ammboost_halted 0\n",
		"ammboost_sync_part_execs_total 11\n",
		"ammboost_sync_parts_applied_total 4\n",
		"ammboost_sync_sig_verifies_total 5\n",
		`ammboost_event_total{type="meta-block"} 1`,
		"ammboost_trace_spans_total 1\n",
		`ammboost_stage_seconds{stage="seal",q="0.50"}`,
		`ammboost_stage_count{stage="seal"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestAdminStageLinesMatchSummarize pins /metrics to the one stage fold:
// its stage lines are trace.Summarize's rows for the same tracer, row for
// row, so the admin surface and Report.Stages cannot drift apart.
func TestAdminStageLinesMatchSummarize(t *testing.T) {
	bus := NewBus()
	tr := trace.New(4)
	for e := uint64(1); e <= 6; e++ {
		for i := 0; i < 3; i++ {
			tr.Record(trace.SpanRecord{Stage: trace.StageSeal, Epoch: e, Dur: time.Duration(e*10+uint64(i)) * time.Millisecond})
			tr.Record(trace.SpanRecord{Stage: trace.StageExecute, Epoch: e, Shard: int32(i), Dur: time.Duration(i+1) * time.Millisecond})
		}
		tr.Record(trace.SpanRecord{Stage: trace.StageStall, Epoch: e, Dur: time.Millisecond, WaitedOn: "sign"})
	}
	a := NewAdmin(&busNode{bus: bus}, tr)
	defer bus.Close()

	var want []string
	for _, st := range trace.Summarize(tr.Snapshot(0), 0).Stages {
		want = append(want,
			fmt.Sprintf("ammboost_stage_seconds{stage=%q,q=\"0.50\"} %s", st.Stage, secs(st.P50)),
			fmt.Sprintf("ammboost_stage_seconds{stage=%q,q=\"0.95\"} %s", st.Stage, secs(st.P95)),
			fmt.Sprintf("ammboost_stage_seconds{stage=%q,q=\"0.99\"} %s", st.Stage, secs(st.P99)),
			fmt.Sprintf("ammboost_stage_count{stage=%q} %d", st.Stage, st.Count))
	}
	if len(want) != 12 {
		t.Fatalf("summary has %d stage lines, want 12 (three stages)", len(want))
	}

	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var got []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "ammboost_stage_") {
			got = append(got, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/metrics stage lines:\n%s\nwant (trace.Summarize):\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestAdminHaltedHealthz(t *testing.T) {
	bus := NewBus()
	node := &busNode{bus: bus}
	a := NewAdmin(node, nil)
	defer bus.Close()

	publishAndSettle(t, a, bus,
		Event{Type: EventHalted, Epoch: 7, Err: ErrCommitStage})

	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("halted healthz status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"halted":true`) {
		t.Fatalf("halted healthz body = %s", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "halt_reason") {
		t.Fatalf("halted healthz missing halt_reason: %s", rec.Body.String())
	}
}

func TestAdminTraceEndpoint(t *testing.T) {
	bus := NewBus()
	node := &busNode{bus: bus}
	tr := trace.New(4)
	for e := uint64(1); e <= 3; e++ {
		sp := tr.Start(trace.StageCommitBuild, e)
		sp.End()
	}
	a := NewAdmin(node, tr)
	defer bus.Close()

	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?epochs=2", nil))
	if rec.Code != 200 {
		t.Fatalf("trace status = %d, want 200", rec.Code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 2 {
		t.Fatalf("trace?epochs=2 exported %d spans, want 2", spans)
	}

	rec = httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?epochs=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad epochs param status = %d, want 400", rec.Code)
	}
}

func TestAdminTraceDisabled(t *testing.T) {
	bus := NewBus()
	a := NewAdmin(&busNode{bus: bus}, nil)
	defer bus.Close()

	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("trace without tracer status = %d, want 404", rec.Code)
	}
}

func TestAdminDebugEndpoints(t *testing.T) {
	bus := NewBus()
	a := NewAdmin(&busNode{bus: bus}, nil)
	defer bus.Close()

	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s status = %d, want 200", path, rec.Code)
		}
		if b, _ := io.ReadAll(rec.Result().Body); len(b) == 0 {
			t.Errorf("%s returned an empty body", path)
		}
	}
}

func TestAdminCloseUnsubscribes(t *testing.T) {
	bus := NewBus()
	a := NewAdmin(&busNode{bus: bus}, nil)
	a.Close() // must not hang
	bus.Publish(Event{Type: EventEpochStart, Epoch: 9})
	a.mu.Lock()
	epoch := a.epoch
	a.mu.Unlock()
	if epoch != 0 {
		t.Fatalf("closed admin still observed events: epoch = %d", epoch)
	}
	bus.Close()
}

func TestAdminRunDoneOnBusClose(t *testing.T) {
	bus := NewBus()
	a := NewAdmin(&busNode{bus: bus}, nil)
	bus.Close()
	<-a.done
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if !strings.Contains(rec.Body.String(), `"run_done":true`) {
		t.Fatalf("healthz after bus close = %s, want run_done true", rec.Body.String())
	}
}
