package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A nil tracer must cost nothing: Start, annotation, and End on the
// disabled path may not allocate.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(StageSeal, 7)
		sp.Txs = 42
		sp.Gas = 1000
		sp.End()
		tr.Record(SpanRecord{Stage: StagePrune, Epoch: 7})
		_ = tr.Since()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(StageExecute, uint64(i))
		sp.Shard = 3
		sp.Txs = 10
		sp.End()
	}
}

func BenchmarkTraceEnabled(b *testing.B) {
	tr := New(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(StageExecute, uint64(i/16))
		sp.Shard = 3
		sp.Txs = 10
		sp.End()
	}
}

// A long run must hold bounded memory: only the newest retention-window
// epochs are retained, each a capped ring.
func TestBoundedRetention(t *testing.T) {
	tr := New(8)
	tr.spanCap = 4
	const epochs = 10_000
	for e := uint64(0); e < epochs; e++ {
		for i := 0; i < 6; i++ { // 6 spans > cap 4: two dropped per epoch
			tr.Record(SpanRecord{Stage: StageSeal, Epoch: e, Dur: time.Millisecond})
		}
	}
	got := tr.Epochs()
	if len(got) != 8 {
		t.Fatalf("retained %d epochs, want 8", len(got))
	}
	for i, e := range got {
		if want := uint64(epochs - 8 + i); e != want {
			t.Fatalf("retained epoch[%d] = %d, want %d", i, e, want)
		}
	}
	if tr.Total() != epochs*6 {
		t.Fatalf("total = %d, want %d", tr.Total(), epochs*6)
	}
	// Ring overwrites are counted as drops (2 per epoch).
	if tr.Dropped() != epochs*2 {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), epochs*2)
	}
	if spans := tr.Snapshot(0); len(spans) != 8*4 {
		t.Fatalf("snapshot holds %d spans, want %d", len(spans), 8*4)
	}
}

// Spans arriving for epochs behind the retention window's floor are
// dropped (counted), not resurrected.
func TestLateEpochDropped(t *testing.T) {
	tr := New(4)
	for e := uint64(10); e < 14; e++ {
		tr.Record(SpanRecord{Stage: StageSeal, Epoch: e})
	}
	tr.Record(SpanRecord{Stage: StageSyncConfirm, Epoch: 3})
	if got := len(tr.Epochs()); got != 4 {
		t.Fatalf("late epoch resurrected: %d epochs retained", got)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	// But an out-of-order epoch still inside the window inserts fine.
	tr2 := New(8)
	tr2.Record(SpanRecord{Stage: StageSeal, Epoch: 5})
	tr2.Record(SpanRecord{Stage: StageSeal, Epoch: 3})
	if got := tr2.Epochs(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("out-of-order insert: epochs = %v", got)
	}
}

func TestSnapshotOrderingAndLastN(t *testing.T) {
	tr := New(8)
	tr.Record(SpanRecord{Stage: StageSeal, Epoch: 2, Start: 30 * time.Microsecond})
	tr.Record(SpanRecord{Stage: StageSubmit, Epoch: 1, Start: 20 * time.Microsecond})
	tr.Record(SpanRecord{Stage: StageExecute, Epoch: 1, Start: 10 * time.Microsecond})
	all := tr.Snapshot(0)
	if len(all) != 3 {
		t.Fatalf("snapshot len = %d", len(all))
	}
	if all[0].Epoch != 1 || all[0].Stage != StageExecute || all[2].Epoch != 2 {
		t.Fatalf("snapshot not (epoch, start)-sorted: %+v", all)
	}
	last := tr.Snapshot(1)
	if len(last) != 1 || last[0].Epoch != 2 {
		t.Fatalf("Snapshot(1) = %+v, want only epoch 2", last)
	}
}

func TestShrinkRetentionEvicts(t *testing.T) {
	tr := New(8)
	for e := uint64(0); e < 8; e++ {
		tr.Record(SpanRecord{Stage: StageSeal, Epoch: e})
	}
	tr.SetRetention(3)
	got := tr.Epochs()
	if len(got) != 3 || got[0] != 5 {
		t.Fatalf("after shrink: epochs = %v, want [5 6 7]", got)
	}
}

// The Chrome export must be valid JSON with thread_name metadata and one
// "X" event per span, on distinct tracks per stage group and per shard.
func TestWriteChrome(t *testing.T) {
	tr := New(8)
	tr.Record(SpanRecord{Stage: StageExecute, Shard: 0, Epoch: 1, Start: 1 * time.Millisecond, Dur: 2 * time.Millisecond, Txs: 9, Gas: 900, Pools: 3})
	tr.Record(SpanRecord{Stage: StageExecute, Shard: 2, Epoch: 1, Start: 1 * time.Millisecond, Dur: 1 * time.Millisecond, Txs: 4, Gas: 400, Pools: 2})
	tr.Record(SpanRecord{Stage: StageCommitBuild, Epoch: 1, Start: 3 * time.Millisecond, Dur: time.Millisecond})
	tr.Record(SpanRecord{Stage: StageStoreFsync, Epoch: 1, Start: 4 * time.Millisecond, Dur: time.Millisecond, Bytes: 128})
	tr.Record(SpanRecord{Stage: StageSyncConfirm, Epoch: 1, Start: 5 * time.Millisecond})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var metas, spans int
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			spans++
			tids[ev.Tid] = true
			if ev.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans != 5 {
		t.Fatalf("exported %d X events, want 5", spans)
	}
	// Distinct tracks: shard 0, shard 2, commit, store, sync.
	for _, tid := range []int{tidShardBase, tidShardBase + 2, tidCommit, tidStore, tidSync} {
		if !tids[tid] {
			t.Fatalf("missing track tid=%d; have %v", tid, tids)
		}
	}
	if metas != len(tids) {
		t.Fatalf("%d thread_name metadata events for %d tracks", metas, len(tids))
	}
}

// A nil tracer still writes a valid, empty trace document.
func TestWriteChromeNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}

func TestStageStrings(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < numStages; s++ {
		name := s.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("stage %d has bad/duplicate label %q", s, name)
		}
		seen[name] = true
	}
}
