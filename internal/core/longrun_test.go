package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
)

// TestLongRunBoundedHeap is the 10k-epoch soak: with retention tied to
// the prune horizon (RetainEpochs), bounded metrics sampling, the
// committee/bank compaction at prune time, and — since PR 6 — the
// lifecycle tracer attached, a node's heap stops growing with epoch
// count. The test warms up for 2k epochs, then asserts the remaining 8k
// epochs add no more than a small constant amount of heap and that
// every per-epoch structure (including the tracer's retention window)
// stays within its horizon.
func TestLongRunBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-epoch soak skipped in -short mode")
	}
	const (
		warmEpochs  = 2_000
		totalEpochs = 10_000
		retain      = 64
		traceWindow = 8
	)
	tr := trace.New(traceWindow)
	cfg := chain.Config{
		Seed:          3,
		NumPools:      4,
		NumShards:     2,
		PipelineDepth: 2,
		EpochRounds:   1,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 4,
		RetainEpochs:  retain,
		Tracer:        tr,
	}
	users := []string{"lu-0", "lu-1", "lu-2"}
	sys, err := NewMultiSystem(cfg, users)
	if err != nil {
		t.Fatal(err)
	}
	heapAt := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Every sync part executes once: at each sync confirmation the bank
	// has started exactly as many executions as it has applied parts.
	reExecuted := 0
	sys.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventSyncConfirmed && ev.SyncParts.PartExecs != ev.SyncParts.PartsApplied {
			reExecuted++
		}
	})
	var warmHeap uint64
	sys.OnEpochStart = func(epoch uint64) {
		if epoch == warmEpochs {
			warmHeap = heapAt()
		}
		for i := 0; i < 4; i++ {
			tx := &summary.Tx{
				ID: fmt.Sprintf("lr-e%d-%d", epoch, i), Kind: gasmodel.KindSwap,
				User: users[i%len(users)], PoolID: sys.PoolIDs()[i%cfg.NumPools],
				ZeroForOne: i%2 == 0, ExactIn: true,
				Amount: u256.FromUint64(uint64(1000 + epoch%512)),
			}
			if _, err := sys.Submit(context.Background(), tx); err != nil {
				t.Errorf("submit epoch %d: %v", epoch, err)
			}
		}
	}
	rep, err := sys.Run(totalEpochs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EpochsRun != totalEpochs {
		t.Fatalf("ran %d epochs", rep.EpochsRun)
	}
	endHeap := heapAt()
	// 8k epochs of post-warmup traffic must not accumulate: allow a
	// generous constant slack for GC noise, but nothing proportional to
	// the 8k epochs (the pre-fix leak grew tens of MB here: committee
	// key material alone was ~2 KB/epoch).
	const slack = 8 << 20
	if endHeap > warmHeap+slack {
		t.Errorf("heap grew %0.1f MB between epoch %d and %d (want < %d MB): leak",
			float64(endHeap-warmHeap)/(1<<20), warmEpochs, totalEpochs, slack>>20)
	}
	// Per-epoch bookkeeping is pinned to its horizon, not the run length.
	if n := len(sys.committees); n > 4 {
		t.Errorf("%d committees retained, want <= 4 (prune-horizon compaction)", n)
	}
	if n := len(sys.SummaryRoots); n > retain+8 {
		t.Errorf("%d summary roots retained, want <= retain horizon %d", n, retain)
	}
	if n := len(sys.recsByEpoch); n > 4 {
		t.Errorf("%d receipt-table epochs retained, want <= in-flight window", n)
	}
	if n := len(sys.Bank().SummaryRoots); n > retain+8 {
		t.Errorf("bank retained %d summary roots, want <= %d", n, retain)
	}
	if reExecuted != 0 {
		t.Errorf("PartExecs != PartsApplied at %d sync confirmations, want every part executed once", reExecuted)
	}
	// The tracer recorded through all 10k epochs but retains only its
	// window — the bounded-memory half of the "leave it on in
	// production" contract (the heap bound above is the other half).
	if n := len(tr.Epochs()); n > traceWindow {
		t.Errorf("tracer retained %d epochs, want <= %d", n, traceWindow)
	}
	if tr.Total() < uint64(totalEpochs) {
		t.Errorf("tracer recorded %d spans over %d epochs, want at least one per epoch",
			tr.Total(), totalEpochs)
	}
	for _, e := range tr.Epochs() {
		if e < totalEpochs-2*traceWindow {
			t.Errorf("tracer retained stale epoch %d (run ended at %d)", e, totalEpochs)
		}
	}
}

// TestEventDropSurfacing wires the bus's slow-subscriber accounting
// through to the run report: an abandoned subscriber whose buffer is
// already full drops the run's events, and the collector surfaces them
// after the run.
func TestEventDropSurfacing(t *testing.T) {
	cfg := recoveryCfg(23, 4, 2, 2)
	sys, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, sys, 23, 16)
	ch := sys.Subscribe(chain.MaskAll) // never read
	for range chain.DefaultEventBuffer {
		sys.bus.Publish(chain.Event{Type: chain.EventEpochStart})
	}
	rep, err := sys.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Collector.EventDrops(); got <= 0 {
		t.Fatalf("collector surfaced %d event drops, want > 0", got)
	}
	sawLagged := false
	for ev := range ch {
		if ev.Type == chain.EventLagged && ev.Dropped > 0 {
			sawLagged = true
		}
	}
	if !sawLagged {
		t.Error("abandoned subscriber never saw an EventLagged marker")
	}
}
