package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// TestIngestSaturationTypedRejections pins admission control under
// producer overload: with a tiny mempool and blocking disabled, eight
// producers spamming SubmitBatch against a running node see ONLY typed
// outcomes — a receipt, ErrMempoolFull, or ErrClosed — never a drop, a
// panic, or an untyped error; every ErrMempoolFull carries a retry hint
// and the occupancy snapshot; and the node's report reconciles exactly
// with the client-side counts. Below the wall, with the round
// boundaries' drains, admission allocates only what the caller gets
// back: a Submit its receipt, a SubmitBatch its result, the result's
// receipt and error slices, the receipts' one slab and the entries and
// indices it admits.
func TestIngestSaturationTypedRejections(t *testing.T) {
	cfg, _ := multiTestConfigs(7, 8, 4, 0)
	cfg.IngestCapacity = 256
	cfg.IngestMaxWait = -1 // reject immediately at the wall, never block
	wcfg := workload.DefaultMultiConfig(7, cfg.NumPools)
	wcfg.NumUsers = 30
	const producers = 8
	gens := workload.Producers(wcfg, producers)
	sys, err := NewMultiSystem(cfg, gens[0].Users())
	if err != nil {
		t.Fatalf("NewMultiSystem: %v", err)
	}

	var accepted, rejFull, closed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := gens[p]
			for sent := 0; sent < 2000; sent += 25 {
				txs := make([]*summary.Tx, 25)
				for i := range txs {
					txs[i] = gen.Next()
				}
				res, batchErr := sys.SubmitBatch(context.Background(), txs)
				if batchErr != nil {
					if errors.Is(batchErr, chain.ErrClosed) {
						// The node is done taking traffic: this batch was
						// refused whole, and the producer abandons the rest
						// of its quota — all of it accounted as closed.
						closed.Add(int64(2000 - sent))
						return
					}
					t.Errorf("producer %d: unexpected batch error %v", p, batchErr)
					return
				}
				accepted.Add(int64(res.Accepted))
				for i, err := range res.Errs {
					// Exactly one of receipt / error, always.
					if (res.Receipts[i] == nil) == (err == nil) {
						t.Errorf("producer %d: receipt/error disagree at %d: rc=%v err=%v",
							p, i, res.Receipts[i], err)
					}
					switch {
					case err == nil:
					case errors.Is(err, chain.ErrMempoolFull):
						rejFull.Add(1)
						var ad *chain.AdmissionError
						if !errors.As(err, &ad) {
							t.Errorf("producer %d: ErrMempoolFull without AdmissionError: %v", p, err)
						} else if ad.RetryAfter <= 0 || ad.Capacity != 256 {
							t.Errorf("producer %d: bad admission error %+v", p, ad)
						}
					case errors.Is(err, chain.ErrClosed):
						closed.Add(1)
					default:
						t.Errorf("producer %d: untyped rejection %v", p, err)
					}
				}
			}
		}(p)
	}
	rep, err := sys.Run(2)
	wg.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	total := accepted.Load() + rejFull.Load() + closed.Load()
	if total != producers*2000 {
		t.Errorf("outcomes account for %d txs, want %d", total, producers*2000)
	}
	if accepted.Load() == 0 || rejFull.Load() == 0 {
		t.Errorf("saturation run should both accept and reject (accepted=%d rejected=%d)",
			accepted.Load(), rejFull.Load())
	}
	if rep.IngestAdmitted != uint64(accepted.Load()) {
		t.Errorf("report admitted %d, clients saw %d", rep.IngestAdmitted, accepted.Load())
	}
	if rep.IngestRejFull != uint64(rejFull.Load()) {
		t.Errorf("report rejected-full %d, clients saw %d", rep.IngestRejFull, rejFull.Load())
	}
	if rep.IngestPeak > 256 {
		t.Errorf("ingest peak %d exceeds capacity 256", rep.IngestPeak)
	}
	if rep.IngestThrottled != 0 || rep.IngestCanceled != 0 {
		t.Errorf("unexpected throttle/cancel counts: %d/%d", rep.IngestThrottled, rep.IngestCanceled)
	}

	t.Run("allocs-below-the-wall", func(t *testing.T) {
		cfg, _ := multiTestConfigs(7, 8, 2, 0)
		gen := workload.NewMulti(wcfg)
		sys, err := NewMultiSystem(cfg, gen.Users())
		if err != nil {
			t.Fatalf("NewMultiSystem: %v", err)
		}
		defer sys.Close()
		txs := make([]*summary.Tx, 4096)
		for i := range txs {
			txs[i] = gen.Next()
		}
		ctx, next := context.Background(), 0
		admit := func(n int) {
			if sys.ingest.Len() >= len(txs) { // a round boundary's drain
				sys.ingest.Drain()
			}
			if next+n > len(txs) {
				next = 0
			}
			if n == 1 {
				if _, err := sys.Submit(ctx, txs[next]); err != nil {
					t.Fatal(err)
				}
			} else if res, err := sys.SubmitBatch(ctx, txs[next:next+n]); err != nil || res.Accepted != n {
				t.Fatalf("batch: %v, %d of %d accepted", err, res.Accepted, n)
			}
			next += n
		}
		if got := testing.AllocsPerRun(10_000, func() { admit(1) }); got != 1 {
			t.Errorf("Submit allocates %.2f times, want 1 (its receipt)", got)
		}
		if got := testing.AllocsPerRun(200, func() { admit(64) }); got != 6 {
			t.Errorf("a 64-transaction SubmitBatch allocates %.2f times, want 6", got)
		}
	})
}

// TestIngestCancelMidBackpressure pins context handling while a
// producer is parked on a full mempool: cancellation surfaces as a typed
// ErrCanceled — distinct from ErrMempoolFull — without waiting out the
// admission deadline.
func TestIngestCancelMidBackpressure(t *testing.T) {
	cfg, _ := multiTestConfigs(5, 8, 1, 0)
	cfg.PipelineDepth = 1
	cfg.IngestCapacity = 1
	cfg.IngestMaxWait = time.Minute // far longer than the test tolerates
	wcfg := workload.DefaultMultiConfig(5, cfg.NumPools)
	wcfg.NumUsers = 10
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(cfg, gen.Users())
	if err != nil {
		t.Fatalf("NewMultiSystem: %v", err)
	}
	defer sys.Close()

	if _, err := sys.Submit(context.Background(), gen.Next()); err != nil {
		t.Fatalf("fill submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rc, err := sys.Submit(ctx, gen.Next())
	if rc != nil || !errors.Is(err, chain.ErrCanceled) {
		t.Fatalf("canceled submit = (%v, %v), want (nil, ErrCanceled)", rc, err)
	}
	if errors.Is(err, chain.ErrMempoolFull) {
		t.Error("cancellation must not also read as ErrMempoolFull")
	}
	var ad *chain.AdmissionError
	if !errors.As(err, &ad) || ad.Occupancy != 1 || ad.Capacity != 1 {
		t.Errorf("admission error = %+v, want occupancy 1/1", ad)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("cancellation took %v, should not wait out the 1m admission deadline", waited)
	}
}

// TestSubmitAfterRunReturnsClosed pins the end-of-life surface on both
// constructors' nodes: once the lifecycle finished its final epoch and closed the
// ingest front end, both submission paths refuse with ErrClosed (not
// ErrHalted — the node did not fault) and a zero retry hint.
func TestSubmitAfterRunReturnsClosed(t *testing.T) {
	multiCfg, multiDrv := multiTestConfigs(5, 8, 4, 1)
	backends := []struct {
		name  string
		build func() (chain.Chain, error)
	}{
		{"single-pool", func() (chain.Chain, error) {
			sys, _, err := NewDriver(smallConfig(5), smallDriver(500_000, 1, 5))
			return sys, err
		}},
		{"multi-pool", func() (chain.Chain, error) {
			sys, _, err := NewMultiDriver(multiCfg, multiDrv)
			return sys, err
		}},
	}
	// Valid on either node: the empty pool ID routes to the default pool.
	late := func(id string) *summary.Tx {
		return &summary.Tx{ID: id, Kind: gasmodel.KindSwap, User: "user-000",
			ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(100)}
	}
	for _, b := range backends {
		sys, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if _, err := sys.Run(1); err != nil {
			t.Fatalf("%s: run: %v", b.name, err)
		}
		rc, err := sys.Submit(context.Background(), late("late-0"))
		if rc != nil || !errors.Is(err, chain.ErrClosed) {
			t.Fatalf("%s: late submit = (%v, %v), want (nil, ErrClosed)", b.name, rc, err)
		}
		if errors.Is(err, chain.ErrHalted) {
			t.Errorf("%s: clean shutdown must not read as ErrHalted", b.name)
		}
		var ad *chain.AdmissionError
		if !errors.As(err, &ad) {
			t.Fatalf("%s: ErrClosed is not an AdmissionError: %v", b.name, err)
		}
		if ad.RetryAfter != 0 {
			t.Errorf("%s: closed-node retry hint = %v, want 0 (retrying is pointless)", b.name, ad.RetryAfter)
		}
		res, batchErr := sys.SubmitBatch(context.Background(), []*summary.Tx{late("late-1"), late("late-2")})
		if !errors.Is(batchErr, chain.ErrClosed) {
			t.Fatalf("%s: late batch error = %v, want ErrClosed", b.name, batchErr)
		}
		for i := range res.Errs {
			if res.Receipts[i] != nil || !errors.Is(res.Errs[i], chain.ErrClosed) {
				t.Errorf("%s: late batch outcome %d = (%v, %v), want (nil, ErrClosed)",
					b.name, i, res.Receipts[i], res.Errs[i])
			}
		}
	}
}

// TestCloseWaitsForParkedProducer pins the end-of-run decision against a
// producer still inside SubmitBatch: the beforeAdmit hook parks it
// between validation (and leaf hashing) and admission while the node
// reaches its final boundary. The call counts as admitting from its
// first line, so the node runs a drain epoch for it instead of closing
// under it and refusing the batch with ErrClosed.
func TestCloseWaitsForParkedProducer(t *testing.T) {
	cfg, _ := multiTestConfigs(3, 4, 2, 0)
	wcfg := workload.DefaultMultiConfig(3, cfg.NumPools)
	wcfg.NumUsers = 4
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(cfg, gen.Users())
	if err != nil {
		t.Fatalf("NewMultiSystem: %v", err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	beforeAdmit = func() {
		close(parked)
		<-release
	}
	t.Cleanup(func() { beforeAdmit = nil })

	type outcome struct {
		res *chain.BatchResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sys.SubmitBatch(context.Background(), []*summary.Tx{gen.Next(), gen.Next()})
		done <- outcome{res, err}
	}()
	<-parked
	const planned = 2
	sys.OnEpochStart = func(e uint64) {
		if e > planned {
			unpark() // the drain epoch the parked call earned
		}
	}
	rep, err := sys.Run(planned)
	unpark() // a node that closed under the producer lets it go here
	out := <-done
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.err != nil {
		t.Fatalf("parked batch refused with %v; the node closed under a producer inside SubmitBatch", out.err)
	}
	if out.res.Accepted != 2 {
		t.Fatalf("parked batch admitted %d of 2", out.res.Accepted)
	}
	if rep.EpochsRun <= planned {
		t.Fatalf("ran %d epochs, want a drain epoch past the planned %d", rep.EpochsRun, planned)
	}
	for i, rc := range out.res.Receipts {
		if rc.Status != chain.StatusPruned {
			t.Errorf("receipt %d ends %v, want pruned", i, rc.Status)
		}
	}
}
