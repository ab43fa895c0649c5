package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
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

// ingestMatrixConfig builds the deployment the invariant-13 matrix runs
// on: 8 pools, the given shard count and pipeline depth, short epochs so
// several drain boundaries land inside every epoch.
func ingestMatrixConfig(seed int64, shards, depth int) chain.Config {
	return chain.Config{
		Seed:          seed,
		NumPools:      8,
		NumShards:     shards,
		EpochRounds:   5,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 10,
		PipelineDepth: depth,
	}
}

// receiptFP freezes what a receipt's fingerprint outcome leaves out:
// every per-stage virtual timestamp and the rejection reason. Invariant
// 13 pins timing too, so two runs agree only if these match per
// transaction ID.
type receiptFP struct {
	submitted, executed, checkpointed, synced, pruned time.Duration
	errText                                           string
}

func fingerprintReceipt(rc *chain.Receipt) receiptFP {
	fp := receiptFP{
		submitted: rc.SubmittedAt, executed: rc.ExecutedAt,
		checkpointed: rc.CheckpointedAt, synced: rc.SyncedAt, pruned: rc.PrunedAt,
	}
	if rc.Err != nil {
		fp.errText = rc.Err.Error()
	}
	return fp
}

// ingestRun is everything the determinism comparison pins between an
// N-producer run and its single-producer replay: the epoch count, the
// run fingerprint over every receipt in TxID order, and each receipt's
// timing.
type ingestRun struct {
	epochs int
	fp     chain.Fingerprint
	timing map[string]receiptFP
}

func captureIngestRun(sys *MultiSystem, rep *chain.Report, receipts map[string]*chain.Receipt) ingestRun {
	res := ingestRun{epochs: rep.EpochsRun, timing: make(map[string]receiptFP, len(receipts))}
	var sorted []*chain.Receipt
	for _, id := range slices.Sorted(maps.Keys(receipts)) {
		sorted = append(sorted, receipts[id])
		res.timing[id] = fingerprintReceipt(receipts[id])
	}
	res.fp = sys.Fingerprint(sorted)
	return res
}

// runConcurrentIngest drives one cell of the matrix: `producers`
// goroutines hammer SubmitBatch while the epoch lifecycle runs on this
// goroutine, every accepted receipt is kept, and the node records its
// canonical arrival log. Submissions refused because the node already
// closed after its final epoch are fine — they are in neither the log
// nor the receipt set, so the replay comparison is unaffected.
func runConcurrentIngest(t *testing.T, seed int64, shards, depth, producers, perProducer int) (ingestRun, *chain.ArrivalLog) {
	t.Helper()
	cfg := ingestMatrixConfig(seed, shards, depth)
	log := chain.NewArrivalLog()
	cfg.ArrivalLog = log
	wcfg := workload.DefaultMultiConfig(seed, cfg.NumPools)
	wcfg.NumUsers = 30
	// One extra generator beyond the producer goroutines feeds the
	// late-arrival dump below without sharing RNG state with producer 0.
	gens := workload.Producers(wcfg, producers+1)
	sys, err := NewMultiSystem(cfg, gens[0].Users())
	if err != nil {
		t.Fatalf("NewMultiSystem: %v", err)
	}

	var mu sync.Mutex
	receipts := make(map[string]*chain.Receipt)
	// Producers pace themselves on round ticks so every cell of the
	// matrix sees genuine mid-run arrivals racing the drain boundary
	// (not just a pre-filled mempool). The channel is closed after Run
	// returns, releasing any producer still waiting — its remaining
	// submissions then meet the closed node and stop.
	rounds := make(chan struct{}, 1024)
	dumped := false
	sys.OnRoundStart = func(epoch, round uint64) {
		// At the last planned round, schedule a batch at the CURRENT
		// virtual time: the event runs right after this round's drain
		// and before the end-of-run decision, so the decision always
		// finds pending traffic and must schedule drain epochs — the
		// continuation branch the replay has to reproduce.
		if !dumped && epoch == 2 && round == uint64(cfg.EpochRounds) {
			dumped = true
			sys.Sim().At(sys.Sim().Now(), func() {
				txs := make([]*summary.Tx, 48)
				for i := range txs {
					txs[i] = gens[producers].Next()
				}
				res, batchErr := sys.SubmitBatch(context.Background(), txs)
				if batchErr != nil {
					t.Errorf("late dump: batch error %v", batchErr)
					return
				}
				mu.Lock()
				for i, rc := range res.Receipts {
					if res.Errs[i] != nil {
						t.Errorf("late dump: tx error %v", res.Errs[i])
						continue
					}
					receipts[rc.TxID] = rc
				}
				mu.Unlock()
			})
		}
		select {
		case rounds <- struct{}{}:
		default:
		}
		// Give a woken producer wall-clock room to actually reach the
		// mempool: small single-shard runs otherwise burn through every
		// round before the scheduler runs any producer goroutine.
		time.Sleep(100 * time.Microsecond)
	}
	var wg, primed sync.WaitGroup
	primed.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			first := true
			defer func() {
				if first {
					primed.Done()
				}
			}()
			gen := gens[p]
			for sent := 0; sent < perProducer; {
				sz := 32
				if perProducer-sent < sz {
					sz = perProducer - sent
				}
				txs := make([]*summary.Tx, sz)
				for i := range txs {
					txs[i] = gen.Next()
				}
				sent += sz
				res, batchErr := sys.SubmitBatch(context.Background(), txs)
				if batchErr != nil {
					if errors.Is(batchErr, chain.ErrClosed) {
						return
					}
					t.Errorf("producer %d: batch error %v", p, batchErr)
					return
				}
				mu.Lock()
				for i, rc := range res.Receipts {
					if res.Errs[i] == nil {
						receipts[rc.TxID] = rc
					} else if !errors.Is(res.Errs[i], chain.ErrClosed) {
						t.Errorf("producer %d: tx error %v", p, res.Errs[i])
					}
				}
				mu.Unlock()
				if first {
					// The lifecycle only starts once every producer has
					// traffic in the mempool, so the run never closes
					// before the contention it is supposed to absorb.
					first = false
					primed.Done()
				} else {
					// Wait for a round tick so arrivals spread across
					// boundaries, but keep flowing on a timeout — traffic
					// outlasting the planned epochs forces the end-of-run
					// decision to schedule drain epochs, the branch replay
					// must reproduce.
					select {
					case <-rounds:
					case <-time.After(300 * time.Microsecond):
					}
				}
			}
		}(p)
	}
	primed.Wait()
	rep, err := sys.Run(2)
	close(rounds)
	wg.Wait()
	if err != nil {
		t.Fatalf("concurrent run(seed=%d shards=%d depth=%d): %v", seed, shards, depth, err)
	}
	if log.Total() != len(receipts) {
		t.Fatalf("arrival log holds %d txs, producers hold %d accepted receipts", log.Total(), len(receipts))
	}
	return captureIngestRun(sys, rep, receipts), log
}

// runReplayIngest replays an arrival log through a fresh single-producer
// node of the same configuration. Boundary k's transactions must sit in
// the mempool after round k-1 retires and before round k's drain, so the
// end-of-epoch continuation decision sees exactly what the concurrent
// run's decision saw: boundary 0 is pre-scheduled at virtual zero (FIFO
// ordering runs it before the first round), and the OnRoundStart hook
// for round k schedules boundary k+1 at the current virtual time — the
// injection fires right after the round's event returns, ahead of any
// later decision or drain.
func runReplayIngest(t *testing.T, seed int64, shards, depth int, log *chain.ArrivalLog) (ingestRun, *chain.ArrivalLog) {
	t.Helper()
	cfg := ingestMatrixConfig(seed, shards, depth)
	replayLog := chain.NewArrivalLog()
	cfg.ArrivalLog = replayLog
	wcfg := workload.DefaultMultiConfig(seed, cfg.NumPools)
	wcfg.NumUsers = 30
	users := workload.NewMulti(wcfg).Users()
	sys, err := NewMultiSystem(cfg, users)
	if err != nil {
		t.Fatalf("NewMultiSystem(replay): %v", err)
	}

	receipts := make(map[string]*chain.Receipt)
	inject := func(txs []*summary.Tx) {
		for _, tx := range txs {
			rc, err := sys.Submit(context.Background(), tx)
			if err != nil {
				t.Errorf("replay submit %s: %v", tx.ID, err)
				continue
			}
			receipts[rc.TxID] = rc
		}
	}
	if txs := log.Txs(0); len(txs) > 0 {
		sys.Sim().At(0, func() { inject(txs) })
	}
	boundary := 0
	sys.OnRoundStart = func(epoch, round uint64) {
		k := boundary + 1
		boundary = k
		if txs := log.Txs(k); len(txs) > 0 {
			sys.Sim().At(sys.Sim().Now(), func() { inject(txs) })
		}
	}
	rep, err := sys.Run(2)
	if err != nil {
		t.Fatalf("replay run(seed=%d shards=%d depth=%d): %v", seed, shards, depth, err)
	}
	return captureIngestRun(sys, rep, receipts), replayLog
}

// compareIngestRuns asserts bit-identical run outcomes: epoch count, run
// fingerprint, and every receipt's stage timing.
func compareIngestRuns(t *testing.T, label string, base, got ingestRun) {
	t.Helper()
	if got.epochs != base.epochs {
		t.Errorf("%s: ran %d epochs, want %d", label, got.epochs, base.epochs)
	}
	if err := base.fp.Diff(got.fp); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	diverged := 0
	for id, fp := range base.timing {
		if other := got.timing[id]; other != fp {
			if diverged < 3 {
				t.Errorf("%s: receipt %s timing diverged: %+v vs %+v", label, id, other, fp)
			}
			diverged++
		}
	}
	if diverged > 3 {
		t.Errorf("%s: %d receipts diverged in total", label, diverged)
	}
}

// TestConcurrentIngestReplayDeterminism pins invariant 13 across the
// acceptance matrix: a 4-producer concurrent run and a single-producer
// replay of its arrival log produce bit-identical epoch summary roots,
// sync payload digests, and receipt stage sequences, for seeds
// {1, 42, 1337} × shard counts {1, 4, 16} × pipeline depths {1, 2}.
// The replay's own arrival log must also reproduce the original
// boundary for boundary — same drain times, same canonical order.
func TestConcurrentIngestReplayDeterminism(t *testing.T) {
	seeds := []int64{1, 42, 1337}
	shardCounts := []int{1, 4, 16}
	depths := []int{1, 2}
	if testing.Short() {
		seeds = []int64{42}
		shardCounts = []int{4}
	}
	for _, seed := range seeds {
		for _, shards := range shardCounts {
			for _, depth := range depths {
				label := fmt.Sprintf("seed=%d shards=%d depth=%d", seed, shards, depth)
				base, log := runConcurrentIngest(t, seed, shards, depth, 4, 250)
				if log.Total() == 0 {
					t.Fatalf("%s: concurrent run admitted nothing", label)
				}
				busy := 0
				for k := 0; k < log.Boundaries(); k++ {
					if len(log.Txs(k)) > 0 {
						busy++
					}
				}
				t.Logf("%s: %d txs across %d of %d boundaries, %d epochs",
					label, log.Total(), busy, log.Boundaries(), base.epochs)
				got, replayLog := runReplayIngest(t, seed, shards, depth, log)
				compareIngestRuns(t, label, base, got)
				if replayLog.Boundaries() != log.Boundaries() {
					t.Errorf("%s: replay recorded %d boundaries, want %d",
						label, replayLog.Boundaries(), log.Boundaries())
					continue
				}
				for k := 0; k < log.Boundaries(); k++ {
					if replayLog.At(k) != log.At(k) {
						t.Errorf("%s: boundary %d drained at %v, want %v",
							label, k, replayLog.At(k), log.At(k))
					}
					want, gotTxs := log.Txs(k), replayLog.Txs(k)
					if len(gotTxs) != len(want) {
						t.Errorf("%s: boundary %d has %d txs, want %d",
							label, k, len(gotTxs), len(want))
						continue
					}
					for i := range want {
						if gotTxs[i].ID != want[i].ID {
							t.Errorf("%s: boundary %d position %d is %s, want %s",
								label, k, i, gotTxs[i].ID, want[i].ID)
							break
						}
					}
				}
			}
		}
	}
}

// TestIngestSaturationTypedRejections pins admission control under
// producer overload: with a tiny mempool and blocking disabled, eight
// producers spamming SubmitBatch against a running node see ONLY typed
// outcomes — a receipt, ErrMempoolFull, or ErrClosed — never a drop, a
// panic, or an untyped error; every ErrMempoolFull carries a retry hint
// and the occupancy snapshot; and the node's report reconciles exactly
// with the client-side counts.
func TestIngestSaturationTypedRejections(t *testing.T) {
	cfg := ingestMatrixConfig(7, 4, 2)
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
}

// TestIngestSoftMarkShedsBatches pins the soft-mark policy: a batch
// arriving while occupancy is at or above the mark is refused whole with
// a typed ErrThrottled carrying the retry hint — no partial admission,
// every per-transaction outcome marked.
func TestIngestSoftMarkShedsBatches(t *testing.T) {
	cfg := ingestMatrixConfig(3, 1, 1)
	cfg.IngestCapacity = 256
	cfg.IngestSoftMark = 16
	wcfg := workload.DefaultMultiConfig(3, cfg.NumPools)
	wcfg.NumUsers = 10
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(cfg, gen.Users())
	if err != nil {
		t.Fatalf("NewMultiSystem: %v", err)
	}
	defer sys.Close()

	for i := 0; i < 16; i++ {
		if _, err := sys.Submit(context.Background(), gen.Next()); err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
	}
	txs := make([]*summary.Tx, 8)
	for i := range txs {
		txs[i] = gen.Next()
	}
	res, batchErr := sys.SubmitBatch(context.Background(), txs)
	if !errors.Is(batchErr, chain.ErrThrottled) {
		t.Fatalf("batch above soft mark returned %v, want ErrThrottled", batchErr)
	}
	var ad *chain.AdmissionError
	if !errors.As(batchErr, &ad) {
		t.Fatalf("ErrThrottled is not an AdmissionError: %v", batchErr)
	}
	if ad.RetryAfter <= 0 || ad.Occupancy < 16 || ad.Capacity != 256 {
		t.Errorf("admission error = %+v, want occupancy >= 16, capacity 256, positive hint", ad)
	}
	if res.Accepted != 0 {
		t.Errorf("shed batch accepted %d txs, want 0", res.Accepted)
	}
	for i := range txs {
		if res.Receipts[i] != nil || !errors.Is(res.Errs[i], chain.ErrThrottled) {
			t.Errorf("shed batch outcome %d = (%v, %v), want (nil, ErrThrottled)",
				i, res.Receipts[i], res.Errs[i])
		}
	}
	// A single submission is not a batch: it passes the soft mark and
	// only the hard capacity wall can refuse it.
	if _, err := sys.Submit(context.Background(), gen.Next()); err != nil {
		t.Errorf("single submit above soft mark: %v, want accepted", err)
	}
}

// TestIngestCancelMidBackpressure pins context handling while a
// producer is parked on a full mempool: cancellation surfaces as a typed
// ErrCanceled — distinct from ErrMempoolFull — without waiting out the
// admission deadline.
func TestIngestCancelMidBackpressure(t *testing.T) {
	cfg := ingestMatrixConfig(5, 1, 1)
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
// backends: once the lifecycle finished its final epoch and closed the
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
	// Valid on either backend: the empty pool ID routes to the default pool.
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
