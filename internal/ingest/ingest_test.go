package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
)

func mkEntry(id string) Entry {
	tx := &summary.Tx{ID: id, Kind: gasmodel.KindSwap, User: "u"}
	return Entry{Tx: tx, Rc: &chain.Receipt{TxID: id}}
}

func TestDefaults(t *testing.T) {
	p := New(Policy{})
	pol := p.Policy()
	if pol.Capacity != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", pol.Capacity, DefaultCapacity)
	}
	if pol.SoftMark != DefaultCapacity {
		t.Fatalf("softmark = %d, want capacity (disabled)", pol.SoftMark)
	}
	if pol.MaxWait != DefaultMaxWait {
		t.Fatalf("maxwait = %v, want %v", pol.MaxWait, DefaultMaxWait)
	}
	// Explicit negative MaxWait survives (means "never block").
	if got := New(Policy{MaxWait: -1}).Policy().MaxWait; got != -1 {
		t.Fatalf("negative maxwait = %v, want -1", got)
	}
}

func TestAdmitDrainOrder(t *testing.T) {
	p := New(Policy{})
	for i := 0; i < 100; i++ {
		if err := p.AdmitOne(context.Background(), mkEntry(fmt.Sprintf("tx-%03d", i))); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if p.Len() != 100 {
		t.Fatalf("len = %d, want 100", p.Len())
	}
	got := p.Drain()
	if len(got) != 100 {
		t.Fatalf("drained %d, want 100", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("tx-%03d", i); e.Tx.ID != want {
			t.Fatalf("drain[%d] = %s, want %s", i, e.Tx.ID, want)
		}
		if i > 0 && got[i-1].Seq >= e.Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d", i, got[i-1].Seq, e.Seq)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("len after drain = %d, want 0", p.Len())
	}
	if p.Drain() != nil {
		t.Fatal("second drain should be nil")
	}
}

// TestConcurrentAdmitSeqUnique hammers the pool from many producers and
// checks the drained union is a permutation with unique, gap-free
// sequence numbers in sorted order.
func TestConcurrentAdmitSeqUnique(t *testing.T) {
	p := New(Policy{})
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := p.AdmitOne(context.Background(), mkEntry(fmt.Sprintf("p%d-%d", g, i))); err != nil {
					t.Errorf("admit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := p.Drain()
	if len(got) != producers*each {
		t.Fatalf("drained %d, want %d", len(got), producers*each)
	}
	seen := make(map[uint64]bool, len(got))
	ids := make(map[string]bool, len(got))
	for i, e := range got {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if ids[e.Tx.ID] {
			t.Fatalf("duplicate tx %s", e.Tx.ID)
		}
		ids[e.Tx.ID] = true
		if i > 0 && got[i-1].Seq >= e.Seq {
			t.Fatalf("order violated at %d", i)
		}
	}
	if st := p.Stats(); st.Admitted != producers*each || st.Peak != producers*each {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCapacityBlocksAndDrainWakes(t *testing.T) {
	p := New(Policy{Capacity: 4, MaxWait: 5 * time.Second})
	for i := 0; i < 4; i++ {
		if err := p.AdmitOne(context.Background(), mkEntry(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	admitted := make(chan error, 1)
	go func() { admitted <- p.AdmitOne(context.Background(), mkEntry("blocked")) }()
	select {
	case err := <-admitted:
		t.Fatalf("admit should have blocked, returned %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := p.Drain(); len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("post-drain admit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked producer never woke after drain")
	}
	if got := p.Drain(); len(got) != 1 || got[0].Tx.ID != "blocked" {
		t.Fatalf("second drain = %v", got)
	}
}

func TestMempoolFullTyped(t *testing.T) {
	p := New(Policy{Capacity: 2, MaxWait: time.Millisecond, RetryHint: 7 * time.Second})
	for i := 0; i < 2; i++ {
		if err := p.AdmitOne(context.Background(), mkEntry(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	err := p.AdmitOne(context.Background(), mkEntry("over"))
	if !errors.Is(err, chain.ErrMempoolFull) {
		t.Fatalf("err = %v, want ErrMempoolFull", err)
	}
	var ae *chain.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T not an AdmissionError", err)
	}
	if ae.RetryAfter != 7*time.Second || ae.Capacity != 2 {
		t.Fatalf("admission error = %+v", ae)
	}
	if st := p.Stats(); st.RejFull != 1 {
		t.Fatalf("rejFull = %d, want 1", st.RejFull)
	}
	// MaxWait < 0: immediate rejection, no timer.
	p2 := New(Policy{Capacity: 1, MaxWait: -1})
	if err := p2.AdmitOne(context.Background(), mkEntry("x")); err != nil {
		t.Fatalf("fill: %v", err)
	}
	start := time.Now()
	if err := p2.AdmitOne(context.Background(), mkEntry("y")); !errors.Is(err, chain.ErrMempoolFull) {
		t.Fatalf("err = %v, want ErrMempoolFull", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("MaxWait<0 should reject immediately")
	}
}

func TestSoftMarkShedsBatch(t *testing.T) {
	p := New(Policy{Capacity: 100, SoftMark: 3})
	n, errs, batchErr := p.Admit(context.Background(), []Entry{mkEntry("a"), mkEntry("b"), mkEntry("c")})
	if n != 3 || errs != nil || batchErr != nil {
		t.Fatalf("under mark: n=%d errs=%v batchErr=%v", n, errs, batchErr)
	}
	n, _, batchErr = p.Admit(context.Background(), []Entry{mkEntry("d"), mkEntry("e")})
	if n != 0 || !errors.Is(batchErr, chain.ErrThrottled) {
		t.Fatalf("over mark: n=%d batchErr=%v, want ErrThrottled", n, batchErr)
	}
	if st := p.Stats(); st.Throttled != 2 {
		t.Fatalf("throttled = %d, want 2", st.Throttled)
	}
	p.Drain()
	if n, _, batchErr = p.Admit(context.Background(), []Entry{mkEntry("d")}); n != 1 || batchErr != nil {
		t.Fatalf("post-drain: n=%d err=%v", n, batchErr)
	}
}

func TestBatchPartialAccept(t *testing.T) {
	p := New(Policy{Capacity: 3, MaxWait: -1})
	batch := []Entry{mkEntry("a"), mkEntry("b"), mkEntry("c"), mkEntry("d"), mkEntry("e")}
	n, errs, batchErr := p.Admit(context.Background(), batch)
	if batchErr != nil {
		t.Fatalf("batchErr = %v", batchErr)
	}
	if n != 3 {
		t.Fatalf("accepted %d, want 3", n)
	}
	if len(errs) != 5 || errs[0] != nil || errs[2] != nil {
		t.Fatalf("errs = %v", errs)
	}
	for i := 3; i < 5; i++ {
		if !errors.Is(errs[i], chain.ErrMempoolFull) {
			t.Fatalf("errs[%d] = %v, want ErrMempoolFull", i, errs[i])
		}
	}
	if got := p.Drain(); len(got) != 3 || got[0].Tx.ID != "a" || got[2].Tx.ID != "c" {
		t.Fatalf("drain = %v", got)
	}
}

func TestCancelMidBackpressure(t *testing.T) {
	p := New(Policy{Capacity: 1, MaxWait: time.Minute})
	if err := p.AdmitOne(context.Background(), mkEntry("fill")); err != nil {
		t.Fatalf("fill: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- p.AdmitOne(ctx, mkEntry("waiting")) }()
	select {
	case err := <-res:
		t.Fatalf("should block, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, chain.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock producer")
	}
	if st := p.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
	// Pre-canceled context refuses the whole batch up front.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, batchErr := p.Admit(ctx2, []Entry{mkEntry("x")}); !errors.Is(batchErr, chain.ErrCanceled) {
		t.Fatalf("batchErr = %v, want ErrCanceled", batchErr)
	}
}

func TestCloseWakesAndRejects(t *testing.T) {
	p := New(Policy{Capacity: 1, MaxWait: time.Minute})
	if err := p.AdmitOne(context.Background(), mkEntry("fill")); err != nil {
		t.Fatalf("fill: %v", err)
	}
	res := make(chan error, 1)
	go func() { res <- p.AdmitOne(context.Background(), mkEntry("waiting")) }()
	time.Sleep(20 * time.Millisecond)
	p.Close()
	select {
	case err := <-res:
		if !errors.Is(err, chain.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake blocked producer")
	}
	if err := p.AdmitOne(context.Background(), mkEntry("late")); !errors.Is(err, chain.ErrClosed) {
		t.Fatalf("late admit = %v, want ErrClosed", err)
	}
	// Buffered entries stay drainable after close.
	if got := p.Drain(); len(got) != 1 || got[0].Tx.ID != "fill" {
		t.Fatalf("drain after close = %v", got)
	}
}

func TestCloseIfEmpty(t *testing.T) {
	p := New(Policy{})
	if !p.CloseIfEmpty() {
		t.Fatal("empty pool should close")
	}
	if !p.CloseIfEmpty() {
		t.Fatal("closed pool stays closed")
	}
	p2 := New(Policy{})
	if err := p2.AdmitOne(context.Background(), mkEntry("x")); err != nil {
		t.Fatal(err)
	}
	if p2.CloseIfEmpty() {
		t.Fatal("non-empty pool must not close")
	}
	if p2.Closed() {
		t.Fatal("failed CloseIfEmpty must reopen")
	}
	p2.Drain()
	if !p2.CloseIfEmpty() {
		t.Fatal("drained pool should close")
	}
}

// TestCloseIfEmptyRace: producers racing CloseIfEmpty either get
// admitted (and are drained) or get ErrClosed — never stranded in a
// closed pool.
func TestCloseIfEmptyRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		p := New(Policy{MaxWait: -1})
		const producers = 4
		var admitted, rejected int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					err := p.AdmitOne(context.Background(), mkEntry(fmt.Sprintf("p%d-%d", g, i)))
					mu.Lock()
					if err == nil {
						admitted++
					} else if errors.Is(err, chain.ErrClosed) {
						rejected++
					} else {
						t.Errorf("unexpected err %v", err)
					}
					mu.Unlock()
				}
			}(g)
		}
		var drained int64
		for !p.CloseIfEmpty() {
			drained += int64(len(p.Drain()))
		}
		wg.Wait()
		drained += int64(len(p.Drain())) // sweep any post-close stragglers (there must be none)
		if drained != admitted {
			t.Fatalf("iter %d: drained %d != admitted %d (rejected %d)", iter, drained, admitted, rejected)
		}
	}
}

// TestCloseIfEmptyNeverReportsLivePoolClosed: a pool that is never empty
// never closes, so no producer may ever be told it did — a CloseIfEmpty
// that decides against closing must not be observable as chain.ErrClosed.
// One resident entry keeps the pool occupied; the consumer loops
// CloseIfEmpty while producers hammer Admit.
func TestCloseIfEmptyNeverReportsLivePoolClosed(t *testing.T) {
	const producers, batches, batchLen = 4, 2000, 4
	p := New(Policy{}) // default capacity: far above what is admitted here
	if err := p.AdmitOne(context.Background(), mkEntry("resident")); err != nil {
		t.Fatal(err)
	}
	var spurious, admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]Entry, batchLen)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = mkEntry(fmt.Sprintf("p%d-%d-%d", g, i, j))
				}
				n, errs, err := p.Admit(context.Background(), batch)
				admitted.Add(int64(n))
				if errors.Is(err, chain.ErrClosed) {
					spurious.Add(1)
				}
				for _, e := range errs {
					if errors.Is(e, chain.ErrClosed) {
						spurious.Add(1)
					}
				}
			}
		}(g)
	}
	producersDone := make(chan struct{})
	go func() { wg.Wait(); close(producersDone) }()
	closes := 0
	for done := false; !done; {
		select {
		case <-producersDone:
			done = true
		default:
		}
		if p.CloseIfEmpty() {
			t.Fatal("CloseIfEmpty closed an occupied pool")
		}
		closes++
	}
	if n := spurious.Load(); n != 0 {
		t.Errorf("%d admissions saw ErrClosed on a pool that never closed (%d CloseIfEmpty calls)", n, closes)
	}
	const want = producers * batches * batchLen
	if got := admitted.Load(); got != want {
		t.Errorf("admitted %d, want %d", got, want)
	}
	if st := p.Stats(); st.Admitted != want+1 || p.Len() != want+1 {
		t.Errorf("stats admitted %d, len %d, want %d", st.Admitted, p.Len(), want+1)
	}
	if got := len(p.Drain()); got != want+1 {
		t.Errorf("drained %d, want %d", got, want+1)
	}
}

// TestCloseIfEmptyNeverReopensClosedPool: a Close from another goroutine
// racing CloseIfEmpty on an occupied pool must stick — the "not empty"
// verdict may not reopen it.
func TestCloseIfEmptyNeverReopensClosedPool(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		p := New(Policy{})
		if err := p.AdmitOne(context.Background(), mkEntry("resident")); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() { p.Close(); close(closed) }()
		for done := false; !done; {
			select {
			case <-closed:
				done = true
			default:
			}
			p.CloseIfEmpty() // occupied: always the reopen branch
		}
		if !p.Closed() {
			t.Fatalf("iter %d: pool open after Close returned", iter)
		}
		if err := p.AdmitOne(context.Background(), mkEntry("late")); !errors.Is(err, chain.ErrClosed) {
			t.Fatalf("iter %d: admit after Close = %v, want ErrClosed", iter, err)
		}
	}
}

// TestCloseIfEmptyWaitsForParkedProducer: a producer parked at the
// capacity wall has nothing buffered, and the drain that empties the pool
// is what wakes it — the pool must not close between that wake-up and the
// producer's append, or the rest of a batch offered before the decision
// to stop is refused.
func TestCloseIfEmptyWaitsForParkedProducer(t *testing.T) {
	for iter := 0; iter < 1000; iter++ {
		p := New(Policy{Capacity: 1, MaxWait: time.Minute})
		type result struct {
			n    int
			errs []error
			err  error
		}
		done := make(chan result, 1)
		go func() {
			n, errs, err := p.Admit(context.Background(), []Entry{mkEntry("a"), mkEntry("b")})
			done <- result{n, errs, err}
		}()
		for p.Len() != 1 {
			runtime.Gosched()
		}
		drained := 0
		for {
			drained += len(p.Drain())
			if p.CloseIfEmpty() {
				break
			}
			runtime.Gosched()
		}
		r := <-done
		if r.n != 2 || r.err != nil || r.errs != nil {
			t.Fatalf("iter %d: admitted %d of 2 (errs %v, err %v)", iter, r.n, r.errs, r.err)
		}
		if drained != 2 {
			t.Fatalf("iter %d: drained %d of 2 before closing", iter, drained)
		}
	}
}

// TestConcurrentBatchSaturation: every submission under saturation
// resolves to admitted or a typed error; totals reconcile exactly.
func TestConcurrentBatchSaturation(t *testing.T) {
	p := New(Policy{Capacity: 64, MaxWait: time.Millisecond, RetryHint: time.Second})
	const producers, batches, batchLen = 8, 30, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	var drained int64
	go func() { // slow consumer: keeps the pool saturated most of the time
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				drained += int64(len(p.Drain()))
				return
			case <-time.After(2 * time.Millisecond):
				drained += int64(len(p.Drain()))
			}
		}
	}()
	var okTot, errTot int64
	var mu sync.Mutex
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Entry, batchLen)
				for i := range batch {
					batch[i] = mkEntry(fmt.Sprintf("p%d-b%d-%d", g, b, i))
				}
				n, errs, batchErr := p.Admit(context.Background(), batch)
				mu.Lock()
				okTot += int64(n)
				if batchErr != nil {
					if !errors.Is(batchErr, chain.ErrThrottled) && !errors.Is(batchErr, chain.ErrMempoolFull) && !errors.Is(batchErr, chain.ErrCanceled) {
						t.Errorf("untyped batchErr: %v", batchErr)
					}
					errTot += int64(batchLen)
				} else if errs != nil {
					for _, e := range errs {
						if e == nil {
							continue
						}
						if !errors.Is(e, chain.ErrMempoolFull) && !errors.Is(e, chain.ErrThrottled) && !errors.Is(e, chain.ErrCanceled) {
							t.Errorf("untyped per-tx err: %v", e)
						}
						errTot++
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
	if okTot+errTot != producers*batches*batchLen {
		t.Fatalf("accounting: ok %d + err %d != %d", okTot, errTot, producers*batches*batchLen)
	}
	if drained != okTot {
		t.Fatalf("drained %d != admitted %d", drained, okTot)
	}
	st := p.Stats()
	if int64(st.Admitted) != okTot || int64(st.RejFull+st.Throttled+st.Canceled) != errTot {
		t.Fatalf("stats %+v vs ok %d err %d", st, okTot, errTot)
	}
	if st.Peak > 64 {
		t.Fatalf("peak %d exceeds capacity", st.Peak)
	}
}

// TestDrainCutIsTicketPrefix pins that every drain takes a prefix of the
// admission tickets, so a producer's transactions reach the lifecycle in
// the order it submitted them whatever the drain timing: a producer's
// later entry must never be drained before its earlier one (a burn
// before the mint it burns), however its admissions and the drains
// interleave.
func TestDrainCutIsTicketPrefix(t *testing.T) {
	p := New(Policy{})
	const producers, each = 2, 20_000
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := p.AdmitOne(context.Background(), mkEntry(fmt.Sprintf("p%d-%d", g, i))); err != nil {
					t.Errorf("admit: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var next uint64 = 1 // the ticket the next drain must start with
	drained := 0
	check := func() bool {
		for _, e := range p.Drain() {
			if e.Seq != next {
				t.Errorf("drain %d took ticket %d, want %d: not a prefix of the tickets", drained, e.Seq, next)
				return false
			}
			next++
		}
		drained++
		return true
	}
	for {
		select {
		case <-done:
			check()
			if got := next - 1; got != producers*each {
				t.Fatalf("drained %d entries, want %d", got, producers*each)
			}
			return
		default:
			if !check() {
				<-done
				return
			}
		}
	}
}

// TestSteadyStateAllocs pins the pool's steady-state garbage: once the
// two drain buffers have grown, sixteen 64-entry batches and the drain
// that takes them allocate exactly once — the replacement wake channel.
// A drain that handed out a fresh slice would read 2 here; core's
// per-Submit pin averages over whole batches and cannot see it.
func TestSteadyStateAllocs(t *testing.T) {
	p := New(Policy{})
	batch := make([]Entry, 64)
	for i := range batch {
		batch[i] = mkEntry(fmt.Sprintf("tx-%d", i))
	}
	ctx := context.Background()
	round := func() {
		for range 16 {
			if n, _, err := p.Admit(ctx, batch); n != len(batch) || err != nil {
				t.Fatalf("admit: n=%d err=%v", n, err)
			}
		}
		if got := len(p.Drain()); got != 16*len(batch) {
			t.Fatalf("drained %d, want %d", got, 16*len(batch))
		}
	}
	round() // grow both buffers before measuring
	round()
	if got := testing.AllocsPerRun(50, round); got != 1 {
		t.Fatalf("allocs per round = %v, want 1 (the wake channel)", got)
	}
}
