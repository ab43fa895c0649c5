package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
)

// stamp is one lifecycle instant taken in the node's OnEvent hook: the
// wall-clock offset from the trial's clock at which the (epoch, round)
// meta-block or the epoch's prune was published.
type stamp struct {
	typ   chain.EventType
	epoch uint64
	round uint64
	at    time.Duration
}

// producerLog is what one producer goroutine records. Everything is
// pre-sized during set-up; the producer only stores into it.
type producerLog struct {
	// receipts[i] is stream transaction i's receipt, nil while it has not
	// been accepted (and for good if the node refused it).
	receipts []*chain.Receipt
	// offers[b] is the instant batch b was first offered, taken before
	// the first SubmitBatch that carried it, so time spent blocked at the
	// admission wall or being re-offered counts against its transactions.
	offers []time.Duration
	// spans holds every SubmitBatch call's duration (traced runs only).
	spans []time.Duration
	// reoffers counts SubmitBatch calls that carried a remainder the
	// node turned away with ErrMempoolFull.
	reoffers int
	// abandoned counts transactions never accepted: the node closed or
	// halted under the producer, or refused them for a reason other than
	// a full mempool.
	abandoned int
}

// span is one bench-side wall-clock span around a call into the node.
type span struct {
	name  string
	start time.Duration
	dur   time.Duration
}

// trialOpts selects what a trial attaches beyond the timing drive.
type trialOpts struct {
	// traced attaches the lifecycle tracer and the arrival log, records
	// bench-side spans, and samples the heap at every EventPruned. Timing
	// runs leave it off (Config.Tracer == nil).
	traced bool
	// tmpRoot is where durable trials create their store directory.
	tmpRoot string
	// configure lets tests adjust the node configuration (e.g. a tiny
	// non-blocking mempool for re-offer accounting).
	configure func(*chain.Config)
}

// trial is one measured drive of a workload on a fresh node.
type trial struct {
	gen   time.Duration // stream generation alone
	setup time.Duration // stream generation + node construction
	wall  time.Duration // first offer -> Run returned

	offered   int
	accepted  int
	pruned    int
	reoffers  int
	abandoned int
	mallocs   uint64
	cpu       time.Duration // process CPU over the timed window
	epochs    int
	execMs    []float64 // offer -> EventMetaBlock, ascending
	pruneMs   []float64 // offer -> EventPruned, ascending
	rep       *chain.Report
	gate      []string // correctness-gate misses; empty = pass

	// Durable workloads: what reopening the store the trial wrote cost.
	reopen, compact, export, bootstrap time.Duration
	snapshotBytes                      int

	// Traced trials only.
	tracer      *trace.Tracer
	arrivals    *chain.ArrivalLog
	submitSpans []time.Duration
	spans       []span
	heapPeak    uint64
	cfg         chain.Config
	users       []string
}

func (t *trial) failed() int { return t.offered - t.pruned }

func (t *trial) miss(format string, args ...any) {
	t.gate = append(t.gate, fmt.Sprintf(format, args...))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runTrial drives one trial of w: set-up (streams, node), the closed-loop
// two-producer drive against Run(1), the receipt/event join, and the
// correctness gate. It returns an error only when the harness itself
// could not run (no temp dir, node construction failed); a node that
// misbehaved comes back as gate misses on the trial.
func runTrial(w spec, seed int64, opts trialOpts) (*trial, error) {
	runtime.GC()
	t := &trial{}
	clock := time.Now()

	// ---- set-up: streams, logs, node ----
	streams, users := w.streams(seed)
	t.gen = time.Since(clock)
	cfg := w.nodeConfig(seed, users)
	if opts.traced {
		t.tracer = trace.New(0)
		t.arrivals = chain.NewArrivalLog()
		cfg.Tracer = t.tracer
		cfg.ArrivalLog = t.arrivals
		// Keep every epoch's spans: stage numbers are aggregated from the
		// span records after the run, and the default 8-epoch window
		// would drop all but the tail.
		cfg.TraceBuffer = 1 << 16
	}
	if opts.configure != nil {
		opts.configure(&cfg)
	}
	logs := make([]*producerLog, len(streams))
	for p, s := range streams {
		t.offered += len(s)
		batches := (len(s) + submitBatch - 1) / submitBatch
		logs[p] = &producerLog{
			receipts: make([]*chain.Receipt, len(s)),
			offers:   make([]time.Duration, batches),
		}
		if opts.traced {
			logs[p].spans = make([]time.Duration, 0, batches+batches/8)
		}
	}
	var dir string
	var sys *core.MultiSystem
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(opts.tmpRoot, "store-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		c, err := core.Open(dir, cfg)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		sys = c.(*core.MultiSystem)
	} else {
		var err error
		if sys, err = core.NewMultiSystem(cfg, users); err != nil {
			return nil, fmt.Errorf("new node: %w", err)
		}
	}
	// Event stamping appends to a slice sized for any run this harness
	// makes (one entry per round plus one per epoch): no allocation and
	// no lock on the simulator goroutine.
	stamps := make([]stamp, 0, 1<<16)
	halted := false
	var heapSample [1]metrics.Sample
	heapSample[0].Name = "/memory/classes/heap/objects:bytes"
	sys.OnEvent(func(ev chain.Event) {
		switch ev.Type {
		case chain.EventMetaBlock, chain.EventPruned:
			stamps = append(stamps, stamp{ev.Type, ev.Epoch, ev.Round, time.Since(clock)})
			if opts.traced && ev.Type == chain.EventPruned {
				metrics.Read(heapSample[:])
				if v := heapSample[0].Value.Uint64(); v > t.heapPeak {
					t.heapPeak = v
				}
			}
		case chain.EventHalted:
			halted = true
		}
	})
	t.setup = time.Since(clock)
	t.cfg, t.users = cfg, users

	// ---- timed window: first offer -> Run returns ----
	runtime.GC()
	ctx := context.Background()
	var wg sync.WaitGroup
	var once sync.Once
	primed := make(chan struct{})
	prime := func() { once.Do(func() { close(primed) }) }
	mallocs0, cpu0 := mallocCount(), cpuTime()
	firstOffer := time.Since(clock)
	for p := range streams {
		wg.Add(1)
		go func(stream []*summary.Tx, log *producerLog) {
			defer wg.Done()
			defer prime()
			produce(ctx, sys, stream, log, clock, prime)
		}(streams[p], logs[p])
	}
	// The lifecycle starts once the first SubmitBatch has returned, so
	// epoch 1 cannot run dry and close the node before the load arrives.
	// Waiting for every producer instead would deadlock for IngestMaxWait
	// whenever one producer fills the mempool before the other's first
	// call: that call blocks on a drain only Run can perform.
	<-primed
	runStart := time.Since(clock)
	rep, runErr := sys.Run(1)
	runEnd := time.Since(clock)
	wg.Wait()
	t.wall = runEnd - firstOffer
	t.cpu = cpuTime() - cpu0
	t.mallocs = mallocCount() - mallocs0
	t.rep = rep
	if opts.traced {
		t.spans = append(t.spans, span{"core.run", runStart, runEnd - runStart})
	}

	// ---- join and gate (after Run: nothing below is in the window) ----
	if runErr != nil {
		t.miss("Run: %v", runErr)
	}
	if halted || sys.Halted() {
		t.miss("node halted")
	}
	if rep != nil {
		t.epochs = rep.EpochsRun
		if rep.SyncsOK != rep.EpochsRun {
			t.miss("SyncsOK %d != EpochsRun %d", rep.SyncsOK, rep.EpochsRun)
		}
	}
	if err := sys.Validate(); err != nil {
		t.miss("Validate: %v", err)
	}
	t.join(streams, logs, stamps)
	if t.arrivals != nil && t.arrivals.Total() != t.accepted {
		t.miss("arrival log holds %d txs, producers hold %d accepted receipts", t.arrivals.Total(), t.accepted)
	}
	closedEpoch, closedSynced := sys.Epoch(), sys.LastSyncedEpoch()
	closeStart := time.Since(clock)
	if err := sys.Close(); err != nil {
		t.miss("Close: %v", err)
	}
	if opts.traced {
		t.spans = append(t.spans, span{"core.close", closeStart, time.Since(clock) - closeStart})
	}
	if w.durable {
		t.reopenCheck(dir, cfg, clock, closedEpoch, closedSynced, opts)
	}
	return t, nil
}

// submitter is the one call of the node's serving surface a producer
// makes (core.MultiSystem in every run; a scripted stand-in in the
// re-offer accounting test).
type submitter interface {
	SubmitBatch(ctx context.Context, txs []*summary.Tx) (*chain.BatchResult, error)
}

// produce offers stream to the node in SubmitBatch calls of submitBatch,
// re-offering whatever a full mempool turned away. It is the whole
// producer: no pacing, no sleeping — back-pressure is the node's own
// admission wall (the call blocks in Admit until the next drain).
func produce(ctx context.Context, sys submitter, stream []*summary.Tx, log *producerLog, clock time.Time, prime func()) {
	for off, b := 0, 0; off < len(stream); off, b = off+submitBatch, b+1 {
		end := min(off+submitBatch, len(stream))
		log.offers[b] = time.Since(clock)
		for at := off; at < end; {
			var callStart time.Time
			if log.spans != nil {
				callStart = time.Now()
			}
			res, err := sys.SubmitBatch(ctx, stream[at:end])
			if log.spans != nil {
				log.spans = append(log.spans, time.Since(callStart))
			}
			prime()
			if err != nil {
				// Whole-batch refusal: the node closed, halted or shed
				// the batch. Nothing further will be accepted.
				log.abandoned += len(stream) - at
				return
			}
			// Walk the per-transaction outcomes: admission is
			// order-preserving, so the first ErrMempoolFull marks the
			// remainder to re-offer; a validation failure is skipped for
			// good (later entries of the same call were still attempted).
			i := 0
			for ; i < len(res.Receipts); i++ {
				if rc := res.Receipts[i]; rc != nil {
					log.receipts[at+i] = rc
					continue
				}
				rej := res.Errs[i]
				if errors.Is(rej, chain.ErrMempoolFull) {
					break
				}
				if errors.Is(rej, chain.ErrClosed) || errors.Is(rej, chain.ErrHalted) {
					log.abandoned += len(stream) - (at + i)
					return
				}
				log.abandoned++
			}
			if at += i; at < end {
				log.reoffers++
			}
		}
	}
}

// join matches every receipt to the wall-clock stamps of its (epoch,
// round) meta-block and its epoch's prune, and fills the trial's latency
// samples and outcome counts. A transaction that did not end
// StatusPruned is a failure and is in no latency sample.
func (t *trial) join(streams [][]*summary.Tx, logs []*producerLog, stamps []stamp) {
	metaAt := make(map[[2]uint64]time.Duration)
	prunedAt := make(map[uint64]time.Duration)
	for _, s := range stamps {
		if s.typ == chain.EventMetaBlock {
			metaAt[[2]uint64{s.epoch, s.round}] = s.at
		} else {
			prunedAt[s.epoch] = s.at
		}
	}
	t.execMs = make([]float64, 0, t.offered)
	t.pruneMs = make([]float64, 0, t.offered)
	notPruned, unstamped := 0, 0
	for p, log := range logs {
		t.reoffers += log.reoffers
		t.abandoned += log.abandoned
		if log.spans != nil {
			t.submitSpans = append(t.submitSpans, log.spans...)
		}
		for i := range streams[p] {
			rc := log.receipts[i]
			if rc == nil {
				continue
			}
			t.accepted++
			if rc.Status != chain.StatusPruned {
				notPruned++
				continue
			}
			offer := log.offers[i/submitBatch]
			meta, okM := metaAt[[2]uint64{rc.Epoch, rc.Round}]
			prune, okP := prunedAt[rc.Epoch]
			if !okM || !okP {
				unstamped++
				continue
			}
			t.pruned++
			t.execMs = append(t.execMs, float64(meta-offer)/float64(time.Millisecond))
			t.pruneMs = append(t.pruneMs, float64(prune-offer)/float64(time.Millisecond))
		}
	}
	sort.Float64s(t.execMs)
	sort.Float64s(t.pruneMs)
	if notPruned > 0 {
		t.miss("%d accepted receipts did not reach StatusPruned", notPruned)
	}
	if unstamped > 0 {
		t.miss("%d pruned receipts have no event stamp for their (epoch, round)", unstamped)
	}
}

// reopenCheck opens the store the trial left behind (timed: reopen),
// compacts and exports it, bootstraps a second node from the export, and
// checks that both report the boundary the closed node was at.
func (t *trial) reopenCheck(dir string, cfg chain.Config, clock time.Time, epoch, synced uint64, opts trialOpts) {
	// The reopened nodes are never Run: detach the run's tracer and log.
	cfg.Tracer, cfg.ArrivalLog = nil, nil
	timed := func(name string, fn func() error) time.Duration {
		start := time.Since(clock)
		err := fn()
		d := time.Since(clock) - start
		if err != nil {
			t.miss("%s: %v", name, err)
		}
		if opts.traced {
			t.spans = append(t.spans, span{name, start, d})
		}
		return d
	}
	same := func(what string, c chain.Chain) {
		if c.Epoch() != epoch || c.LastSyncedEpoch() != synced {
			t.miss("%s node at epoch %d synced %d, closed node was at %d synced %d",
				what, c.Epoch(), c.LastSyncedEpoch(), epoch, synced)
		}
	}
	var re chain.Chain
	t.reopen = timed("core.open", func() (err error) { re, err = core.Open(dir, cfg); return err })
	if re == nil {
		return
	}
	same("reopened", re)
	var snap []byte
	t.compact = timed("core.compact_store", func() error { return chain.Compact(re) })
	t.export = timed("core.export_snapshot", func() (err error) {
		snap, err = re.(chain.Compactor).ExportSnapshot()
		return err
	})
	t.snapshotBytes = len(snap)
	if err := re.Close(); err != nil {
		t.miss("close reopened node: %v", err)
	}
	if snap == nil {
		return
	}
	bootDir, err := os.MkdirTemp(opts.tmpRoot, "boot-")
	if err != nil {
		t.miss("bootstrap dir: %v", err)
		return
	}
	defer os.RemoveAll(bootDir)
	var boot chain.Chain
	t.bootstrap = timed("core.bootstrap", func() (err error) {
		boot, err = core.Bootstrap(bootDir, snap, cfg)
		return err
	})
	if boot == nil {
		return
	}
	same("bootstrapped", boot)
	if err := boot.Close(); err != nil {
		t.miss("close bootstrapped node: %v", err)
	}
}
