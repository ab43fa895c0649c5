package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/ingest"
	"ammboost/internal/metrics"
	"ammboost/internal/sidechain"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
)

// queuedTx is a queue entry: the transaction plus the receipt Submit
// handed out for it. The receipt ledger holds the same pairs once they
// execute.
type queuedTx struct {
	tx *summary.Tx
	rc *chain.Receipt
}

// beforeAdmit, when set, runs inside SubmitBatch between validation and
// admission; tests use it to park a producer there.
var beforeAdmit func()

// frontEnd is the client-facing contract the node serves, embedded by
// MultiSystem: admission (Submit, SubmitBatch, the ingest pool and its
// drain into the meta-block queue), the event bus, and the receipt ledger
// that advances each executed transaction through Checkpointed, Synced
// and Pruned.
type frontEnd struct {
	// ingest is the concurrent submission front end: producers admit from
	// any goroutine; the round boundary drains it on the simulator
	// goroutine and appends, in canonical admission order, to queue (which
	// stays simulator-goroutine-only state).
	ingest *ingest.Pool
	// halted mirrors the backend's lifecycle fault for concurrent
	// submitters — the fault itself belongs to the simulator goroutine.
	halted atomic.Bool

	queue     []queuedTx
	queuePeak int
	// queueLeaves[i] is queue[i]'s meta-block leaf, hashed once at
	// admission. It runs beside the queue rather than inside queuedTx
	// because the receipt ledger keeps queuedTx for a whole epoch, and
	// the leaf is dead once the round has folded it.
	queueLeaves [][32]byte

	// users and userSet are the funded users; poolSet holds the routable
	// pool IDs besides the empty one, which always routes to the default
	// pool. All three are immutable after construction, so producers read
	// them without locks.
	users   []string
	userSet map[string]bool
	poolSet map[string]bool

	col      *metrics.Collector
	bus      *chain.Bus
	arrivals *chain.ArrivalLog

	// recsByEpoch is the receipt ledger: each epoch's executed
	// transactions, in execution order, until the epoch prunes.
	recsByEpoch map[uint64][]queuedTx

	// tr is the lifecycle tracer (nil = disabled). Tracing only reads the
	// wall clock — roots and payload digests are bit-identical with
	// tracing on or off (pinned by TestWorld's untraced twin).
	tr *trace.Tracer
	// Submission-validation accounting, aggregated into one submit span
	// per epoch at seal time (per-transaction spans would blow the span
	// cap at realistic volumes).
	submitBusy  time.Duration
	submitTxs   int
	submitFirst time.Duration
}

// initFrontEnd builds the admission path for a node serving users on
// pools and wires the event bus into the
// collector's lifecycle counts. Call it once, at construction.
func (f *frontEnd) initFrontEnd(cfg chain.Config, users, pools []string, tr *trace.Tracer) {
	f.ingest = ingest.New(ingest.Policy{
		Capacity:  cfg.IngestCapacity,
		MaxWait:   cfg.IngestMaxWait,
		RetryHint: cfg.RoundDuration,
	})
	f.users = users
	f.userSet = make(map[string]bool, len(users))
	for _, u := range users {
		f.userSet[u] = true
	}
	f.poolSet = make(map[string]bool, len(pools))
	for _, pid := range pools {
		f.poolSet[pid] = true
	}
	f.col = metrics.New()
	f.bus = chain.NewBus()
	f.bus.OnPublish(func(ev chain.Event) { f.col.ObserveLifecycle(ev.Type.String()) })
	f.arrivals = cfg.ArrivalLog
	f.recsByEpoch = make(map[uint64][]queuedTx)
	f.tr = tr
}

// Collector exposes the metrics collector.
func (f *frontEnd) Collector() *metrics.Collector { return f.col }

// Subscribe returns a channel of lifecycle events matching the mask; the
// channel closes when Run finishes.
func (f *frontEnd) Subscribe(mask chain.EventMask) <-chan chain.Event { return f.bus.Subscribe(mask) }

// Unsubscribe releases an event subscription before the run ends.
func (f *frontEnd) Unsubscribe(ch <-chan chain.Event) { f.bus.Unsubscribe(ch) }

// halt refuses every later submission: producers blocked on admission
// wake with ErrClosed (surfaced as ErrHalted) instead of waiting on
// drains that will never come.
func (f *frontEnd) halt() {
	f.halted.Store(true)
	f.ingest.Close()
}

// checkSubmit validates one transaction up front: shape, pool routing,
// known user. It reads only state that is immutable after construction,
// so it is safe from any producer goroutine — the point of batched
// up-front validation is that the simulator goroutine never pays it.
func (f *frontEnd) checkSubmit(tx *summary.Tx) error {
	if err := chain.CheckTx(tx); err != nil {
		return err
	}
	if tx.PoolID != "" && !f.poolSet[tx.PoolID] {
		return fmt.Errorf("%w: %q", chain.ErrUnknownPool, tx.PoolID)
	}
	if !f.userSet[tx.User] {
		return fmt.Errorf("%w: %s", chain.ErrUnfundedUser, tx.User)
	}
	return nil
}

// submitErr translates pool-closed rejections on a halted node into
// ErrHalted: a producer racing the halt should see the lifecycle fault,
// not a generic closed pool.
func (f *frontEnd) submitErr(err error) error {
	if err != nil && f.halted.Load() && errors.Is(err, chain.ErrClosed) {
		return chain.ErrHalted
	}
	return err
}

// Submit validates the transaction, hashes its meta-block leaf and admits
// it into the concurrent ingest pool; the next round boundary drains it
// into the meta-block queue. Safe to call from any goroutine — this is
// the node's serving path. It admits through the same path as
// SubmitBatch, as a batch of one (typed backpressure, bounded blocking,
// ctx cancellation, a context already done refused before admission).
// The call counts as admitting from its first line, so the end-of-run
// decision waits for it.
func (f *frontEnd) Submit(ctx context.Context, tx *summary.Tx) (*chain.Receipt, error) {
	f.ingest.Hold()
	defer f.ingest.Release()
	if f.halted.Load() {
		return nil, chain.ErrHalted
	}
	if err := f.checkSubmit(tx); err != nil {
		return nil, err
	}
	rc := &chain.Receipt{TxID: tx.ID, PoolID: tx.PoolID, Status: chain.StatusPending}
	_, errs, err := f.ingest.Admit(ctx, []ingest.Entry{{Tx: tx, Rc: rc, Leaf: sidechain.TxLeaf(tx)}})
	if err == nil && errs != nil {
		err = errs[0]
	}
	if err != nil {
		return nil, f.submitErr(err)
	}
	return rc, nil
}

// SubmitBatch validates the whole batch and hashes each valid entry's
// leaf up front, then admits the valid entries in order with
// partial-accept semantics: each transaction ends with exactly one of a
// receipt or a typed error in the BatchResult. Like Submit, the call
// counts as admitting from its first line.
// The call-level error is reserved for whole-batch refusals (halted
// node, closed pool, canceled context)
// — the per-entry outcomes are still filled in when that happens.
// A batch's receipts share one allocation, so a retained receipt keeps
// its whole batch's receipts alive.
func (f *frontEnd) SubmitBatch(ctx context.Context, txs []*summary.Tx) (*chain.BatchResult, error) {
	f.ingest.Hold()
	defer f.ingest.Release()
	if f.halted.Load() {
		return nil, chain.ErrHalted
	}
	res := &chain.BatchResult{
		Receipts: make([]*chain.Receipt, len(txs)),
		Errs:     make([]error, len(txs)),
	}
	slab := make([]chain.Receipt, len(txs))
	entries := make([]ingest.Entry, 0, len(txs))
	idx := make([]int, 0, len(txs))
	for i, tx := range txs {
		if err := f.checkSubmit(tx); err != nil {
			res.Errs[i] = err
			continue
		}
		rc := &slab[i]
		*rc = chain.Receipt{TxID: tx.ID, PoolID: tx.PoolID, Status: chain.StatusPending}
		res.Receipts[i] = rc
		entries = append(entries, ingest.Entry{Tx: tx, Rc: rc, Leaf: sidechain.TxLeaf(tx)})
		idx = append(idx, i)
	}
	if beforeAdmit != nil {
		beforeAdmit()
	}
	n, errs, batchErr := f.ingest.Admit(ctx, entries)
	res.Accepted = n
	if batchErr != nil {
		batchErr = f.submitErr(batchErr)
		for _, i := range idx {
			res.Receipts[i] = nil
			res.Errs[i] = batchErr
		}
		return res, batchErr
	}
	for j, err := range errs { // nil slice when everything was admitted
		if err == nil {
			continue
		}
		i := idx[j]
		res.Receipts[i] = nil
		res.Errs[i] = f.submitErr(err)
	}
	return res, nil
}

// drainIngest merges the concurrent mempool into the meta-block queue
// in canonical admission order, stamping arrival at the drain's virtual
// time now. Runs on the simulator goroutine at every round boundary;
// the drain is also the point where the arrival log records the boundary
// and the tracer accounts the epoch's submission span.
func (f *frontEnd) drainIngest(now time.Duration) {
	start := f.tr.Since()
	entries := f.ingest.Drain()
	for _, en := range entries {
		en.Tx.SubmittedAt = now
		en.Rc.SubmittedAt = now
		f.queue = append(f.queue, queuedTx{tx: en.Tx, rc: en.Rc})
		f.queueLeaves = append(f.queueLeaves, en.Leaf)
	}
	if len(f.queue) > f.queuePeak {
		f.queuePeak = len(f.queue)
	}
	if f.arrivals != nil {
		txs := make([]*summary.Tx, len(entries))
		for i := range entries {
			txs[i] = entries[i].Tx
		}
		f.arrivals.Record(now, txs)
	}
	if f.tr != nil && len(entries) > 0 {
		if f.submitTxs == 0 {
			f.submitFirst = start
		}
		f.submitTxs += len(entries)
		f.submitBusy += f.tr.Since() - start
	}
}

// pendingTxs counts transactions the lifecycle still owes a slot:
// drained into the queue or waiting in the ingest pool.
func (f *frontEnd) pendingTxs() int { return len(f.queue) + f.ingest.Len() }

// flushSubmitSpan records the epoch's aggregated submission-validation
// span (accepted submissions since the last flush). No-op when untraced
// or nothing was submitted.
func (f *frontEnd) flushSubmitSpan(e uint64) {
	if f.tr == nil || f.submitTxs == 0 {
		return
	}
	f.tr.Record(trace.SpanRecord{
		Stage: trace.StageSubmit, Epoch: e,
		Start: f.submitFirst, Dur: f.submitBusy, Txs: f.submitTxs,
	})
	f.submitBusy, f.submitTxs, f.submitFirst = 0, 0, 0
}

// The receipt ledger. Each stage advances every receipt the epoch holds
// before the backend publishes the matching event — the documented
// visibility contract: a subscriber that observes the event may read the
// epoch's receipts at that stage.

// executed records round r's included transactions, whose meta-block was
// appended at the virtual instant at.
func (f *frontEnd) executed(e, r uint64, at time.Duration, included []queuedTx) {
	for _, q := range included {
		q.rc.Status = chain.StatusExecuted
		q.rc.ExecutedAt = at
		q.rc.Epoch = e
		q.rc.Round = r
	}
	f.recsByEpoch[e] = append(f.recsByEpoch[e], included...)
}

// checkpointed advances epoch e's receipts when its summary block mines.
func (f *frontEnd) checkpointed(e uint64, at time.Duration) {
	for _, q := range f.recsByEpoch[e] {
		q.rc.Status = chain.StatusCheckpointed
		q.rc.CheckpointedAt = at
	}
}

// synced advances epoch e's receipts when its Sync is fully confirmed on
// the mainchain, recording each transaction's payout latency.
func (f *frontEnd) synced(e uint64, at time.Duration) {
	for _, q := range f.recsByEpoch[e] {
		f.col.ObserveTx(metrics.TxObservation{
			Kind:        q.tx.Kind,
			SubmittedAt: q.tx.SubmittedAt,
			MinedAt:     q.rc.ExecutedAt,
			PayoutAt:    at,
		})
		q.rc.Status = chain.StatusSynced
		q.rc.SyncedAt = at
	}
}

// pruned advances epoch e's receipts once its meta-blocks are pruned and
// drops the epoch from the ledger.
func (f *frontEnd) pruned(e uint64, at time.Duration) {
	for _, q := range f.recsByEpoch[e] {
		q.rc.Status = chain.StatusPruned
		q.rc.PrunedAt = at
	}
	delete(f.recsByEpoch, e)
}
