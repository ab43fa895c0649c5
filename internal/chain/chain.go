// Package chain defines the unified client-facing node API that
// core.MultiSystem implements, whichever mainchain bank its constructor
// puts behind it. It is one surface the way real node software exposes
// state —
// submission returns a Receipt that advances through the paper's epoch
// lifecycle (Pending → Executed → Checkpointed → Synced → Pruned),
// lifecycle faults surface as typed sentinel errors out of Run instead of
// panics, and the epoch machinery publishes observable Events
// (EpochStart, MetaBlock, SummaryBlock, SyncSubmitted, SyncConfirmed,
// Pruned) through Subscribe.
//
// Submit and SubmitBatch are the node's serving path: safe for many
// concurrent producer goroutines while the epoch lifecycle runs
// underneath. Admission is explicit — a full or throttled mempool turns
// producers away with a typed *AdmissionError (ErrMempoolFull,
// ErrThrottled) carrying a retry hint instead of growing the queue
// without bound, and a producer blocked on backpressure can cancel
// through its context (ErrCanceled). Concurrent arrivals are sequenced
// into one canonical order at each round boundary, so an N-producer run
// and a single-producer replay of the same arrival log (ArrivalLog)
// compute bit-identical state (DESIGN.md invariant 13).
package chain

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/metrics"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// Submission-time validation errors (returned by Submit before the
// transaction enters the queue).
var (
	// ErrUnknownPool rejects a transaction routed to an unregistered pool.
	ErrUnknownPool = errors.New("chain: unknown pool")
	// ErrMalformedTx rejects a structurally invalid transaction (zero
	// swap amount, inverted tick range, burn without a position, …).
	ErrMalformedTx = errors.New("chain: malformed transaction")
	// ErrUnfundedUser rejects a transaction from a user the deployment
	// has never funded (no deposit channel exists for them).
	ErrUnfundedUser = errors.New("chain: unfunded user")
	// ErrHalted rejects submissions after a lifecycle fault stopped the
	// node.
	ErrHalted = errors.New("chain: node halted after lifecycle fault")
)

// Admission-control errors: the ingest front end's typed backpressure
// surface. Each reaches the caller wrapped in an *AdmissionError carrying
// the retry hint and the mempool occupancy observed at rejection; match
// with errors.Is against these sentinels.
var (
	// ErrMempoolFull rejects a submission the mempool had no room for
	// within the admission wait window. Back off for the error's
	// RetryAfter hint (roughly one round: the next drain boundary) and
	// resubmit.
	ErrMempoolFull = errors.New("chain: mempool at capacity")
	// ErrThrottled sheds a whole batch arriving while occupancy is above
	// the soft high-water mark — load shedding before the hard capacity
	// wall, distinct from ErrMempoolFull so clients can treat it as
	// "slow down" rather than "drop".
	ErrThrottled = errors.New("chain: ingest throttled above soft mark")
	// ErrCanceled reports that the producer's context ended while the
	// submission was blocked on admission control — distinct from
	// ErrMempoolFull: the caller gave up, the node did not turn it away.
	ErrCanceled = errors.New("chain: submission canceled by caller")
	// ErrClosed rejects submissions after the ingest front end closed:
	// the run completed its planned epochs and drained, or Close was
	// called. (A node that halted on a lifecycle fault reports ErrHalted
	// instead.)
	ErrClosed = errors.New("chain: ingest closed")
)

// Escrow-claim errors (the federation escrow surface).
var (
	// ErrNoEscrow rejects core.MultiSystem's ClaimRefund on a node with
	// no federation escrow attached (single-tenant deployments).
	ErrNoEscrow = errors.New("chain: no federation escrow attached")
	// ErrNothingClaimable rejects a claim for a user with no parked
	// refund balance on this chain's claimable ledger.
	ErrNothingClaimable = errors.New("chain: nothing claimable")
)

// AdmissionError is the typed backpressure error Submit and SubmitBatch
// return when admission control turns a submission away. Err is one of
// the admission sentinels (ErrMempoolFull, ErrThrottled, ErrCanceled,
// ErrClosed) — errors.Is matches through it — and the remaining fields
// tell the producer what the front door looked like and when to come
// back.
type AdmissionError struct {
	// Err is the admission sentinel classifying the rejection.
	Err error
	// RetryAfter hints when the producer should retry: roughly one round
	// duration, the cadence at which the lifecycle drains the mempool.
	// Zero for rejections where retrying is pointless (ErrClosed).
	RetryAfter time.Duration
	// Occupancy and Capacity snapshot the mempool at rejection time.
	Occupancy int
	Capacity  int
}

// Error renders the rejection with its occupancy snapshot and hint.
func (e *AdmissionError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v (occupancy %d/%d, retry after %s)", e.Err, e.Occupancy, e.Capacity, e.RetryAfter)
	}
	return fmt.Sprintf("%v (occupancy %d/%d)", e.Err, e.Occupancy, e.Capacity)
}

// Unwrap exposes the admission sentinel to errors.Is/errors.As.
func (e *AdmissionError) Unwrap() error { return e.Err }

// Lifecycle errors: typed sentinels that propagate through the sim
// scheduler and out of Run, replacing the former panic sites, so
// fault-injection runs (FaultPlan) are assertable instead of fatal.
var (
	// ErrElectionFailed wraps a failed committee election or key dealing.
	ErrElectionFailed = errors.New("chain: committee election failed")
	// ErrLedgerAppend wraps a sidechain ledger append rejection.
	ErrLedgerAppend = errors.New("chain: sidechain ledger append failed")
	// ErrSignFailed wraps a TSQC signing failure over a sync payload.
	ErrSignFailed = errors.New("chain: TSQC signing failed")
	// ErrSyncReverted surfaces a Sync transaction that was included on
	// the mainchain but reverted (e.g. a corrupted committee signature).
	ErrSyncReverted = errors.New("chain: sync transaction reverted")
	// ErrPruneFailed wraps a failed post-sync pruning pass.
	ErrPruneFailed = errors.New("chain: pruning failed")
	// ErrEngineFailed wraps a sharded-engine epoch lifecycle failure.
	ErrEngineFailed = errors.New("chain: engine epoch lifecycle failed")
	// ErrCommitStage wraps a fault raised inside the asynchronous
	// commit/sync pipeline stage (payload fold, chunking, TSQC signing)
	// before its epoch could retire. The wrapped cause is preserved, so
	// errors.Is also matches the underlying sentinel (e.g. ErrSignFailed).
	// Like every lifecycle fault it halts the node: in-flight pipeline
	// work is drained, no further stage events publish, and subsequent
	// submissions fail with ErrHalted.
	ErrCommitStage = errors.New("chain: commit/sync pipeline stage failed")
	// ErrExecutionRejected marks a receipt whose transaction was turned
	// away by the epoch executor (insufficient deposit, bad position, …).
	ErrExecutionRejected = errors.New("chain: transaction rejected by executor")
	// ErrConsensusStalled surfaces a live-fidelity committee that could
	// not decide a round within Config.LiveRoundTimeout — a partition that
	// outlasts the window, or more than f byzantine replicas. The halt is
	// deterministic: the same seed and fault schedule stall at the same
	// simulated instant on every rerun.
	ErrConsensusStalled = errors.New("chain: live consensus stalled")
	// ErrSyncUnreachable surfaces a sync part that exhausted its
	// retransmission budget over a faulted sidechain→mainchain uplink
	// (Config.SyncFaults): the node cannot prove its epochs to the
	// mainchain and halts deterministically.
	ErrSyncUnreachable = errors.New("chain: mainchain sync path unreachable")
)

// Status is a receipt's position in the epoch lifecycle.
type Status uint8

const (
	// StatusPending: accepted into the node's queue, not yet in a block.
	StatusPending Status = iota
	// StatusExecuted: applied to the epoch snapshot and mined into a
	// meta-block.
	StatusExecuted
	// StatusCheckpointed: the epoch's summary-block is on the sidechain.
	StatusCheckpointed
	// StatusSynced: the epoch's Sync confirmed on the mainchain; payouts
	// are final.
	StatusSynced
	// StatusPruned: the epoch's meta-blocks were pruned; the transaction
	// survives only through the summary checkpoint.
	StatusPruned
	// StatusRejected: turned away by the epoch executor mid-epoch (the
	// receipt's Err holds the reason). Submission-time validation
	// failures never produce a receipt at all.
	StatusRejected
)

// String renders the status for logs and reports.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusExecuted:
		return "executed"
	case StatusCheckpointed:
		return "checkpointed"
	case StatusSynced:
		return "synced"
	case StatusPruned:
		return "pruned"
	case StatusRejected:
		return "rejected"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Receipt is the handle Submit returns: it advances through the epoch
// lifecycle as the node processes the transaction, with per-stage virtual
// timestamps. Receipts are written only from the simulator goroutine;
// read them after Run returns (or from event-driven code that has
// observed the corresponding lifecycle event).
type Receipt struct {
	// TxID is the submitted transaction's ID (or a synthetic deposit ID).
	TxID string
	// PoolID routes multi-pool deployments; empty means the canonical pool.
	PoolID string
	// Status is the current lifecycle stage.
	Status Status
	// Epoch and Round locate the execution slot (set at execution or
	// rejection time).
	Epoch uint64
	Round uint64

	// Per-stage virtual timestamps; zero means "not reached".
	SubmittedAt    time.Duration
	ExecutedAt     time.Duration
	CheckpointedAt time.Duration
	SyncedAt       time.Duration
	PrunedAt       time.Duration

	// Err is the rejection reason when Status == StatusRejected.
	Err error
}

// BatchResult is SubmitBatch's per-transaction outcome set. Partial
// accept is the norm: index i of Receipts and Errs describes input
// transaction i, exactly one of the two is non-nil, and Accepted counts
// the entries that entered the mempool. Per-transaction validation
// failures (ErrMalformedTx, ErrUnknownPool, ErrUnfundedUser) and
// admission failures partway through the batch land in Errs without
// failing the call; SubmitBatch itself errors only when the whole batch
// was refused up front (node halted or closed, batch throttled, context
// already done).
type BatchResult struct {
	// Receipts[i] is transaction i's lifecycle receipt (nil if Errs[i]
	// is set).
	Receipts []*Receipt
	// Errs[i] is transaction i's rejection (nil if accepted). Once one
	// transaction fails admission, the batch's remaining transactions
	// carry the same error: admission is order-preserving, so nothing
	// after the failure point was attempted.
	Errs []error
	// Accepted counts the transactions that entered the mempool.
	Accepted int
}

// PoolInfo is the queryable state of one registered pool.
type PoolInfo struct {
	ID        string
	Reserve0  u256.Int
	Reserve1  u256.Int
	Positions int
}

// Chain is the unified node API. core.MultiSystem implements it, and
// clients submit, run, subscribe and query through it. Code that also
// drives a node's traffic hook or reads its recovery state (for example
// cmd/ammnode, the durable examples and the experiments) type-asserts to
// *core.MultiSystem for that part.
type Chain interface {
	// Submit validates the transaction up front (unknown pool, malformed
	// amounts, unfunded user) and admits it into the mempool, returning
	// the receipt whose status the lifecycle advances. Safe for many
	// concurrent producer goroutines. The error is a submission-time
	// validation sentinel or a typed *AdmissionError (ErrMempoolFull,
	// ErrThrottled, ErrCanceled, ErrClosed); ctx cancels a submission
	// blocked on backpressure. Submit is the single-transaction form of
	// SubmitBatch, with identical admission semantics.
	Submit(ctx context.Context, tx *summary.Tx) (*Receipt, error)
	// SubmitBatch validates and admits many transactions in one call,
	// amortizing per-call overhead, with partial-accept semantics: the
	// BatchResult reports each transaction's receipt or rejection. The
	// error return is reserved for whole-batch refusals (ErrHalted,
	// ErrClosed, ErrThrottled, a context already done) — per-transaction
	// failures never fail the call. Safe for concurrent producers.
	SubmitBatch(ctx context.Context, txs []*summary.Tx) (*BatchResult, error)
	// SubmitDeposit funds a user's epoch deposit. On a node whose bank is
	// the paper's TokenBank (core.NewDriver) this runs the full mainchain
	// deposit flow and the receipt reaches StatusSynced at confirmation;
	// on a MultiBank node the credit lands on the default pool's epoch
	// snapshot directly.
	SubmitDeposit(user string, epoch uint64, amount0, amount1 u256.Int) (*Receipt, error)
	// Subscribe returns a channel of lifecycle events matching the mask.
	// The channel is closed when Run finishes; subscribers must drain it
	// to completion or release it with Unsubscribe.
	Subscribe(mask EventMask) <-chan Event
	// Unsubscribe releases a subscription before the run ends: the
	// channel closes, undelivered events are dropped, and the node stops
	// buffering for it.
	Unsubscribe(ch <-chan Event)
	// Run executes the planned epochs (plus drain epochs until the queue
	// empties) and returns the run report. A node recovered from a
	// durable store resumes at its restored boundary and treats epochs
	// as the total planned for the deployment. A lifecycle fault ends
	// the run early: the report covers everything up to the fault and
	// the error wraps one of the lifecycle sentinels above.
	Run(epochs int) (*Report, error)
	// Validate checks the cross-layer invariants after a run.
	Validate() error
	// Close releases the node's resources — flushing and closing its
	// durable store when one is attached. Safe to call after Run (and on
	// nodes without a store, where it is a no-op).
	Close() error

	// Sim exposes the shared discrete-event simulator for scheduling.
	Sim() *sim.Simulator
	// Collector exposes the metrics collector.
	Collector() *metrics.Collector
	// Epoch returns the currently-running epoch number.
	Epoch() uint64
	// LastSyncedEpoch returns the highest epoch the mainchain bank has
	// confirmed a Sync for.
	LastSyncedEpoch() uint64
	// PoolIDs lists the registered pools in canonical order; an empty
	// Tx.PoolID routes to the first.
	PoolIDs() []string
	// PoolInfo reports one pool's canonical reserves and live positions.
	PoolInfo(poolID string) (PoolInfo, bool)
	// Positions lists the bank's synced liquidity positions.
	Positions() []summary.PositionEntry
}

// CheckTx performs the shape validation Submit applies before queueing:
// amounts, tick ranges, and position references must be plausible for
// the transaction's kind. It reads no node state; the node checks pool
// and user existence after it.
func CheckTx(tx *summary.Tx) error {
	if tx == nil {
		return fmt.Errorf("%w: nil transaction", ErrMalformedTx)
	}
	if tx.User == "" {
		return fmt.Errorf("%w: empty user", ErrMalformedTx)
	}
	switch tx.Kind {
	case gasmodel.KindSwap:
		if tx.Amount.IsZero() {
			return fmt.Errorf("%w: zero swap amount", ErrMalformedTx)
		}
	case gasmodel.KindMint:
		if tx.Amount0Desired.IsZero() && tx.Amount1Desired.IsZero() {
			return fmt.Errorf("%w: mint with no funding", ErrMalformedTx)
		}
		if tx.TickLower > tx.TickUpper {
			return fmt.Errorf("%w: inverted tick range [%d, %d]", ErrMalformedTx, tx.TickLower, tx.TickUpper)
		}
		if tx.TickLower < amm.MinTick || tx.TickUpper > amm.MaxTick {
			return fmt.Errorf("%w: tick range [%d, %d] outside [%d, %d]",
				ErrMalformedTx, tx.TickLower, tx.TickUpper, amm.MinTick, amm.MaxTick)
		}
	case gasmodel.KindBurn:
		if tx.PosID == "" {
			return fmt.Errorf("%w: burn without position", ErrMalformedTx)
		}
		if tx.Liquidity.IsZero() && tx.BurnFractionBps == 0 {
			return fmt.Errorf("%w: burn of nothing", ErrMalformedTx)
		}
		if tx.BurnFractionBps > 10_000 {
			return fmt.Errorf("%w: burn fraction %d bps > 10000", ErrMalformedTx, tx.BurnFractionBps)
		}
	case gasmodel.KindCollect:
		if tx.PosID == "" {
			return fmt.Errorf("%w: collect without position", ErrMalformedTx)
		}
	}
	return nil
}
