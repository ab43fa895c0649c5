package chain

import (
	"time"

	"ammboost/internal/summary"
)

// ArrivalLog records the canonical transaction order the ingest front
// end established at every drain boundary: boundary k holds the
// transactions the node's k-th round drained out of the concurrent
// mempool, in their global admission-sequence order, plus the
// drain's virtual time. The log is what makes a concurrent run
// replayable — scheduling boundary k's transactions back into a fresh
// single-producer node at the recorded virtual time (before the round's
// drain event, which the simulator's FIFO tie-break guarantees for
// events scheduled up front) reproduces bit-identical summary roots,
// payload digests, and receipt stage sequences (DESIGN.md invariant
// 13), because the epoch cut depends only on this order, never on
// producer interleaving.
//
// Record runs on the simulator goroutine at drain time (the node calls
// it when Config.ArrivalLog is set); read the log after Run
// returns. Recorded transactions are clones taken before execution
// mutates them, and Txs returns fresh clones, so one log can replay any
// number of times.
type ArrivalLog struct {
	boundaries []logBoundary
	total      int
}

type logBoundary struct {
	at  time.Duration
	txs []summary.Tx
}

// NewArrivalLog returns an empty log ready to attach via
// Config.ArrivalLog.
func NewArrivalLog() *ArrivalLog { return &ArrivalLog{} }

// Record appends one drain boundary in canonical order at its virtual
// drain time. Empty boundaries are recorded too — replay and
// divergence checks need the boundary ordinals to line up with round
// starts exactly.
func (l *ArrivalLog) Record(at time.Duration, txs []*summary.Tx) {
	clones := make([]summary.Tx, len(txs))
	for i, tx := range txs {
		clones[i] = *tx
	}
	l.boundaries = append(l.boundaries, logBoundary{at: at, txs: clones})
	l.total += len(txs)
}

// Boundaries returns the number of recorded drain boundaries.
func (l *ArrivalLog) Boundaries() int { return len(l.boundaries) }

// Total returns the number of recorded transactions across all
// boundaries.
func (l *ArrivalLog) Total() int { return l.total }

// At returns boundary k's virtual drain time (a round start).
func (l *ArrivalLog) At(k int) time.Duration {
	if k < 0 || k >= len(l.boundaries) {
		return 0
	}
	return l.boundaries[k].at
}

// Txs returns fresh clones of boundary k's transactions in canonical
// order (nil when k is out of range or empty). Each call clones again,
// so a replayed transaction never aliases the log or an earlier replay.
func (l *ArrivalLog) Txs(k int) []*summary.Tx {
	if k < 0 || k >= len(l.boundaries) {
		return nil
	}
	out := make([]*summary.Tx, len(l.boundaries[k].txs))
	for i := range l.boundaries[k].txs {
		c := l.boundaries[k].txs[i]
		c.SubmittedAt = 0 // replay stamps its own drain time
		out[i] = &c
	}
	return out
}
