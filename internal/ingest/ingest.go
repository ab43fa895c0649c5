// Package ingest implements the node's thread-safe submission front
// end: one locked mempool buffer many producer goroutines append to,
// with explicit admission control (capacity wall, bounded blocking)
// returning the typed backpressure errors defined in internal/chain, and a single-consumer drain that hands the buffer over
// in one canonical order.
//
// Determinism is the design constraint. Every admitted entry takes its
// ticket and its place in the buffer under the one pool lock, so the
// buffer is in ticket order by construction and every drain takes a
// prefix of the tickets: the canonical order depends only on the
// admission interleaving the producers actually achieved, never on
// drain timing. That order, recorded per drain boundary
// (chain.ArrivalLog), is what a single-producer replay feeds back to
// reproduce a concurrent run bit-identically (DESIGN.md invariant 13).
//
// Concurrency contract: Admit/Hold/Release/Len/Stats are safe
// from any goroutine; Drain, CloseIfEmpty, and Close belong to the single
// lifecycle consumer (the simulator goroutine).
package ingest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/summary"
)

// Policy parameterizes admission control. The zero value takes the
// defaults below via New.
type Policy struct {
	// Capacity is the hard mempool bound.
	Capacity int
	// MaxWait bounds how long one Admit call blocks wall-clock on a
	// full mempool before chain.ErrMempoolFull; <= 0 rejects
	// immediately. Keep it small: the lifecycle consumer itself may
	// submit (drivers run on the simulator goroutine), and it must
	// never block on a drain only it can perform.
	MaxWait time.Duration
	// RetryHint is the backoff carried on rejections — typically one
	// round duration, the mempool's drain cadence.
	RetryHint time.Duration
}

// Default policy values (New fills zeroes with these).
const (
	DefaultCapacity = 1 << 20
	DefaultMaxWait  = 10 * time.Millisecond
)

// Entry is one admitted transaction with its receipt and global
// admission sequence number (assigned by the pool). Leaf (sidechain.TxLeaf)
// and the node's Pool and User indices are computed by the producer before
// admission; the pool carries them untouched.
type Entry struct {
	Seq        uint64
	Tx         *summary.Tx
	Rc         *chain.Receipt
	Leaf       [32]byte
	Pool, User uint32
}

// Pool is the concurrent mempool with admission control.
type Pool struct {
	pol Policy

	// admitting counts producers inside Admit or a Hold (see
	// CloseIfEmpty). It is the one field kept outside mu: a Hold raises
	// it before the producer takes the lock.
	admitting atomic.Int64

	// mu guards everything below. entries holds the admitted, undrained
	// entries in ticket order; spare is the previous drain's buffer,
	// which the next drain installs in its place, so sustained load
	// allocates nothing.
	mu      sync.Mutex
	entries []Entry
	spare   []Entry
	closed  bool
	// stats.Admitted doubles as the ticket counter: the k-th admitted
	// entry carries Seq k.
	stats Stats
	// wait is a close-and-replace broadcast: producers parked at the
	// capacity wall select on the current channel; Drain and Close close
	// it to wake them all.
	wait chan struct{}
}

// Stats is a snapshot of the pool's admission counters.
type Stats struct {
	Admitted uint64
	RejFull  uint64
	Canceled uint64
	Peak     int
}

// New builds a pool, filling zero policy fields with the defaults.
// MaxWait keeps an explicit negative as "never block".
func New(pol Policy) *Pool {
	if pol.Capacity <= 0 {
		pol.Capacity = DefaultCapacity
	}
	if pol.MaxWait == 0 {
		pol.MaxWait = DefaultMaxWait
	}
	return &Pool{pol: pol, wait: make(chan struct{})}
}

// Policy returns the pool's effective (default-filled) policy.
func (p *Pool) Policy() Policy { return p.pol }

// Len returns the current occupancy: admitted entries not yet drained.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Stats snapshots the admission counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// admission builds the typed backpressure error for one sentinel and
// attributes the n entries it refuses to that sentinel's counter. Called
// with p.mu held.
func (p *Pool) admission(sentinel error, n int) *chain.AdmissionError {
	hint := p.pol.RetryHint
	switch sentinel {
	case chain.ErrClosed:
		hint = 0
	case chain.ErrMempoolFull:
		p.stats.RejFull += uint64(n)
	case chain.ErrCanceled:
		p.stats.Canceled += uint64(n)
	}
	return &chain.AdmissionError{
		Err:        sentinel,
		RetryAfter: hint,
		Occupancy:  len(p.entries),
		Capacity:   p.pol.Capacity,
	}
}

// Hold counts the caller as mid-admission until its Release, so
// CloseIfEmpty cannot close the pool under a producer that is still
// preparing entries — validating and hashing them — before it admits.
func (p *Pool) Hold() { p.admitting.Add(1) }

// Release ends a Hold.
func (p *Pool) Release() { p.admitting.Add(-1) }

// Admit admits a batch in order (assigning each Entry.Seq), blocking up
// to MaxWait when the mempool is full, with partial-accept semantics: it
// returns how many leading entries were admitted and, when admission
// failed partway, a per-entry error slice where every entry from the
// failure point on carries the failing error (order-preserving: nothing
// after the failure was attempted). The single error return is reserved
// for whole-batch refusals decided before any admission attempt: pool
// closed or context already done. MaxWait is a per-batch budget, not
// per-entry. A single transaction is a batch of one. Safe for concurrent
// producers.
func (p *Pool) Admit(ctx context.Context, entries []Entry) (int, []error, error) {
	if len(entries) == 0 {
		return 0, nil, nil
	}
	p.admitting.Add(1)
	defer p.admitting.Add(-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return 0, nil, p.admission(chain.ErrClosed, 0)
	case ctx != nil && ctx.Err() != nil:
		return 0, nil, p.admission(chain.ErrCanceled, len(entries))
	}
	n, err := p.admit(ctx, entries)
	if err == nil {
		return n, nil, nil
	}
	errs := make([]error, len(entries))
	for j := n; j < len(entries); j++ {
		errs[j] = err
	}
	return n, errs, nil
}

// admit appends entries in order, each part that fits below the wall at
// once, taking one ticket per entry, and parks at the wall between parts.
// It returns how many entries it admitted and, when it stopped short, the
// typed error that refused the rest. One lazy timer is the whole call's
// MaxWait budget. Called with p.mu held; returns with it held.
func (p *Pool) admit(ctx context.Context, entries []Entry) (int, error) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	n := 0
	for {
		if p.closed {
			return n, p.admission(chain.ErrClosed, 0)
		}
		part := entries[n : n+min(p.pol.Capacity-len(p.entries), len(entries)-n)]
		tail := len(p.entries)
		p.entries = append(p.entries, part...)
		for i := tail; i < len(p.entries); i++ {
			p.stats.Admitted++
			p.entries[i].Seq = p.stats.Admitted
		}
		p.stats.Peak = max(p.stats.Peak, len(p.entries))
		if n += len(part); n == len(entries) {
			return n, nil
		}
		if err := p.park(ctx, &timer); err != nil {
			return n, p.admission(err, len(entries)-n)
		}
	}
}

// park waits at the capacity wall, with p.mu released, until a drain or
// close wakes it (nil: re-check), the caller's context ends, or the
// MaxWait budget runs out. It is entered and left with p.mu held, so the
// wait channel it captures is the one the next drain closes.
func (p *Pool) park(ctx context.Context, timer **time.Timer) error {
	if p.pol.MaxWait <= 0 {
		return chain.ErrMempoolFull
	}
	if *timer == nil {
		*timer = time.NewTimer(p.pol.MaxWait)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	ch := p.wait
	p.mu.Unlock()
	defer p.mu.Lock()
	select {
	case <-ch:
		return nil
	case <-done:
		return chain.ErrCanceled
	case <-(*timer).C:
		return chain.ErrMempoolFull
	}
}

// wake closes-and-replaces the broadcast channel, releasing every
// producer parked at capacity. Called with p.mu held.
func (p *Pool) wake() {
	close(p.wait)
	p.wait = make(chan struct{})
}

// Drain removes every entry admitted before it takes the lock — a prefix
// of the tickets — and returns them in ticket order, then wakes parked
// producers. Single consumer only — the lifecycle calls it at each round
// start. The returned slice is a reused buffer valid only until the next
// Drain call: the consumer copies entries out (into its meta-block queue)
// before draining again. Reuse matters — under sustained load a fresh
// per-round buffer was the pool's dominant garbage source, and the GC
// assists it triggered were charged to producer goroutines.
func (p *Pool) Drain() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.entries
	if len(out) == 0 {
		return nil
	}
	p.entries, p.spare = p.spare[:0], out
	p.wake()
	return out
}

// CloseIfEmpty atomically closes the pool if nothing is buffered or
// mid-admission, and reports whether it is now closed. The lifecycle's
// end-of-run decision calls it at the round boundary: true means no
// producer can sneak a transaction in after the decision, false means
// something is or was on its way in — drain an epoch, decide again.
//
// The decision is taken under the pool lock, so it cannot interleave
// with an append. A producer raises the admitting count before it takes
// the lock — at its Hold, or on entering Admit — and keeps it raised
// while parked at the capacity wall, so a submission that began before
// the decision is waited for, not refused; one that begins after it finds
// the pool closed.
func (p *Pool) CloseIfEmpty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed && (len(p.entries) != 0 || p.admitting.Load() != 0) {
		return false
	}
	p.close()
	return true
}

// Close closes the pool unconditionally: subsequent admissions fail
// with chain.ErrClosed and parked producers wake. Buffered entries
// remain drainable.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.close()
}

// close marks the pool closed and wakes parked producers, once. Called
// with p.mu held.
func (p *Pool) close() {
	if !p.closed {
		p.closed = true
		p.wake()
	}
}

// Closed reports whether admission is closed.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}
