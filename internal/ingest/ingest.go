// Package ingest implements the node's thread-safe submission front
// end: a segmented mempool many producer goroutines append to
// concurrently, with explicit admission control (capacity
// wall, soft-mark shedding, bounded blocking) returning the typed
// backpressure errors defined in internal/chain, and a single-consumer
// drain that merges the segments into one canonical order.
//
// Determinism is the design constraint. Segments exist purely to spread
// producer lock contention — they carry no ordering meaning. Every
// admitted entry takes a ticket from ONE global atomic sequence, and
// Drain merges the segments back into ticket order, so the canonical
// order depends only on the admission interleaving the producers
// actually achieved, never on segment count or drain timing.
// That order, recorded per drain boundary (chain.ArrivalLog), is what a
// single-producer replay feeds back to reproduce a concurrent run
// bit-identically (DESIGN.md invariant 13).
//
// Concurrency contract: Admit/AdmitOne/Hold/Release/Len/Stats are safe
// from any goroutine; Drain, CloseIfEmpty, and Close belong to the single
// lifecycle consumer (the simulator goroutine).
package ingest

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/summary"
)

// Policy parameterizes admission control. The zero value takes the
// defaults below via New.
type Policy struct {
	// Capacity is the hard mempool bound across all segments.
	Capacity int
	// SoftMark, when below Capacity, sheds whole batches arriving while
	// occupancy is at or above it (chain.ErrThrottled).
	SoftMark int
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

// Admission gate states. poolClosing is CloseIfEmpty's undecided window:
// the consumer has raised the gate but not yet looked at occupancy, so a
// producer that sees it waits for the verdict instead of reporting a
// closure that may not happen.
const (
	poolOpen int32 = iota
	poolClosing
	poolClosed
)

// Default policy values (New fills zeroes with these).
const (
	DefaultCapacity = 1 << 20
	DefaultMaxWait  = 10 * time.Millisecond
)

// numSegments is the mempool partition count (contention spreading only;
// no ordering effect).
const numSegments = 8

// Entry is one admitted transaction with its receipt and global
// admission sequence number (assigned by the pool). Leaf is the
// transaction's meta-block leaf (sidechain.TxLeaf), hashed by the
// producer before admission; the pool carries it untouched.
type Entry struct {
	Seq  uint64
	Tx   *summary.Tx
	Rc   *chain.Receipt
	Leaf [32]byte
}

// segment is one mutex-guarded mempool partition. The sequence ticket
// is taken under the segment lock, so entries is always sorted by Seq —
// Drain merges instead of sorting. spare is the double buffer: Drain
// steals entries and installs the previous drain's (already merged)
// buffer in its place, so sustained load allocates nothing. The padding
// keeps hot segment locks off each other's cache lines under many
// producers.
type segment struct {
	mu      sync.Mutex
	entries []Entry
	spare   []Entry
	_       [16]byte
}

// Pool is the concurrent mempool with admission control.
type Pool struct {
	pol  Policy
	segs []segment

	// seq is the global admission sequence: the canonical order. It is
	// only advanced under a segment lock, which keeps every segment
	// internally sorted; rr spreads producers across segments.
	seq atomic.Uint64
	rr  atomic.Uint64
	// occ is the live occupancy (reservations included); peak tracks
	// its high-water mark.
	occ  atomic.Int64
	peak atomic.Int64
	// admitting counts producers inside Admit/AdmitOne or a Hold (see
	// CloseIfEmpty).
	admitting atomic.Int64
	// state gates admission (poolOpen / poolClosing / poolClosed); see
	// CloseIfEmpty for the race protocol.
	state atomic.Int32

	// Admission outcome counters.
	admitted  atomic.Uint64
	rejFull   atomic.Uint64
	throttled atomic.Uint64
	canceled  atomic.Uint64

	// wait is a close-and-replace broadcast: producers blocked at
	// capacity select on the current channel; Drain and Close close it
	// to wake them all. mu guards the swap.
	mu   sync.Mutex
	wait chan struct{}

	// drainBuf is the reused merge buffer Drain returns (single
	// consumer, consumed before the next drain — see Drain); runs is
	// Drain's reused per-segment scratch.
	drainBuf []Entry
	runs     [][]Entry
}

// Stats is a snapshot of the pool's admission counters.
type Stats struct {
	Admitted  uint64
	RejFull   uint64
	Throttled uint64
	Canceled  uint64
	Peak      int
}

// New builds a pool, filling zero policy fields with the defaults.
// MaxWait keeps an explicit negative as "never block".
func New(pol Policy) *Pool {
	if pol.Capacity <= 0 {
		pol.Capacity = DefaultCapacity
	}
	if pol.SoftMark <= 0 || pol.SoftMark > pol.Capacity {
		pol.SoftMark = pol.Capacity
	}
	if pol.MaxWait == 0 {
		pol.MaxWait = DefaultMaxWait
	}
	return &Pool{
		pol:  pol,
		segs: make([]segment, numSegments),
		wait: make(chan struct{}),
	}
}

// Policy returns the pool's effective (default-filled) policy.
func (p *Pool) Policy() Policy { return p.pol }

// Len returns the current occupancy (admitted entries not yet drained,
// plus in-flight reservations).
func (p *Pool) Len() int { return int(p.occ.Load()) }

// Stats snapshots the admission counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Admitted:  p.admitted.Load(),
		RejFull:   p.rejFull.Load(),
		Throttled: p.throttled.Load(),
		Canceled:  p.canceled.Load(),
		Peak:      int(p.peak.Load()),
	}
}

// admission builds the typed backpressure error for one sentinel.
func (p *Pool) admission(sentinel error) *chain.AdmissionError {
	hint := p.pol.RetryHint
	if sentinel == chain.ErrClosed {
		hint = 0
	}
	return &chain.AdmissionError{
		Err:        sentinel,
		RetryAfter: hint,
		Occupancy:  int(p.occ.Load()),
		Capacity:   p.pol.Capacity,
	}
}

// count attributes a rejection of n entries to its counter.
func (p *Pool) count(err error, n int) {
	var ae *chain.AdmissionError
	if !errorsAs(err, &ae) {
		return
	}
	switch ae.Err {
	case chain.ErrMempoolFull:
		p.rejFull.Add(uint64(n))
	case chain.ErrThrottled:
		p.throttled.Add(uint64(n))
	case chain.ErrCanceled:
		p.canceled.Add(uint64(n))
	}
}

// errorsAs is errors.As without the import weight in the hot path.
func errorsAs(err error, target **chain.AdmissionError) bool {
	ae, ok := err.(*chain.AdmissionError)
	if ok {
		*target = ae
	}
	return ok
}

// Hold counts the caller as mid-admission until its Release, so
// CloseIfEmpty cannot close the pool under a producer that is still
// preparing entries — validating and hashing them — before it admits.
func (p *Pool) Hold() { p.admitting.Add(1) }

// Release ends a Hold.
func (p *Pool) Release() { p.admitting.Add(-1) }

// AdmitOne admits a single entry (assigning Entry.Seq), blocking up to
// MaxWait when the mempool is full. Safe for concurrent producers.
func (p *Pool) AdmitOne(ctx context.Context, e Entry) error {
	p.admitting.Add(1)
	var timer *time.Timer
	err := p.admitOne(ctx, e, &timer)
	p.admitting.Add(-1)
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		p.count(err, 1)
	}
	return err
}

// Admit admits a batch in order with partial-accept semantics: it
// returns how many leading entries were admitted and, when admission
// failed partway, a per-entry error slice where every entry from the
// failure point on carries the failing error (order-preserving: nothing
// after the failure was attempted). The single error return is reserved
// for whole-batch refusals decided before any admission attempt: pool
// closed, context already done, or occupancy above the soft mark
// (throttle shedding is batch-granular by design — a half-throttled
// batch helps nobody). MaxWait is a per-batch budget, not per-entry.
func (p *Pool) Admit(ctx context.Context, entries []Entry) (int, []error, error) {
	if len(entries) == 0 {
		return 0, nil, nil
	}
	p.admitting.Add(1)
	defer p.admitting.Add(-1)
	if p.Closed() {
		return 0, nil, p.admission(chain.ErrClosed)
	}
	if ctx != nil && ctx.Err() != nil {
		err := p.admission(chain.ErrCanceled)
		p.count(err, len(entries))
		return 0, nil, err
	}
	if occ := int(p.occ.Load()); occ >= p.pol.SoftMark && p.pol.SoftMark < p.pol.Capacity {
		err := p.admission(chain.ErrThrottled)
		p.count(err, len(entries))
		return 0, nil, err
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for i := range entries {
		if err := p.admitOne(ctx, entries[i], &timer); err != nil {
			p.count(err, len(entries)-i)
			errs := make([]error, len(entries))
			for j := i; j < len(entries); j++ {
				errs[j] = err
			}
			return i, errs, nil
		}
	}
	return len(entries), nil, nil
}

// admitOne reserves capacity, takes a global sequence ticket, and
// appends to the ticket's segment. The shared lazy timer implements the
// caller's MaxWait budget.
func (p *Pool) admitOne(ctx context.Context, e Entry, timer **time.Timer) error {
	for {
		if p.Closed() {
			return p.admission(chain.ErrClosed)
		}
		cur := p.occ.Load()
		if int(cur) >= p.pol.Capacity {
			if err := p.waitRoom(ctx, timer); err != nil {
				return err
			}
			continue
		}
		if p.occ.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	// Close race: CloseIfEmpty may have observed occ == 0 and committed
	// between our closed-check and the reservation. Re-check and roll
	// back — the reservation never becomes visible. (A closer still
	// deciding either saw this reservation and reopens, or did not and
	// closes; Closed waits for whichever it is.)
	if p.Closed() {
		p.occ.Add(-1)
		return p.admission(chain.ErrClosed)
	}
	for {
		cur, pk := p.occ.Load(), p.peak.Load()
		if cur <= pk || p.peak.CompareAndSwap(pk, cur) {
			break
		}
	}
	s := &p.segs[p.rr.Add(1)%numSegments]
	s.mu.Lock()
	// The ticket is taken under the segment lock so appends land in
	// ticket order: each segment stays sorted by Seq and Drain can merge
	// runs instead of sorting the union.
	e.Seq = p.seq.Add(1)
	s.entries = append(s.entries, e)
	s.mu.Unlock()
	p.admitted.Add(1)
	return nil
}

// waitRoom blocks until a drain frees capacity, the caller's context
// ends, or the MaxWait budget runs out. Returning nil means "re-check":
// the caller loops and re-reads occupancy.
func (p *Pool) waitRoom(ctx context.Context, timer **time.Timer) error {
	if p.pol.MaxWait <= 0 {
		return p.admission(chain.ErrMempoolFull)
	}
	if *timer == nil {
		*timer = time.NewTimer(p.pol.MaxWait)
	}
	p.mu.Lock()
	ch := p.wait
	p.mu.Unlock()
	// Re-check AFTER capturing the wait channel: a drain that ran
	// between the occupancy check and here already closed-and-replaced
	// the old channel, and sleeping on the new one would miss it.
	if int(p.occ.Load()) < p.pol.Capacity || p.state.Load() != poolOpen {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-ch:
		return nil
	case <-done:
		return p.admission(chain.ErrCanceled)
	case <-(*timer).C:
		return p.admission(chain.ErrMempoolFull)
	}
}

// wake closes-and-replaces the broadcast channel, releasing every
// producer blocked at capacity.
func (p *Pool) wake() {
	p.mu.Lock()
	close(p.wait)
	p.wait = make(chan struct{})
	p.mu.Unlock()
}

// Drain removes every entry admitted before it starts — a prefix of the
// global sequence — and returns them in canonical (global-sequence)
// order, then wakes blocked producers. Single
// consumer only — the lifecycle calls it at each round start. The
// returned slice is a reused buffer valid only until the next Drain
// call: the consumer copies entries out (into its meta-block queue)
// before draining again. Reuse matters — under sustained load a fresh
// per-round merge buffer was the pool's dominant garbage source, and
// the GC assists it triggered were charged to producer goroutines.
func (p *Pool) Drain() []Entry {
	// The drain takes exactly the tickets issued before it starts. A
	// ticket is taken and its entry appended under one segment lock, so
	// each of them is in its segment by the time the sweep locks it;
	// later tickets wait for the next drain. Without the cut, a producer
	// appending behind the sweep and then ahead of it would have its
	// later entry drained first.
	cut := p.seq.Load()
	// Steal each segment's sorted run up to the cut, installing the
	// previous drain's (already merged, hence free) buffer in its place
	// with any entries past the cut — the lock is held only for the swap,
	// and sustained load allocates nothing.
	runs := p.runs[:0]
	total := 0
	for i := range p.segs {
		s := &p.segs[i]
		s.mu.Lock()
		n := len(s.entries)
		for n > 0 && s.entries[n-1].Seq > cut {
			n--
		}
		if n > 0 {
			runs = append(runs, s.entries[:n])
			total += n
			s.entries, s.spare = append(s.spare[:0], s.entries[n:]...), s.entries
		}
		s.mu.Unlock()
	}
	p.runs = runs
	if total == 0 {
		return nil
	}
	out := p.drainBuf[:0]
	if cap(out) < total {
		out = make([]Entry, 0, total)
	}
	// K-way merge on the Seq tickets. Segments are sorted by
	// construction (the ticket is taken under the segment lock), so the
	// linear min-head scan across <= numSegments runs replaces a
	// comparison sort of the union — under sustained load the sort's
	// swap traffic (and its write barriers) dominated the profile.
	for len(runs) > 0 {
		min := 0
		for r := 1; r < len(runs); r++ {
			if runs[r][0].Seq < runs[min][0].Seq {
				min = r
			}
		}
		out = append(out, runs[min][0])
		if runs[min] = runs[min][1:]; len(runs[min]) == 0 {
			runs[min] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	p.drainBuf = out
	p.occ.Add(int64(-total))
	p.wake()
	return out
}

// CloseIfEmpty atomically closes the pool if nothing is buffered,
// reserved or mid-admission, and reports whether it is now closed. The
// lifecycle's end-of-run decision calls it at the round boundary: true
// means no producer can sneak a transaction in after the decision
// (admission is gated before reservation and rolled back after), false
// means something is or was on its way in — drain an epoch, decide again.
//
// The race protocol: raise the gate (poolClosing) FIRST, then check
// occupancy. A producer reserves occupancy first, then re-checks the
// gate. Whatever the interleaving, either the producer sees the gate up
// and — once the verdict is closed — rolls back, or the closer sees the
// reservation and reopens: a transaction is never stranded in a closed
// pool. A producer inside a Hold counts as admitting, so a submission
// that began before the decision is waited for, not refused. (The
// benign worst case: the closer sees a reservation that is about to
// roll back, reopens, and the next boundary closes for real — one extra
// empty drain epoch.) A producer parked at the capacity wall
// holds no reservation; the closer sees it in the admitting count, raised
// before its first look at the gate. The gate is only ever read as closed
// once the verdict is in: a producer that finds it at poolClosing waits
// out the atomic operations between the store above and the verdict (see
// Closed), so a pool that stays open never reports ErrClosed.
//
// Every transition out of poolClosing is a compare-and-swap, so a Close
// from another goroutine (Kill, MultiSystem.Close) landing inside the
// window is never undone: the verdict simply finds the pool closed.
func (p *Pool) CloseIfEmpty() bool {
	if !p.state.CompareAndSwap(poolOpen, poolClosing) {
		return p.Closed()
	}
	if p.occ.Load() != 0 || p.admitting.Load() != 0 {
		// Not empty: reopen — unless a concurrent Close won, in which case
		// the entries stay drainable and the next boundary reports closed.
		p.state.CompareAndSwap(poolClosing, poolOpen)
		return false
	}
	if p.state.CompareAndSwap(poolClosing, poolClosed) {
		p.wake()
	}
	return true
}

// Close closes the pool unconditionally: subsequent admissions fail
// with chain.ErrClosed and blocked producers wake. Buffered entries
// remain drainable.
func (p *Pool) Close() {
	if p.state.Swap(poolClosed) == poolClosed {
		return
	}
	p.wake()
}

// Closed reports whether admission is closed. While the consumer is
// inside CloseIfEmpty's decision it yields until the verdict: that
// window is a store, two loads and a store on the consumer's side, and
// the consumer never waits on a producer inside it.
func (p *Pool) Closed() bool {
	for {
		switch p.state.Load() {
		case poolOpen:
			return false
		case poolClosed:
			return true
		}
		runtime.Gosched()
	}
}
