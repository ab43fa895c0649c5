package chain

import (
	"fmt"
	"sync"
	"time"

	"ammboost/internal/mainchain"
)

// EventType enumerates the observable epoch lifecycle stages.
type EventType uint8

const (
	// EventEpochStart: SnapshotBank taken, next committee elected.
	EventEpochStart EventType = iota
	// EventMetaBlock: one round's meta-block appended to the sidechain.
	EventMetaBlock
	// EventSummaryBlock: the epoch's summary checkpoint appended.
	EventSummaryBlock
	// EventSyncSubmitted: the TSQC-signed Sync entered the mainchain
	// mempool. On a node with a store, submitted does not imply durable:
	// the epoch's record may still be on its way to stable storage, and
	// the parts wait for it at block inclusion — included implies
	// durable.
	EventSyncSubmitted
	// EventSyncConfirmed: every part of the epoch's Sync confirmed.
	EventSyncConfirmed
	// EventPruned: the epoch's meta-blocks were pruned.
	EventPruned
	// EventHalted: a lifecycle fault stopped the node; Err is set.
	EventHalted
	// EventRecovered: the node restored state from its durable store;
	// Epoch is the recovered boundary and Run resumes at Epoch+1.
	EventRecovered
	// EventLagged: this subscriber fell behind and the bus dropped
	// events for it; Dropped counts how many were lost since the last
	// Lagged delivery. Synthesized per subscriber, delivered regardless
	// of the subscription mask, and never dropped itself.
	EventLagged
	// EventViewChange: a committee round replaced its leader (silent,
	// corrupt, or equivocating) before deciding; Round is the affected
	// round and Parts carries how many view changes the round burned.
	EventViewChange
	// EventSyncRetry: a sync part vanished on the faulted
	// sidechain→mainchain uplink (Config.SyncFaults) and the node
	// retransmitted it; Epoch/Parts locate the part and Txs carries the
	// attempt number.
	EventSyncRetry

	numEventTypes
)

// String renders the event type for logs.
func (t EventType) String() string {
	switch t {
	case EventEpochStart:
		return "epoch-start"
	case EventMetaBlock:
		return "meta-block"
	case EventSummaryBlock:
		return "summary-block"
	case EventSyncSubmitted:
		return "sync-submitted"
	case EventSyncConfirmed:
		return "sync-confirmed"
	case EventPruned:
		return "pruned"
	case EventHalted:
		return "halted"
	case EventRecovered:
		return "recovered"
	case EventLagged:
		return "lagged"
	case EventViewChange:
		return "view-change"
	case EventSyncRetry:
		return "sync-retry"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Mask returns the subscription bit for the type.
func (t EventType) Mask() EventMask { return 1 << t }

// EventMask selects the event types a subscription receives.
type EventMask uint32

const (
	MaskEpochStart    = EventMask(1) << EventEpochStart
	MaskMetaBlock     = EventMask(1) << EventMetaBlock
	MaskSummaryBlock  = EventMask(1) << EventSummaryBlock
	MaskSyncSubmitted = EventMask(1) << EventSyncSubmitted
	MaskSyncConfirmed = EventMask(1) << EventSyncConfirmed
	MaskPruned        = EventMask(1) << EventPruned
	MaskHalted        = EventMask(1) << EventHalted
	MaskRecovered     = EventMask(1) << EventRecovered
	MaskLagged        = EventMask(1) << EventLagged
	MaskViewChange    = EventMask(1) << EventViewChange
	MaskSyncRetry     = EventMask(1) << EventSyncRetry
	// MaskAll subscribes to every lifecycle event.
	MaskAll = EventMask(1)<<numEventTypes - 1
)

// Event is one observable lifecycle occurrence. Fields beyond Type, At,
// and Epoch are populated where meaningful: Round/Txs/Bytes for
// meta-blocks, Root for summary checkpoints, Parts for chunked or
// mass-syncs, Gas for confirmed syncs, Err for halts.
type Event struct {
	Type  EventType
	At    time.Duration // virtual time
	Epoch uint64
	Round uint64
	Txs   int
	Bytes int
	Parts int
	Gas   uint64
	// Dropped is the number of events lost to this subscriber since its
	// previous Lagged delivery (EventLagged only).
	Dropped int
	Root    [32]byte
	Err     error
	// SyncParts is the bank's cumulative sync-part execution counters as
	// of this confirmation (EventSyncConfirmed).
	SyncParts mainchain.SyncStats
}

// DefaultEventBuffer is the per-subscriber buffered-event bound.
const DefaultEventBuffer = 4096

// Bus fans lifecycle events out to subscribers. Publishing happens on
// the simulator goroutine and never blocks: each subscription buffers
// internally and a per-subscription goroutine feeds its channel, so a
// slow reader cannot stall the epoch lifecycle. The buffer is BOUNDED:
// when a subscriber falls more than the limit behind, the oldest
// buffered events are dropped — and, unlike the earlier silently-lossy
// design, the loss is visible: the subscriber receives an EventLagged
// carrying the drop count before the next regular event, and the bus
// counts total drops for metrics (Dropped). Closing the bus closes
// every subscription channel after its buffer drains.
type Bus struct {
	mu      sync.Mutex
	subs    []*subscription
	hooks   []func(Event)
	closed  bool
	limit   int
	dropped int
}

// NewBus creates an empty bus with the default per-subscriber buffer.
func NewBus() *Bus { return &Bus{limit: DefaultEventBuffer} }

// Dropped returns the total events dropped across all subscribers, the
// quantity the node surfaces through metrics.Collector.
func (b *Bus) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// OnPublish registers a synchronous hook called for every published
// event (e.g. metrics counting). Hooks run on the publisher's goroutine
// and must be cheap.
func (b *Bus) OnPublish(fn func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hooks = append(b.hooks, fn)
}

// Subscribe returns a channel receiving every event whose type is in
// mask. The channel closes when the bus closes; subscribers must either
// drain it to completion or release it with Unsubscribe — an abandoned,
// undrained subscription parks its pump goroutine on the blocked send.
func (b *Bus) Subscribe(mask EventMask) <-chan Event {
	b.mu.Lock()
	limit := b.limit
	b.mu.Unlock()
	s := &subscription{mask: mask, bus: b, limit: limit, ch: make(chan Event, 16), quit: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	b.mu.Lock()
	closed := b.closed
	if !closed {
		b.subs = append(b.subs, s)
	}
	b.mu.Unlock()
	if closed {
		close(s.ch)
		return s.ch
	}
	go s.pump()
	return s.ch
}

// Unsubscribe releases a subscription obtained from Subscribe: delivery
// stops, the channel closes (dropping undelivered events), and the pump
// goroutine exits even if the subscriber stopped reading. Unknown
// channels are a no-op.
func (b *Bus) Unsubscribe(ch <-chan Event) {
	b.mu.Lock()
	var target *subscription
	for i, s := range b.subs {
		if s.ch == ch {
			target = s
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	if target != nil {
		target.cancel()
	}
}

// Publish delivers an event to all matching subscriptions and hooks.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	hooks, subs := b.hooks, b.subs
	b.mu.Unlock()
	for _, fn := range hooks {
		fn(ev)
	}
	m := ev.Type.Mask()
	for _, s := range subs {
		if s.mask&m != 0 {
			s.push(ev)
		}
	}
}

// Close ends delivery: every subscription channel closes once its
// buffered events have been consumed.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

// subscription buffers events between the publisher (simulator
// goroutine) and one consumer channel.
type subscription struct {
	mask  EventMask
	bus   *Bus
	limit int
	ch    chan Event
	quit  chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	buf      []Event
	dropped  int // events lost since the last Lagged delivery
	done     bool
	canceled bool
}

func (s *subscription) push(ev Event) {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return
	}
	lost := 0
	if len(s.buf) >= s.limit {
		// Slow subscriber: shed the oldest buffered events (the newest
		// state is the useful one) and make the loss observable.
		shed := len(s.buf) - s.limit + 1
		s.buf = append(s.buf[:0], s.buf[shed:]...)
		s.dropped += shed
		lost = shed
	}
	s.buf = append(s.buf, ev)
	s.mu.Unlock()
	if lost > 0 {
		s.bus.mu.Lock()
		s.bus.dropped += lost
		s.bus.mu.Unlock()
	}
	s.cond.Signal()
}

// close ends delivery gracefully: buffered events still drain to a
// reading subscriber before the channel closes.
func (s *subscription) close() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.cond.Signal()
}

// cancel ends delivery immediately (Unsubscribe): undelivered events are
// dropped and the pump exits even mid-send.
func (s *subscription) cancel() {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return
	}
	s.canceled = true
	s.done = true
	s.buf = nil
	s.mu.Unlock()
	close(s.quit)
	s.cond.Signal()
}

func (s *subscription) pump() {
	for {
		s.mu.Lock()
		for len(s.buf) == 0 && !s.done {
			s.cond.Wait()
		}
		if s.canceled || (len(s.buf) == 0 && s.dropped == 0) {
			s.mu.Unlock()
			close(s.ch)
			return
		}
		var ev Event
		if s.dropped > 0 {
			// Surface the loss before the next regular event so the
			// subscriber knows its view has a gap.
			ev = Event{Type: EventLagged, Dropped: s.dropped}
			s.dropped = 0
		} else {
			ev = s.buf[0]
			s.buf = s.buf[1:]
		}
		s.mu.Unlock()
		select {
		case s.ch <- ev:
		case <-s.quit:
			close(s.ch)
			return
		}
	}
}
