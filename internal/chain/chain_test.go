package chain

import (
	"errors"
	"testing"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusPending:      "pending",
		StatusExecuted:     "executed",
		StatusCheckpointed: "checkpointed",
		StatusSynced:       "synced",
		StatusPruned:       "pruned",
		StatusRejected:     "rejected",
	} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d) = %q, want %q", st, got, want)
		}
	}
}

func TestCheckTx(t *testing.T) {
	valid := func() *summary.Tx {
		return &summary.Tx{ID: "t", Kind: gasmodel.KindSwap, User: "u", Amount: u256.FromUint64(1)}
	}
	if err := CheckTx(valid()); err != nil {
		t.Errorf("valid swap rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*summary.Tx)
	}{
		{"nil", nil},
		{"no user", func(tx *summary.Tx) { tx.User = "" }},
		{"zero swap", func(tx *summary.Tx) { tx.Amount = u256.Int{} }},
		{"empty mint", func(tx *summary.Tx) { tx.Kind = gasmodel.KindMint; tx.Amount = u256.Int{} }},
		{"inverted ticks", func(tx *summary.Tx) {
			tx.Kind = gasmodel.KindMint
			tx.Amount0Desired = u256.FromUint64(1)
			tx.TickLower, tx.TickUpper = 60, -60
		}},
		{"burn no pos", func(tx *summary.Tx) { tx.Kind = gasmodel.KindBurn; tx.BurnFractionBps = 100 }},
		{"burn nothing", func(tx *summary.Tx) { tx.Kind = gasmodel.KindBurn; tx.PosID = "p" }},
		{"burn overflow bps", func(tx *summary.Tx) {
			tx.Kind = gasmodel.KindBurn
			tx.PosID = "p"
			tx.BurnFractionBps = 10_001
		}},
		{"collect no pos", func(tx *summary.Tx) { tx.Kind = gasmodel.KindCollect }},
	}
	for _, tc := range cases {
		var tx *summary.Tx
		if tc.mut != nil {
			tx = valid()
			tc.mut(tx)
		}
		if err := CheckTx(tx); !errors.Is(err, ErrMalformedTx) {
			t.Errorf("%s: err = %v, want ErrMalformedTx", tc.name, err)
		}
	}
	// Valid shapes for the other kinds.
	mint := &summary.Tx{ID: "m", Kind: gasmodel.KindMint, User: "u",
		TickLower: -60, TickUpper: 60, Amount0Desired: u256.FromUint64(5)}
	if err := CheckTx(mint); err != nil {
		t.Errorf("valid mint rejected: %v", err)
	}
	burn := &summary.Tx{ID: "b", Kind: gasmodel.KindBurn, User: "u", PosID: "p", BurnFractionBps: 10_000}
	if err := CheckTx(burn); err != nil {
		t.Errorf("valid burn rejected: %v", err)
	}
	collect := &summary.Tx{ID: "c", Kind: gasmodel.KindCollect, User: "u", PosID: "p"}
	if err := CheckTx(collect); err != nil {
		t.Errorf("valid collect rejected: %v", err)
	}
}

func TestConfigDefaultsSharedHelper(t *testing.T) {
	a := Config{}.WithDefaults()
	if a.EpochRounds != 30 || a.RoundDuration != 7*time.Second || a.CommitteeSize != 500 || a.MetaBlockBytes != 1<<20 {
		t.Errorf("paper defaults wrong: %d rounds, %s, committee %d, %d-byte meta-blocks",
			a.EpochRounds, a.RoundDuration, a.CommitteeSize, a.MetaBlockBytes)
	}
	if a.MinerPopulation != a.CommitteeSize+100 {
		t.Errorf("miner population %d, want committee+100", a.MinerPopulation)
	}
	// MinerPopulation derives from the *configured* committee size.
	if c := (Config{CommitteeSize: 20}).WithDefaults(); c.MinerPopulation != 120 {
		t.Errorf("miner population %d, want 120", c.MinerPopulation)
	}
	// Fields a literal sets survive the defaults.
	d := Config{Seed: 9, NumPools: 64, NumShards: 4, EpochRounds: 10}.WithDefaults()
	if d.Seed != 9 || d.NumPools != 64 || d.NumShards != 4 || d.EpochRounds != 10 {
		t.Errorf("set fields not kept: %+v", d)
	}
	// NumPools stays zero (one pool) unless opted in.
	if a.NumPools != 0 {
		t.Errorf("default NumPools = %d, want 0 (single-pool)", a.NumPools)
	}
}

func TestBusMaskAndOrder(t *testing.T) {
	b := NewBus()
	all := b.Subscribe(MaskAll)
	pruneOnly := b.Subscribe(MaskPruned)
	var hookCount int
	b.OnPublish(func(Event) { hookCount++ })

	events := []Event{
		{Type: EventEpochStart, Epoch: 1, At: 1 * time.Second},
		{Type: EventMetaBlock, Epoch: 1, Round: 1, At: 2 * time.Second},
		{Type: EventPruned, Epoch: 1, At: 3 * time.Second},
		{Type: EventSyncConfirmed, Epoch: 1, At: 4 * time.Second},
	}
	for _, ev := range events {
		b.Publish(ev)
	}
	b.Close()

	var gotAll []Event
	for ev := range all {
		gotAll = append(gotAll, ev)
	}
	if len(gotAll) != len(events) {
		t.Fatalf("full subscription got %d events, want %d", len(gotAll), len(events))
	}
	for i, ev := range gotAll {
		if ev.Type != events[i].Type || ev.At != events[i].At {
			t.Errorf("event %d out of order: got %s at %s", i, ev.Type, ev.At)
		}
	}
	var gotPrune []Event
	for ev := range pruneOnly {
		gotPrune = append(gotPrune, ev)
	}
	if len(gotPrune) != 1 || gotPrune[0].Type != EventPruned {
		t.Errorf("masked subscription got %+v, want one pruned event", gotPrune)
	}
	if hookCount != len(events) {
		t.Errorf("hook ran %d times, want %d", hookCount, len(events))
	}
}

func TestBusUnsubscribe(t *testing.T) {
	b := NewBus()
	ch := b.Subscribe(MaskAll)
	// Fill well past the channel's internal buffer without ever reading:
	// the pump parks on the blocked send.
	for i := 0; i < 64; i++ {
		b.Publish(Event{Type: EventMetaBlock, Round: uint64(i)})
	}
	b.Unsubscribe(ch)
	// The channel must reach closed state even though nothing was read;
	// drain whatever was in flight.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				goto released
			}
		case <-deadline:
			t.Fatal("unsubscribed channel never closed")
		}
	}
released:
	// Publishing after Unsubscribe must not panic or buffer.
	b.Publish(Event{Type: EventPruned})
	// Unknown channel is a no-op.
	b.Unsubscribe(make(chan Event))
	b.Close()
}

func TestBusSubscribeAfterClose(t *testing.T) {
	b := NewBus()
	b.Close()
	ch := b.Subscribe(MaskAll)
	if _, ok := <-ch; ok {
		t.Error("subscription after close should be closed immediately")
	}
	// Double close is a no-op.
	b.Close()
}

func TestEventTypeMask(t *testing.T) {
	types := []EventType{EventEpochStart, EventMetaBlock, EventSummaryBlock,
		EventSyncSubmitted, EventSyncConfirmed, EventPruned, EventHalted,
		EventRecovered, EventLagged, EventViewChange, EventSyncRetry}
	var acc EventMask
	for _, ty := range types {
		if ty.Mask()&MaskAll == 0 {
			t.Errorf("%s mask not in MaskAll", ty)
		}
		if ty.Mask()&acc != 0 {
			t.Errorf("%s mask overlaps another type", ty)
		}
		acc |= ty.Mask()
	}
	if acc != MaskAll {
		t.Errorf("union of type masks %b != MaskAll %b", acc, MaskAll)
	}
}

// TestBusSlowSubscriberLags is the slow-subscriber regression test: a
// subscriber that stops reading no longer buffers unboundedly — the bus
// sheds its oldest events once the per-subscriber limit is hit, counts
// every drop, and delivers an EventLagged marker carrying the loss ahead
// of the surviving events, so the gap is visible instead of silent.
func TestBusSlowSubscriberLags(t *testing.T) {
	b := NewBus()
	b.limit = 8
	slow := b.Subscribe(MaskMetaBlock)
	fast := b.Subscribe(MaskMetaBlock)
	fastDrops := make(chan int, 1)
	go func() {
		n := 0
		for ev := range fast {
			if ev.Type == EventLagged {
				n += ev.Dropped
			}
		}
		fastDrops <- n
	}()

	const published = 512
	for i := 0; i < published; i++ {
		b.Publish(Event{Type: EventMetaBlock, Round: uint64(i)})
	}
	b.Close()

	var lagged []Event
	var regular []Event
	for ev := range slow {
		if ev.Type == EventLagged {
			lagged = append(lagged, ev)
		} else {
			regular = append(regular, ev)
		}
	}
	if len(lagged) == 0 {
		t.Fatal("slow subscriber never received an EventLagged marker")
	}
	droppedSeen := 0
	for _, ev := range lagged {
		if ev.Dropped <= 0 {
			t.Errorf("Lagged event with Dropped = %d", ev.Dropped)
		}
		droppedSeen += ev.Dropped
	}
	if droppedSeen+len(regular) != published {
		t.Errorf("dropped (%d) + delivered (%d) != published (%d)",
			droppedSeen, len(regular), published)
	}
	// Survivors are the newest events, still in order.
	for i := 1; i < len(regular); i++ {
		if regular[i].Round <= regular[i-1].Round {
			t.Errorf("survivors out of order at %d: %d then %d", i, regular[i-1].Round, regular[i].Round)
		}
	}
	if len(regular) == 0 {
		t.Fatal("bus shed every event: no regular deliveries survived")
	}
	if regular[len(regular)-1].Round != published-1 {
		t.Errorf("newest event lost: last survivor is round %d", regular[len(regular)-1].Round)
	}
	// The bus aggregate equals exactly what the Lagged markers reported
	// across every subscriber (the concurrent reader may drop too when
	// the publish burst outruns its pump).
	if got, want := b.Dropped(), droppedSeen+<-fastDrops; got != want {
		t.Errorf("bus.Dropped() = %d, want %d (what Lagged markers reported)", got, want)
	}
}
