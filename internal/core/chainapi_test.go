package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// TestFactoryBackendSelection pins the documented NumPools contract:
// NewMultiSystem registers NumPools pools, and an unset count runs one.
func TestFactoryBackendSelection(t *testing.T) {
	users := []string{"u-0", "u-1"}
	mcfg := chain.Config{NumPools: 4, CommitteeSize: 8, MinerPopulation: 20}
	multi, err := NewMultiSystem(mcfg, users)
	if err != nil {
		t.Fatalf("multi-pool backend: %v", err)
	}
	if got := len(multi.PoolIDs()); got != 4 {
		t.Errorf("multi backend has %d pools, want 4", got)
	}
	mcfg.NumPools = 0
	one, err := NewMultiSystem(mcfg, users)
	if err != nil {
		t.Fatalf("unset pool count: %v", err)
	}
	if got := len(one.PoolIDs()); got != 1 {
		t.Errorf("unset pool count runs %d pools, want 1", got)
	}
}

// TestUnsubscribeReleasesSubscription: an abandoned subscription can be
// released mid-run without stalling the bus or the run.
func TestUnsubscribeReleasesSubscription(t *testing.T) {
	sys, _, err := NewDriver(smallConfig(28), smallDriver(500_000, 2, 28))
	if err != nil {
		t.Fatal(err)
	}
	abandoned := sys.Subscribe(chain.MaskMetaBlock)
	kept := sys.Subscribe(chain.MaskSyncConfirmed)
	nKept := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range kept {
			nKept++
		}
	}()
	// Never read from `abandoned`; release it after a few rounds.
	sys.Sim().At(30*time.Second, func() { sys.Unsubscribe(abandoned) })
	rep, err := sys.Run(2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	<-done
	if nKept != rep.SyncsOK {
		t.Errorf("kept subscription saw %d syncs, want %d", nKept, rep.SyncsOK)
	}
	if _, ok := <-abandoned; ok {
		// The channel must be closed after Unsubscribe (buffered events
		// may still be consumed first; drain to the close).
		for range abandoned {
		}
	}
}

// TestMultiDepositHonorsEpoch: a deposit for a future epoch is credited
// when that epoch opens, not before.
func TestMultiDepositHonorsEpoch(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(29, 4, 2, 3)
	node, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	var future *chain.Receipt
	node.Sim().At(time.Second, func() {
		var derr error
		future, derr = node.SubmitDeposit(ms.eng.Users().Names()[0], 2, u256.FromUint64(100), u256.FromUint64(100))
		if derr != nil {
			t.Errorf("SubmitDeposit: %v", derr)
		}
		if future.Status != chain.StatusPending {
			t.Errorf("future-epoch deposit credited early: %s", future.Status)
		}
	})
	if _, err := node.Run(drvCfg.Epochs); err != nil {
		t.Fatalf("run: %v", err)
	}
	if future == nil {
		t.Fatal("deposit receipt never issued")
	}
	if future.Status != chain.StatusExecuted {
		t.Fatalf("future deposit = %s, want executed", future.Status)
	}
	if future.Epoch != 2 {
		t.Errorf("future deposit credited in epoch %d, want 2", future.Epoch)
	}
}

func isChainErr(err, sentinel error) bool { return errors.Is(err, sentinel) }

// TestSubmitValidatesUpFront pins the submission-time typed errors: an
// unknown pool, a malformed transaction, and an unfunded user are turned
// away before anything reaches the queue, and no receipt is issued. Both
// backends answer through the one admission path, so each runs the same
// table; for the multi-pool node an unregistered pool ID is the unknown
// pool.
func TestSubmitValidatesUpFront(t *testing.T) {
	multiCfg, multiDrv := multiTestConfigs(21, 4, 2, 2)
	backends := []struct {
		name  string
		build func() (chain.Chain, error)
	}{
		{"single-pool", func() (chain.Chain, error) {
			sys, _, err := NewDriver(smallConfig(21), smallDriver(500_000, 2, 21))
			return sys, err
		}},
		{"multi-pool", func() (chain.Chain, error) {
			sys, _, err := NewMultiDriver(multiCfg, multiDrv)
			return sys, err
		}},
	}
	cases := []struct {
		name string
		tx   *summary.Tx
		want error
	}{
		{"unknown pool", &summary.Tx{ID: "p", Kind: gasmodel.KindSwap, User: "user-000",
			PoolID: "pool-0007", Amount: u256.FromUint64(10)}, chain.ErrUnknownPool},
		{"zero swap", &summary.Tx{ID: "z", Kind: gasmodel.KindSwap, User: "user-000"}, chain.ErrMalformedTx},
		{"inverted ticks", &summary.Tx{ID: "m", Kind: gasmodel.KindMint, User: "user-000",
			TickLower: 120, TickUpper: -120, Amount0Desired: u256.FromUint64(10)}, chain.ErrMalformedTx},
		{"burn of nothing", &summary.Tx{ID: "b", Kind: gasmodel.KindBurn, User: "user-000",
			PosID: "pos"}, chain.ErrMalformedTx},
		{"overlarge burn fraction", &summary.Tx{ID: "bf", Kind: gasmodel.KindBurn, User: "user-000",
			PosID: "pos", BurnFractionBps: 20_000}, chain.ErrMalformedTx},
		{"collect without position", &summary.Tx{ID: "c", Kind: gasmodel.KindCollect, User: "user-000"}, chain.ErrMalformedTx},
		{"unfunded user", &summary.Tx{ID: "u", Kind: gasmodel.KindSwap, User: "stranger",
			Amount: u256.FromUint64(10)}, chain.ErrUnfundedUser},
	}
	for _, b := range backends {
		sys, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		batch := make([]*summary.Tx, len(cases))
		for i, tc := range cases {
			rc, err := sys.Submit(context.Background(), tc.tx)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s/%s: err = %v, want %v", b.name, tc.name, err, tc.want)
			}
			if rc != nil {
				t.Errorf("%s/%s: got a receipt for an invalid submission", b.name, tc.name)
			}
			batch[i] = tc.tx
		}
		// SubmitBatch answers each entry as Submit does.
		res, err := sys.SubmitBatch(context.Background(), batch)
		if err != nil || res.Accepted != 0 {
			t.Fatalf("%s: SubmitBatch accepted %d, err %v; want 0 and nil", b.name, res.Accepted, err)
		}
		for i, tc := range cases {
			if !errors.Is(res.Errs[i], tc.want) || res.Receipts[i] != nil {
				t.Errorf("%s/%s in a batch: err = %v, receipt %v; want %v and none", b.name, tc.name, res.Errs[i], res.Receipts[i], tc.want)
			}
		}
	}
}

// TestSubmitRejectsOutOfRangeMintTicks: a mint with a tick outside
// [amm.MinTick, amm.MaxTick] is refused at the door. Admitted, it would
// reach amm.SqrtRatioAtTick on a shard goroutine.
func TestSubmitRejectsOutOfRangeMintTicks(t *testing.T) {
	cfg, _ := multiTestConfigs(24, 2, 1, 1)
	sys, err := NewMultiSystem(cfg, []string{"user-000"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int32{{881820, 889560}, {-889560, -881820}} {
		tx := &summary.Tx{ID: "hostile", Kind: gasmodel.KindMint, User: "user-000",
			TickLower: r[0], TickUpper: r[1], Amount0Desired: u256.FromUint64(10)}
		if rc, err := sys.Submit(context.Background(), tx); !errors.Is(err, chain.ErrMalformedTx) || rc != nil {
			t.Errorf("mint [%d, %d]: receipt %v, err %v; want ErrMalformedTx", r[0], r[1], rc, err)
		}
	}
}

// TestReceiptLifecycle follows receipts through a run that includes a
// faulty epoch (silent leader round from the FaultPlan): a healthy
// transaction advances Pending → Executed → Checkpointed → Synced →
// Pruned with monotone stage timestamps, the view-change delay shows up
// in its execution timestamp, and a transaction the executor rejects
// carries StatusRejected plus the reason.
func TestReceiptLifecycle(t *testing.T) {
	cfg := smallConfig(22)
	cfg.Faults.ViewChangeStormRounds = map[[2]uint64]int{{1, 1}: 1}
	sys, _, err := NewDriver(cfg, smallDriver(500_000, 2, 22))
	if err != nil {
		t.Fatal(err)
	}
	// Submitted at t=0, consumed by epoch 1 round 1 — the silent-leader
	// round, so execution lands only after the view change.
	good, err := sys.Submit(context.Background(), &summary.Tx{
		ID: "rc-good", Kind: gasmodel.KindSwap, User: "user-000",
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(100),
	})
	if err != nil {
		t.Fatalf("submit good: %v", err)
	}
	// Well-formed but executor-rejected: burning a position that does
	// not exist.
	bad, err := sys.Submit(context.Background(), &summary.Tx{
		ID: "rc-bad", Kind: gasmodel.KindBurn, User: "user-000",
		PosID: "no-such-position", BurnFractionBps: 10_000,
	})
	if err != nil {
		t.Fatalf("submit bad: %v", err)
	}
	if good.Status != chain.StatusPending || bad.Status != chain.StatusPending {
		t.Fatalf("fresh receipts should be pending, got %s / %s", good.Status, bad.Status)
	}

	if _, err := sys.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}

	if good.Status != chain.StatusPruned {
		t.Fatalf("good receipt = %s, want pruned", good.Status)
	}
	if good.Epoch != 1 || good.Round != 1 {
		t.Errorf("good receipt executed at %d/%d, want 1/1", good.Epoch, good.Round)
	}
	// The silent leader forces a view change, so the round's agreement
	// takes at least the view-change timeout beyond submission.
	if good.ExecutedAt < viewChangeTimeout {
		t.Errorf("ExecutedAt = %s, want >= view-change timeout %s", good.ExecutedAt, viewChangeTimeout)
	}
	stages := []struct {
		name     string
		at, next time.Duration
	}{
		{"submitted→executed", good.SubmittedAt, good.ExecutedAt},
		{"executed→checkpointed", good.ExecutedAt, good.CheckpointedAt},
		{"checkpointed→synced", good.CheckpointedAt, good.SyncedAt},
		{"synced→pruned", good.SyncedAt, good.PrunedAt},
	}
	for _, st := range stages {
		if st.next < st.at {
			t.Errorf("%s went backwards: %s -> %s", st.name, st.at, st.next)
		}
	}
	if good.ExecutedAt == 0 || good.CheckpointedAt == 0 || good.SyncedAt == 0 || good.PrunedAt == 0 {
		t.Error("good receipt left unset stage timestamps")
	}

	if bad.Status != chain.StatusRejected {
		t.Fatalf("bad receipt = %s, want rejected", bad.Status)
	}
	if bad.Err == nil {
		t.Error("rejected receipt should carry the executor's reason")
	}
	if bad.SyncedAt != 0 || bad.PrunedAt != 0 {
		t.Error("rejected receipt should not advance past rejection")
	}
}

// TestSyncRevertSurfacesTypedError pins the replacement of the former
// panic: a committee that signs a corrupted digest gets its Sync
// reverted by TokenBank's TSQC verification, and Run returns
// chain.ErrSyncReverted instead of crashing. Receipts of the corrupted
// epoch stall at Checkpointed — executed and checkpointed on the
// sidechain, never synced to the mainchain.
func TestSyncRevertSurfacesTypedError(t *testing.T) {
	cfg := smallConfig(23)
	cfg.Faults.CorruptSyncEpochs = map[uint64]bool{2: true}
	sys, _, err := NewDriver(cfg, smallDriver(500_000, 3, 23))
	if err != nil {
		t.Fatal(err)
	}
	halts := sys.Subscribe(chain.MaskHalted)
	rep, err := sys.Run(3)
	if err == nil {
		t.Fatal("corrupted epoch-2 sync must surface an error")
	}
	if !errors.Is(err, chain.ErrSyncReverted) {
		t.Fatalf("err = %v, want chain.ErrSyncReverted", err)
	}
	if rep == nil {
		t.Fatal("Run should still report the partial run")
	}
	// Epoch 1 synced fine before the fault.
	if rep.SyncsOK < 1 {
		t.Errorf("SyncsOK = %d, want >= 1 (epoch 1 pre-fault)", rep.SyncsOK)
	}
	if sys.LastSyncedEpoch() != 1 {
		t.Errorf("bank synced through %d, want 1", sys.LastSyncedEpoch())
	}
	ev, ok := <-halts
	if !ok {
		t.Fatal("no halt event published")
	}
	if ev.Type != chain.EventHalted || !errors.Is(ev.Err, chain.ErrSyncReverted) {
		t.Errorf("halt event = %+v", ev)
	}
	// Submissions after the halt are refused.
	if _, err := sys.Submit(context.Background(), &summary.Tx{ID: "late", Kind: gasmodel.KindSwap,
		User: "user-000", Amount: u256.FromUint64(1)}); !errors.Is(err, chain.ErrHalted) {
		t.Errorf("post-halt submit err = %v, want ErrHalted", err)
	}
}

// TestEventStream checks the Subscribe surface end to end: counts match
// the run shape, times are monotone per type, and masks filter.
func TestEventStream(t *testing.T) {
	cfg := smallConfig(24)
	sys, _, err := NewDriver(cfg, smallDriver(500_000, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	all := sys.Subscribe(chain.MaskAll)
	syncsOnly := sys.Subscribe(chain.MaskSyncConfirmed)
	// Visibility contract: by the time a lifecycle event publishes, the
	// covered receipts already show the corresponding stage. Hooks run
	// synchronously on the simulator goroutine, so this is race-free.
	inner := sys.(*MultiSystem)
	inner.bus.OnPublish(func(ev chain.Event) {
		switch ev.Type {
		case chain.EventSyncConfirmed:
			for _, rec := range inner.recsByEpoch[ev.Epoch] {
				if rec.rc.Status != chain.StatusSynced {
					t.Errorf("epoch %d receipt %s at sync-confirmed publish, want synced", ev.Epoch, rec.rc.Status)
				}
			}
		case chain.EventSummaryBlock:
			for _, rec := range inner.recsByEpoch[ev.Epoch] {
				if rec.rc.Status != chain.StatusCheckpointed {
					t.Errorf("epoch %d receipt %s at summary publish, want checkpointed", ev.Epoch, rec.rc.Status)
				}
			}
		}
	})
	type counts map[chain.EventType]int
	done := make(chan counts)
	go func() {
		c := make(counts)
		var lastAt time.Duration
		for ev := range all {
			c[ev.Type]++
			if ev.At < lastAt {
				// The bus preserves publish order; virtual time is
				// monotone within the run.
				t.Errorf("event time went backwards: %s after %s", ev.At, lastAt)
			}
			lastAt = ev.At
		}
		done <- c
	}()
	nSyncs := 0
	syncDone := make(chan struct{})
	go func() {
		for range syncsOnly {
			nSyncs++
		}
		close(syncDone)
	}()

	rep, err := sys.Run(2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	c := <-done
	<-syncDone

	if got := c[chain.EventEpochStart]; got != rep.EpochsRun {
		t.Errorf("epoch-start events = %d, want %d", got, rep.EpochsRun)
	}
	if got := c[chain.EventMetaBlock]; got != rep.EpochsRun*cfg.EpochRounds {
		t.Errorf("meta-block events = %d, want %d", got, rep.EpochsRun*cfg.EpochRounds)
	}
	if got := c[chain.EventSyncConfirmed]; got != rep.SyncsOK {
		t.Errorf("sync-confirmed events = %d, want %d", got, rep.SyncsOK)
	}
	if got := c[chain.EventPruned]; got == 0 {
		t.Error("no pruned events")
	}
	if c[chain.EventHalted] != 0 {
		t.Errorf("unexpected halt events: %d", c[chain.EventHalted])
	}
	if nSyncs != c[chain.EventSyncConfirmed] {
		t.Errorf("masked subscription saw %d syncs, full saw %d", nSyncs, c[chain.EventSyncConfirmed])
	}
	// The collector consumed the same stream through the bus hook.
	if got := rep.Collector.LifecycleCount(chain.EventEpochStart.String()); got != rep.EpochsRun {
		t.Errorf("collector lifecycle count = %d, want %d", got, rep.EpochsRun)
	}
}

// TestDriverSkipsAheadFundingInShortRuns is the regression test for the
// two-epoch-ahead deposit funding bug: a 1-epoch run used to submit
// epoch-2 (and epoch-3) deposits on the mainchain even though those
// epochs never execute, wasting deposit gas for every user. With the
// gate, a 1-epoch run performs no mainchain deposit flows at all, while
// multi-epoch runs still fund ahead as before.
func TestDriverSkipsAheadFundingInShortRuns(t *testing.T) {
	one, _, err := NewDriver(smallConfig(25), smallDriver(500_000, 1, 25))
	if err != nil {
		t.Fatal(err)
	}
	repOne, err := one.Run(1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, n := repOne.Collector.AvgGas("deposit"); n != 0 {
		t.Errorf("1-epoch run observed %d mainchain deposit flows, want 0", n)
	}
	if _, n := repOne.Collector.AvgGas("approve"); n != 0 {
		t.Errorf("1-epoch run observed %d approvals, want 0", n)
	}
	bank := one.(*MultiSystem).bank.(*paperBank).tb
	for e := uint64(2); e <= 4; e++ {
		if len(bank.Deposits[e]) != 0 {
			t.Errorf("1-epoch run funded epoch-%d deposits for %d users", e, len(bank.Deposits[e]))
		}
	}
	if err := one.Validate(); err != nil {
		t.Errorf("1-epoch invariants: %v", err)
	}
	// Documented tradeoff: the arrival tail that structurally spills into
	// drain epoch 2 is rejected there (no deposits) instead of being
	// executed on the back of full-size speculative funding. The
	// rejections stay bounded by roughly one round of arrivals.
	drv := workload.Rho(500_000, 7)
	if repOne.Rejected > 3*drv {
		t.Errorf("1-epoch run rejected %d txs, want <= ~%d (one round's tail)", repOne.Rejected, 3*drv)
	}

	// A 3-epoch run still funds epochs 2..4 ahead of execution.
	three, _, err := NewDriver(smallConfig(25), smallDriver(500_000, 3, 25))
	if err != nil {
		t.Fatal(err)
	}
	repThree, err := three.Run(3)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, n := repThree.Collector.AvgGas("deposit"); n == 0 {
		t.Error("multi-epoch run should still fund deposits ahead")
	}
	if err := three.Validate(); err != nil {
		t.Errorf("3-epoch invariants: %v", err)
	}
}

// TestDepositReceipt pins the deposit flow's receipt treatment: Pending
// until the final mainchain leg confirms, then Synced with timestamps.
func TestDepositReceipt(t *testing.T) {
	sys, _, err := NewDriver(smallConfig(26), smallDriver(500_000, 2, 26))
	if err != nil {
		t.Fatal(err)
	}
	var rc *chain.Receipt
	sys.Sim().At(time.Second, func() {
		var derr error
		rc, derr = sys.SubmitDeposit("user-001", 2, u256.FromUint64(500), u256.FromUint64(500))
		if derr != nil {
			t.Errorf("SubmitDeposit: %v", derr)
		}
		if rc.Status != chain.StatusPending {
			t.Errorf("fresh deposit receipt = %s, want pending", rc.Status)
		}
	})
	if _, err := sys.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rc == nil {
		t.Fatal("deposit receipt never issued")
	}
	if rc.Status != chain.StatusSynced {
		t.Fatalf("deposit receipt = %s, want synced", rc.Status)
	}
	if rc.SyncedAt <= rc.SubmittedAt {
		t.Errorf("deposit synced at %s, submitted at %s", rc.SyncedAt, rc.SubmittedAt)
	}
	// Malformed and unfunded deposits are refused up front.
	if _, err := sys.SubmitDeposit("user-001", 3, u256.Int{}, u256.Int{}); !errors.Is(err, chain.ErrMalformedTx) {
		t.Errorf("empty deposit err = %v, want ErrMalformedTx", err)
	}
	if _, err := sys.SubmitDeposit("stranger", 3, u256.FromUint64(1), u256.FromUint64(1)); !errors.Is(err, chain.ErrUnfundedUser) {
		t.Errorf("stranger deposit err = %v, want ErrUnfundedUser", err)
	}
}

// TestReceiptLedgerReusesPrunedArrays pins the receipt ledger's memory
// rule and its contents: a pruned epoch's array is cleared — it holds no
// transaction or receipt — and a later epoch takes it over, and at its
// checkpoint an epoch's ledger lists exactly the transactions its
// meta-blocks included, in execution order, each stamped with its round.
func TestReceiptLedgerReusesPrunedArrays(t *testing.T) {
	const epochs = 10
	cfg := recoveryCfg(23, 4, 2, 2)
	sys, err := NewMultiSystem(cfg, recoveryUsers())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	attachRecoveryTraffic(t, sys, 23, 40)
	traffic := sys.OnEpochStart
	sys.OnEpochStart = func(e uint64) { // and a burn of no position, which execution rejects
		traffic(e)
		tx := &summary.Tx{ID: fmt.Sprintf("rej-e%d", e), Kind: gasmodel.KindBurn, User: recoveryUsers()[0],
			PoolID: sys.PoolIDs()[0], PosID: "no-such-position", BurnFractionBps: 5000}
		if _, err := sys.Submit(context.Background(), tx); err != nil {
			t.Errorf("submit %s: %v", tx.ID, err)
		}
	}
	pruned := map[*queuedTx]bool{}
	reused, checked := 0, 0
	sys.bus.OnPublish(func(ev chain.Event) {
		e := ev.Epoch
		switch {
		case ev.Type == chain.EventMetaBlock && ev.Round == 1:
			if recs := sys.recsByEpoch[e]; cap(recs) > 0 && pruned[unsafe.SliceData(recs)] {
				reused++
			}
		case ev.Type == chain.EventSummaryBlock:
			recs := sys.recsByEpoch[e]
			i := 0
			for _, mb := range sys.ledger.MetaBlocks(e) {
				for _, tx := range mb.Txs {
					if i >= len(recs) || recs[i].tx != tx || recs[i].rc.Round != mb.Round ||
						recs[i].rc.Epoch != e || recs[i].rc.Status != chain.StatusCheckpointed {
						t.Fatalf("epoch %d: ledger entry %d is not round %d's %s", e, i, mb.Round, tx.ID)
					}
					i++
				}
			}
			if i != len(recs) {
				t.Errorf("epoch %d: ledger lists %d transactions, its meta-blocks %d", e, len(recs), i)
			}
			checked++
		case ev.Type == chain.EventPruned:
			spare := sys.spareRecs[:cap(sys.spareRecs)]
			for _, q := range spare {
				if q != (queuedTx{}) {
					t.Fatalf("epoch %d: the spare ledger array still holds %s", e, q.tx.ID)
				}
			}
			if len(spare) > 0 {
				pruned[unsafe.SliceData(spare)] = true
			}
		}
	})
	rep, err := sys.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}
	if checked < epochs || reused == 0 || rep.Rejected == 0 {
		t.Errorf("checked %d epochs, %d took over a pruned array, %d rejected; want %d, > 0, > 0",
			checked, reused, rep.Rejected, epochs)
	}
}
