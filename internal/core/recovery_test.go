package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/engine"
	"ammboost/internal/gasmodel"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// recoveryUsers is the fixed deployment user set for the restart tests.
func recoveryUsers() []string {
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("ru-%d", i)
	}
	return users
}

func recoveryCfg(seed int64, pools, shards, depth int) chain.Config {
	return chain.Config{
		Seed:          seed,
		NumPools:      pools,
		NumShards:     shards,
		PipelineDepth: depth,
		EpochRounds:   3,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 10,
		Users:         recoveryUsers(),
	}
}

// attachRecoveryTraffic drives deterministic per-epoch traffic: every
// epoch's transactions are derived from (seed, epoch) alone, so a node
// recovered at any boundary regenerates exactly the stream the
// uninterrupted run saw — the property a recovery-aware driver needs
// (pre-crash traffic that never executed is gone, like any mempool).
func attachRecoveryTraffic(t *testing.T, sys *MultiSystem, seed int64, perEpoch int) {
	t.Helper()
	pools := sys.PoolIDs()
	users := recoveryUsers()
	sys.OnEpochStart = func(epoch uint64) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
		type mintRef struct{ id, user, pool string }
		var minted []mintRef
		for i := 0; i < perEpoch; i++ {
			user := users[rng.Intn(len(users))]
			pid := pools[rng.Intn(len(pools))]
			txID := fmt.Sprintf("rt-e%d-%d", epoch, i)
			var tx *summary.Tx
			switch k := rng.Intn(10); {
			case k < 6 || (k >= 8 && len(minted) == 0):
				tx = &summary.Tx{ID: txID, Kind: gasmodel.KindSwap, User: user, PoolID: pid,
					ZeroForOne: rng.Intn(2) == 0, ExactIn: true,
					Amount: u256.FromUint64(uint64(rng.Intn(500_000) + 1))}
			case k < 8:
				lo := int32(rng.Intn(20)-10) * 60
				tx = &summary.Tx{ID: txID, Kind: gasmodel.KindMint, User: user, PoolID: pid,
					TickLower: lo, TickUpper: lo + 600,
					Amount0Desired: u256.FromUint64(1 << 20), Amount1Desired: u256.FromUint64(1 << 20)}
				minted = append(minted, mintRef{summary.DerivePositionID(txID, user), user, pid})
			default:
				m := minted[rng.Intn(len(minted))]
				tx = &summary.Tx{ID: txID, Kind: gasmodel.KindBurn, User: m.user, PoolID: m.pool,
					PosID: m.id, BurnFractionBps: 5000}
			}
			if _, err := sys.Submit(context.Background(), tx); err != nil && !errors.Is(err, chain.ErrHalted) {
				t.Errorf("submit %s: %v", txID, err)
			}
		}
	}
}

// TestCrashOffsetSweep kills the store at arbitrary byte offsets — not
// just boundaries — through the FaultFS crash harness: whatever survives
// on "disk", recovery must come back at some earlier boundary and the
// resumed run must still re-derive the reference fingerprint. This is
// the torn-final-record acceptance: roll back, never panic, never
// silently diverge.
func TestCrashOffsetSweep(t *testing.T) {
	const seed, epochs, pools, perEpoch = 11, 3, 4, 16
	cfg := recoveryCfg(seed, pools, 2, 2)

	refSys, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, refSys, seed, perEpoch)
	if _, err := refSys.Run(epochs); err != nil {
		t.Fatal(err)
	}
	ref := refSys.Fingerprint(nil)

	// Clean store-backed run to learn the file geometry.
	clean := &store.MemFS{}
	node, err := OpenFS(clean, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, seed, perEpoch)
	if _, err := node.Run(epochs); err != nil {
		t.Fatal(err)
	}
	node.Close()
	rec, w, err := store.Open(clean, "", DeploymentFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	headerLen := storeHeaderLen(t)
	offsets := []int64{headerLen, headerLen + 1}
	for _, b := range rec.Boundaries {
		offsets = append(offsets, b-1, b, b+1, b+57)
	}
	for _, crash := range offsets {
		inner := &store.MemFS{}
		ffs := store.NewFaultFS(inner)
		ffs.CrashAfter = crash
		crashed, err := OpenFS(ffs, "", cfg)
		if err != nil {
			t.Fatalf("crash=%d open: %v", crash, err)
		}
		cms := crashed.(*MultiSystem)
		attachRecoveryTraffic(t, cms, seed, perEpoch)
		if _, err := crashed.Run(epochs); err != nil {
			t.Fatalf("crash=%d run: %v", crash, err)
		}
		crashed.Close()

		// Reboot on what survived.
		reopened, err := OpenFS(inner, "", cfg)
		if err != nil {
			t.Fatalf("crash=%d reopen: %v", crash, err)
		}
		rms := reopened.(*MultiSystem)
		boundary := uint64(0)
		for i, b := range rec.Boundaries {
			if b <= crash {
				boundary = uint64(i + 1)
			}
		}
		if got := rms.Epoch(); got != boundary {
			t.Fatalf("crash=%d: recovered epoch %d, want %d", crash, got, boundary)
		}
		attachRecoveryTraffic(t, rms, seed, perEpoch)
		if _, err := reopened.Run(epochs); err != nil {
			t.Fatalf("crash=%d resumed run: %v", crash, err)
		}
		if err := ref.Diff(rms.Fingerprint(nil)); err != nil {
			t.Errorf("crash=%d: %v", crash, err)
		}
		reopened.Close()
	}
}

// TestOpenEdgeCases covers the Open contract around the happy
// path: fresh directories, config mismatches, the unset pool count, and
// resuming a deployment that already finished its planned epochs.
func TestOpenEdgeCases(t *testing.T) {
	cfg := recoveryCfg(5, 4, 2, 2)

	t.Run("empty dir is a fresh node", func(t *testing.T) {
		dir := t.TempDir()
		node, err := Open(filepath.Join(dir, "data"), cfg) // not yet created
		if err != nil {
			t.Fatal(err)
		}
		ms := node.(*MultiSystem)
		if ms.Recovery() != nil {
			t.Error("fresh node claims a recovery")
		}
		attachRecoveryTraffic(t, ms, 5, 8)
		if _, err := node.Run(1); err != nil {
			t.Fatal(err)
		}
		node.Close()
	})

	t.Run("fingerprint mismatch", func(t *testing.T) {
		dir := t.TempDir()
		node, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.Close()
		other := cfg
		other.Seed = 999
		if _, err := Open(dir, other); !errors.Is(err, chain.ErrStoreMismatch) {
			t.Errorf("seed change: err = %v, want ErrStoreMismatch", err)
		}
		users := cfg
		users.Users = append([]string{"intruder"}, cfg.Users...)
		if _, err := Open(dir, users); !errors.Is(err, chain.ErrStoreMismatch) {
			t.Errorf("user change: err = %v, want ErrStoreMismatch", err)
		}
		// Shard count and pipeline depth are state-invariant: no mismatch.
		reshard := cfg
		reshard.NumShards = 16
		reshard.PipelineDepth = 1
		node2, err := Open(dir, reshard)
		if err != nil {
			t.Errorf("reshard reopen: %v", err)
		} else {
			node2.Close()
		}
	})

	t.Run("unset pool count opens one pool", func(t *testing.T) {
		// NumPools 0 runs one pool, and a store written so reopens under
		// NumPools 1: the fingerprint records the pool count that runs.
		dir := t.TempDir()
		unset := cfg
		unset.NumPools = 0
		node, err := Open(dir, unset)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(node.PoolIDs()); got != 1 {
			t.Errorf("NumPools 0 opened %d pools, want 1", got)
		}
		node.Close()
		one := cfg
		one.NumPools = 1
		node, err = Open(dir, one)
		if err != nil {
			t.Fatalf("reopen under NumPools 1: %v", err)
		}
		node.Close()
		// A held Sync is not persisted, so a node with a store refuses
		// the faults whose recovery is a mass-sync.
		skip := cfg
		skip.Faults.SkipSyncEpochs = map[uint64]bool{2: true}
		if _, err := Open(t.TempDir(), skip); !errors.Is(err, ErrUnsupportedFault) {
			t.Errorf("Open with SkipSyncEpochs: err = %v, want ErrUnsupportedFault", err)
		}
	})

	t.Run("resume past planned epochs", func(t *testing.T) {
		dir := t.TempDir()
		node, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms := node.(*MultiSystem)
		attachRecoveryTraffic(t, ms, 5, 8)
		rep, err := node.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		node.Close()

		node2, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms2 := node2.(*MultiSystem)
		if got := ms2.Recovery().Epoch; got != 2 {
			t.Fatalf("recovered epoch %d, want 2", got)
		}
		rep2, err := node2.Run(2) // already done: nothing to execute
		if err != nil {
			t.Fatalf("no-op resume: %v", err)
		}
		if rep2.EpochsRun != rep.EpochsRun {
			t.Errorf("no-op resume ran %d epochs, want %d", rep2.EpochsRun, rep.EpochsRun)
		}
		for e, root := range rep.SummaryRoots {
			if rep2.SummaryRoots[e] != root {
				t.Errorf("epoch %d root not restored", e)
			}
		}
		if err := node2.Validate(); err != nil {
			t.Errorf("restored Validate: %v", err)
		}
		node2.Close()
	})
}

// TestRecoverHaltedStaysHalted pins the armed-faults edge case: a node
// that halted on a lifecycle fault (corrupt epoch-2 sync) persists the
// halt, and reopening it — with the same FaultPlan still armed — yields
// a node that is halted on arrival: submissions refused, Run returns the
// persisted fault, no epoch re-executes.
func TestRecoverHaltedStaysHalted(t *testing.T) {
	cfg := recoveryCfg(13, 4, 2, 2)
	cfg.Faults.CorruptSyncEpochs = map[uint64]bool{2: true}
	dir := t.TempDir()
	node, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, 13, 8)
	if _, err := node.Run(4); !errors.Is(err, chain.ErrSyncReverted) {
		t.Fatalf("faulted run err = %v, want ErrSyncReverted", err)
	}
	node.Close()

	node2, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen halted store: %v", err)
	}
	ms2 := node2.(*MultiSystem)
	rec := ms2.Recovery()
	if rec == nil || !rec.Halted || rec.HaltReason == "" {
		t.Fatalf("recovery = %+v, want halted with reason", rec)
	}
	if _, err := ms2.Submit(context.Background(), &summary.Tx{ID: "post", Kind: gasmodel.KindSwap, User: "ru-0",
		Amount: u256.FromUint64(1)}); !errors.Is(err, chain.ErrHalted) {
		t.Errorf("submit on recovered-halted node: %v, want ErrHalted", err)
	}
	rep, err := node2.Run(4)
	if !errors.Is(err, chain.ErrHalted) {
		t.Errorf("run on recovered-halted node: %v, want ErrHalted", err)
	}
	if rep.EpochsRun != int(rec.Epoch) {
		t.Errorf("halted resume ran epochs: %d, want %d", rep.EpochsRun, rec.Epoch)
	}
	node2.Close()
}

// TestRecoveredReceiptTable pins the receipt-table round trip: receipts
// persisted at checkpoint come back with their identity, stages, and
// virtual timestamps, upgraded to Pruned for epochs the replayed
// sync-part log confirmed.
func TestRecoveredReceiptTable(t *testing.T) {
	cfg := recoveryCfg(17, 4, 2, 1)
	dir := t.TempDir()
	node, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, 17, 12)
	if _, err := node.Run(2); err != nil {
		t.Fatal(err)
	}
	node.Close()

	node2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := node2.(*MultiSystem).Recovery()
	if rec == nil || len(rec.Receipts) == 0 {
		t.Fatal("no receipts recovered")
	}
	for _, rc := range rec.Receipts {
		if rc.TxID == "" || rc.Epoch == 0 {
			t.Errorf("receipt missing identity: %+v", rc)
		}
		switch rc.Status {
		case chain.StatusPruned, chain.StatusRejected:
		default:
			t.Errorf("receipt %s recovered at %v, want pruned (sync log replayed) or rejected",
				rc.TxID, rc.Status)
		}
		if rc.Status == chain.StatusPruned && (rc.ExecutedAt == 0 || rc.CheckpointedAt == 0) {
			t.Errorf("receipt %s lost its timestamps: %+v", rc.TxID, rc)
		}
	}
	node2.Close()
}

// TestIdlePoolsKeepGenesisInBank pins that the bank holds every pool's
// genesis position from deployment: a node whose traffic trades one of
// its four pools passes Validate live, after reopening a compacted
// store, and after resuming from it.
func TestIdlePoolsKeepGenesisInBank(t *testing.T) {
	cfg := recoveryCfg(23, 4, 2, 1)
	cfg.CompactEvery = 2
	drive := func(ms *MultiSystem) {
		hot := ms.PoolIDs()[0]
		ms.OnEpochStart = func(epoch uint64) {
			for i, user := range cfg.Users[:4] {
				tx := &summary.Tx{ID: fmt.Sprintf("idle-e%d-%d", epoch, i), Kind: gasmodel.KindSwap,
					User: user, PoolID: hot, ZeroForOne: i%2 == 0, ExactIn: true,
					Amount: u256.FromUint64(10_000)}
				if _, err := ms.Submit(context.Background(), tx); err != nil {
					t.Errorf("submit %s: %v", tx.ID, err)
				}
			}
		}
	}
	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	drive(ms)
	if _, err := node.Run(4); err != nil {
		t.Fatal(err)
	}
	if err := node.Validate(); err != nil {
		t.Errorf("live Validate: %v", err)
	}
	idle := ms.PoolIDs()[3]
	if _, ok := ms.Bank().Positions[idle][engine.GenesisPositionID(idle)]; !ok {
		t.Errorf("bank lacks idle pool %s's genesis position", idle)
	}
	node.Close()

	node2, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if err := node2.Validate(); err != nil {
		t.Errorf("reopened Validate: %v", err)
	}
	drive(node2.(*MultiSystem))
	if _, err := node2.Run(6); err != nil {
		t.Fatal(err)
	}
	if err := node2.Validate(); err != nil {
		t.Errorf("resumed Validate: %v", err)
	}
}

// TestStoreLockSingleWriter pins the single-writer contract: a second
// Open on a live data directory fails with ErrStoreLocked instead of
// interleaving records, and the lock dies with the holder (Close), so a
// crashed node's store reopens freely.
func TestStoreLockSingleWriter(t *testing.T) {
	cfg := recoveryCfg(29, 4, 2, 1)
	dir := t.TempDir()
	node, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, cfg); !errors.Is(err, chain.ErrStoreLocked) {
		t.Errorf("second open err = %v, want ErrStoreLocked", err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	node2, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	node2.Close()
}

// TestFsyncBatchingRefused: a store-backed node refuses StoreFsyncEvery
// above 1 with a typed error, before it writes anything. Batched fsyncs
// would let a block include an epoch's sync part before the epoch is on
// disk.
func TestFsyncBatchingRefused(t *testing.T) {
	cfg := recoveryCfg(29, 4, 2, 1)
	cfg.StoreFsyncEvery = 2
	fsys := &store.MemFS{}
	if _, err := OpenFS(fsys, "", cfg); !errors.Is(err, chain.ErrStoreUnsupported) {
		t.Fatalf("OpenFS with StoreFsyncEvery 2: err = %v, want ErrStoreUnsupported", err)
	}
	if img, err := fsys.ReadFile(store.FileName); err == nil {
		t.Errorf("refused open left a %d-byte store behind", len(img))
	}
	cfg.StoreFsyncEvery = 1
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatalf("OpenFS with StoreFsyncEvery 1: %v", err)
	}
	node.Close()
}

// TestKillBeforeCorruptSyncReverts: a node killed after it persisted a
// corrupt-signed epoch (CorruptSyncEpochs), whose parts it had submitted
// but the chain had not yet reverted, reopens halted with the
// ErrSyncReverted the uninterrupted run halts with, not as a corrupt
// store. Its recovered epochs are the uninterrupted run's, the halt is
// persisted, and a second reopen is halted too. The corrupt epoch syncs
// in several parts.
func TestKillBeforeCorruptSyncReverts(t *testing.T) {
	cfg := goldenCfg(true)
	cfg.CompactEvery = 0
	cfg.Faults.CorruptSyncEpochs = map[uint64]bool{3: true}
	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, 42, 16)
	var image []byte
	parts := 0
	ms.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventSyncSubmitted && ev.Epoch == 3 {
			// Submitted is not yet durable: the image is the store's once
			// its store lane has written the epoch.
			_ = ms.storeLane.join()
			image, _ = fsys.ReadFile(store.FileName)
			parts = ev.Parts
		}
	})
	_, mainErr := ms.Run(5)
	if !errors.Is(mainErr, chain.ErrSyncReverted) || image == nil || parts < 2 {
		t.Fatalf("run err = %v, image %d bytes, epoch 3 in %d parts; want ErrSyncReverted after a multi-part submit",
			mainErr, len(image), parts)
	}
	mainFP := ms.Fingerprint(nil)
	ms.Close()

	killed := &store.MemFS{}
	writeMemStore(t, killed, image)
	for reopen := 1; reopen <= 2; reopen++ {
		node, err := OpenFS(killed, "", cfg)
		if err != nil {
			t.Fatalf("reopen %d: %v", reopen, err)
		}
		re := node.(*MultiSystem)
		rec := re.Recovery()
		if rec == nil || !rec.Halted || rec.Epoch != 3 {
			t.Fatalf("reopen %d: recovery %+v, want halted at boundary 3", reopen, rec)
		}
		for e, ep := range rec.Fingerprint.Epochs {
			if want, ok := mainFP.Epochs[e]; !ok || fmt.Sprint(ep) != fmt.Sprint(want) {
				t.Errorf("reopen %d: recovered epoch %d differs from the uninterrupted run's", reopen, e)
			}
		}
		_, err = re.Run(5)
		if reopen == 1 && (err == nil || err.Error() != mainErr.Error()) {
			t.Errorf("reopen 1: run err = %v, want %v", err, mainErr)
		}
		if reopen == 2 && !errors.Is(err, chain.ErrHalted) {
			t.Errorf("reopen 2: run err = %v, want the persisted halt", err)
		}
		re.Close()
	}
}
