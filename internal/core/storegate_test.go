package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/mainchain"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// logSyncFS is an in-memory store filesystem whose log file calls hook
// before each of its fsyncs: hook gets the fsync's 1-based number (the
// header's, at creation, is the first) and returns the error the fsync
// reports. synced counts the fsyncs that have returned.
type logSyncFS struct {
	store.MemFS
	hook   func(n int) error
	calls  atomic.Int32
	synced atomic.Int32
}

func (f *logSyncFS) OpenAppend(name string, size int64) (store.File, error) {
	file, err := f.MemFS.OpenAppend(name, size)
	if err != nil || name != store.FileName {
		return file, err
	}
	return &hookedLog{File: file, fs: f}, nil
}

type hookedLog struct {
	store.File
	fs *logSyncFS
}

func (l *hookedLog) Sync() error {
	if hook := l.fs.hook; hook != nil {
		if err := hook(int(l.fs.calls.Add(1))); err != nil {
			return err
		}
	}
	err := l.File.Sync()
	l.fs.synced.Add(1)
	return err
}

// syncPartEpoch reports the epoch of a sync part transaction.
func syncPartEpoch(tx *mainchain.Tx) (uint64, bool) {
	args, ok := tx.Args.(*mainchain.MultiSyncArgs)
	if !ok {
		return 0, false
	}
	return args.Epoch, true
}

// TestStoreAppendOffLifecycle pins an epoch's append and fsync off the
// lifecycle goroutine: from epoch 2 until the last epoch starts, every
// log fsync holds until the lifecycle publishes its next meta-block,
// which a lifecycle that wrote inline could never do (it would wait out
// the 5 s fallback instead). Rounds are shorter than the mainchain's
// propagation delay, so that meta-block comes before the block the
// epoch's part waits at. The run still ends bit-identical to a storeless
// one.
func TestStoreAppendOffLifecycle(t *testing.T) {
	const seed, epochs = 19, 5
	cfg := recoveryCfg(seed, 4, 2, 2)
	cfg.RoundDuration = time.Second
	var metas atomic.Int64
	var armed, timedOut atomic.Bool
	var held atomic.Int32
	fsys := &logSyncFS{hook: func(int) error {
		if !armed.Load() || timedOut.Load() {
			return nil
		}
		start, deadline := metas.Load(), time.Now().Add(5*time.Second)
		for metas.Load() == start {
			if time.Now().After(deadline) {
				timedOut.Store(true)
				return nil
			}
			time.Sleep(50 * time.Microsecond)
		}
		held.Add(1)
		return nil
	}}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, seed, 8)
	ms.OnEvent(func(ev chain.Event) {
		switch ev.Type {
		case chain.EventMetaBlock:
			metas.Add(1)
		case chain.EventEpochStart:
			armed.Store(ev.Epoch >= 2 && ev.Epoch < epochs)
		}
	})
	if _, err := ms.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Error("an epoch's fsync waited 5 s for the next meta-block: the lifecycle waited for the fsync")
	}
	if held.Load() == 0 {
		t.Error("no fsync was held: the test armed nothing")
	}
	got := ms.Fingerprint(nil)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, ref, seed, 8)
	if _, err := ref.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if err := got.Diff(ref.Fingerprint(nil)); err != nil {
		t.Errorf("store-on run differs from the storeless one: %v", err)
	}
}

// TestNoBlockIncludesPartBeforeItsAppend pins the durability fence: with
// every log fsync slowed in wall-clock time, no mainchain block includes
// a part of epoch e before e's append — the log's (1+e)-th fsync, after
// the header's — has returned.
func TestNoBlockIncludesPartBeforeItsAppend(t *testing.T) {
	const seed, epochs = 23, 6
	cfg := recoveryCfg(seed, 4, 2, 2)
	fsys := &logSyncFS{hook: func(int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, seed, 8)
	parts := 0
	ms.mc.OnBlock = append(ms.mc.OnBlock, func(b *mainchain.Block) {
		synced := int(fsys.synced.Load())
		for _, tx := range b.Txs {
			e, ok := syncPartEpoch(tx)
			if !ok {
				continue
			}
			parts++
			if synced < 1+int(e) {
				t.Errorf("block %d includes %s with %d log fsyncs returned; epoch %d's append ends with fsync %d",
					b.Number, tx.ID, synced, e, 1+e)
			}
		}
	})
	if _, err := ms.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if parts < epochs {
		t.Errorf("%d sync parts included, want at least one per epoch (%d)", parts, epochs)
	}
}

// TestFailedAppendHalts: an epoch whose append fails its fsync halts the
// node with ErrStoreWrite naming that epoch, when its part reaches a
// block: the same halt epoch, fingerprint and receipt stages on every
// run, and the failed epoch's part never executes.
func TestFailedAppendHalts(t *testing.T) {
	const seed, epochs, failed, perEpoch = 29, 6, 3, 10
	cfg := recoveryCfg(seed, 4, 2, 2)
	run := func() (chain.Fingerprint, uint64) {
		fsys := &logSyncFS{hook: func(n int) error {
			if n == 1+failed {
				return errors.New("input/output error")
			}
			return nil
		}}
		node, err := OpenFS(fsys, "", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms := node.(*MultiSystem)
		pools := ms.PoolIDs()
		var receipts []*chain.Receipt
		ms.OnEpochStart = func(e uint64) {
			for i := range perEpoch {
				rc, err := ms.Submit(context.Background(), &summary.Tx{
					ID: fmt.Sprintf("fa-e%d-%d", e, i), Kind: gasmodel.KindSwap,
					User: recoveryUsers()[i%len(recoveryUsers())], PoolID: pools[(int(e)+i)%len(pools)],
					ZeroForOne: i%2 == 0, ExactIn: true, Amount: u256.FromUint64(uint64(1000 + i)),
				})
				if err == nil {
					receipts = append(receipts, rc)
				} else if !errors.Is(err, chain.ErrHalted) {
					t.Errorf("submit: %v", err)
				}
			}
		}
		ms.mc.OnBlock = append(ms.mc.OnBlock, func(b *mainchain.Block) {
			for _, tx := range b.Txs {
				if e, ok := syncPartEpoch(tx); ok && e >= failed {
					t.Errorf("block %d includes %s, a part of an epoch at or after the failed append's", b.Number, tx.ID)
				}
			}
		})
		var halted uint64
		ms.OnEvent(func(ev chain.Event) {
			if ev.Type == chain.EventHalted {
				halted = ev.Epoch
			}
		})
		_, err = ms.Run(epochs)
		if want := fmt.Sprintf("epoch %d:", failed); !errors.Is(err, chain.ErrStoreWrite) || !strings.Contains(err.Error(), want) {
			t.Fatalf("run err = %v, want ErrStoreWrite naming %q", err, want)
		}
		for _, rc := range receipts {
			if rc.Epoch >= failed && (rc.Status == chain.StatusSynced || rc.Status == chain.StatusPruned) {
				t.Errorf("receipt %s of epoch %d reached %v after the failed append", rc.TxID, rc.Epoch, rc.Status)
			}
		}
		fp := ms.Fingerprint(receipts)
		ms.Close()
		return fp, halted
	}
	fp1, halted1 := run()
	fp2, halted2 := run()
	t.Logf("halted at epoch %d with %d receipts", halted1, len(fp1.Receipts))
	if halted1 < failed || halted1 != halted2 {
		t.Errorf("halted at epochs %d and %d, want the same one, at or after %d", halted1, halted2, failed)
	}
	if err := fp1.Diff(fp2); err != nil {
		t.Errorf("two runs halted differently: %v", err)
	}
}

// TestSnapshotSuffixSizedAtSeal: the receipt-suffix length the lifecycle
// hands the commit stage when it seals epoch e — what the snapshot
// record's one buffer is sized by — is the length the store lane appends
// when e retires.
func TestSnapshotSuffixSizedAtSeal(t *testing.T) {
	const seed, epochs = 17, 4
	cfg := recoveryCfg(seed, 4, 2, 2)
	node, err := OpenFS(&store.MemFS{}, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, seed, 12)
	atSeal := map[uint64]int{}
	checked := 0
	ms.OnEvent(func(ev chain.Event) {
		switch {
		case ev.Type == chain.EventMetaBlock && ev.Round == uint64(cfg.EpochRounds):
			atSeal[ev.Epoch] = ms.receiptSuffixLen(ev.Epoch)
		case ev.Type == chain.EventSummaryBlock:
			rows := len(ms.recsByEpoch[ev.Epoch])
			if got := len(ms.appendReceiptSuffix(nil, ev.Epoch, store.RunMeta{})); got != atSeal[ev.Epoch] || rows == 0 {
				t.Errorf("epoch %d: %d receipt rows encode to %d bytes, sized %d at seal", ev.Epoch, rows, got, atSeal[ev.Epoch])
			}
			checked++
		}
	})
	if _, err := ms.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if checked < epochs {
		t.Errorf("checked %d epochs, want %d", checked, epochs)
	}
}
