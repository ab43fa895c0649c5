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
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// compactGateFS is an in-memory store filesystem whose compaction temp
// file holds or fails its fsync: Sync on it returns failSync when set,
// else waits for a token on release (at most 5 s, after which timedOut
// is set and later Syncs no longer wait).
type compactGateFS struct {
	store.MemFS
	release  chan struct{}
	failSync error
	timedOut atomic.Bool
}

func (g *compactGateFS) OpenAppend(name string, size int64) (store.File, error) {
	f, err := g.MemFS.OpenAppend(name, size)
	if err != nil || !strings.HasSuffix(name, ".compact") {
		return f, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	store.File
	fs *compactGateFS
}

func (f *gatedFile) Sync() error {
	if f.fs.failSync != nil {
		return f.fs.failSync
	}
	if f.fs.release != nil && !f.fs.timedOut.Load() {
		select {
		case <-f.fs.release:
		case <-time.After(5 * time.Second):
			f.fs.timedOut.Store(true)
		}
	}
	return f.File.Sync()
}

// TestCompactionDoesNotBlockPrune pins compaction off the confirmation
// path: every compaction's temp-file fsync waits until its epoch's
// EventPruned has published, which a compaction run inside the prune
// could never see. The run still ends compacted at its last epoch.
func TestCompactionDoesNotBlockPrune(t *testing.T) {
	const seed, epochs, every = 31, 6, 2
	cfg := recoveryCfg(seed, 4, 2, 2)
	cfg.CompactEvery = every
	// One token per compaction at most, so the event hook never blocks.
	fsys := &compactGateFS{release: make(chan struct{}, epochs)}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := node.(*MultiSystem)
	attachRecoveryTraffic(t, ms, seed, 8)
	ms.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventPruned && ev.Epoch%every == 0 {
			fsys.release <- struct{}{}
		}
	})
	if _, err := ms.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if fsys.timedOut.Load() {
		t.Error("a compaction's fsync waited 5 s for its epoch's prune: the prune waited for the compaction")
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	rec, w, err := store.Open(&fsys.MemFS, "", DeploymentFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Cursor != epochs || len(rec.Epochs) != 0 {
		t.Errorf("store after the run: checkpoint %+v, %d tail epochs; want compacted at %d",
			rec.Checkpoint, len(rec.Epochs), epochs)
	}
}

// TestFailedBackgroundCompactionHalts: a compaction whose temp file
// fails its fsync halts the node with ErrStoreWrite naming the
// compaction's epoch, where the node next meets the store lane — the
// block a later epoch's part waits at, or a join — the same epoch and
// receipt stages on every run — and leaves the uncompacted log with the
// halt record behind it, which reopens halted.
func TestFailedBackgroundCompactionHalts(t *testing.T) {
	const seed, epochs, cursor, perEpoch = 37, 6, 2, 10
	cfg := recoveryCfg(seed, 4, 2, 2)
	cfg.CompactEvery = cursor
	run := func() (chain.Fingerprint, uint64, *compactGateFS) {
		fsys := &compactGateFS{failSync: errors.New("no space left on device")}
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
					ID: fmt.Sprintf("cf-e%d-%d", e, i), Kind: gasmodel.KindSwap,
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
		var halted uint64
		ms.OnEvent(func(ev chain.Event) {
			if ev.Type == chain.EventHalted {
				halted = ev.Epoch
			}
		})
		_, err = ms.Run(epochs)
		if want := fmt.Sprintf("compact at epoch %d:", cursor); !errors.Is(err, chain.ErrStoreWrite) || !strings.Contains(err.Error(), want) {
			t.Fatalf("run err = %v, want ErrStoreWrite naming %q", err, want)
		}
		fp := ms.Fingerprint(receipts)
		if err := ms.Close(); err != nil {
			t.Fatal(err)
		}
		return fp, halted, fsys
	}
	fp1, halted1, fsys := run()
	fp2, halted2, _ := run()
	t.Logf("halted at epoch %d with %d receipts", halted1, len(fp1.Receipts))
	if halted1 < cursor || halted1 != halted2 {
		t.Errorf("halted at epochs %d and %d, want the same one, at or after %d", halted1, halted2, cursor)
	}
	if err := fp1.Diff(fp2); err != nil {
		t.Errorf("two runs halted differently: %v", err)
	}

	rec, w, err := store.Open(&fsys.MemFS, "", DeploymentFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if rec.Checkpoint != nil || len(rec.Epochs) < cursor || rec.Epochs[0].Epoch != 1 {
		t.Errorf("store after the failed compaction: checkpoint %+v, %d tail epochs; want the uncompacted log",
			rec.Checkpoint, len(rec.Epochs))
	}
	if rec.Halt == nil || rec.Halt.Epoch != halted1 {
		t.Errorf("halt record %+v, want one at epoch %d", rec.Halt, halted1)
	}
	node, err := OpenFS(&fsys.MemFS, "", cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := node.(*MultiSystem).Recovery(); got == nil || !got.Halted || got.Epoch < cursor {
		t.Errorf("reopened at %+v, want halted at or after epoch %d", got, cursor)
	}
	node.Close()
}
