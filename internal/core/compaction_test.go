package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// readMemStore pulls the raw store file out of an in-memory filesystem.
func readMemStore(t *testing.T, fsys store.FS) []byte {
	t.Helper()
	data, err := fsys.ReadFile(store.FileName)
	if err != nil {
		t.Fatalf("read store file: %v", err)
	}
	return data
}

// writeMemStore plants raw store bytes into a fresh in-memory filesystem.
func writeMemStore(t *testing.T, fsys store.FS, data []byte) {
	t.Helper()
	f, err := fsys.OpenAppend(store.FileName, 0)
	if err != nil {
		t.Fatalf("open store file: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write store file: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync store file: %v", err)
	}
	f.Close()
}

// storeHeaderLen is the length of a fresh store file: its header frame
// alone, the offset where the first record after the header starts.
func storeHeaderLen(t *testing.T) int64 {
	t.Helper()
	fsys := &store.MemFS{}
	_, w, err := store.Open(fsys, "", [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return int64(len(readMemStore(t, fsys)))
}

// TestExplicitCompactAndResume pins the at-rest chain.Compact API: an
// uncompacted node compacts on demand, the log collapses to
// [header, checkpoint], and the resumed run still matches the storeless
// reference.
func TestExplicitCompactAndResume(t *testing.T) {
	const seed, epochs, half, perEpoch = 7, 4, 2, 12
	cfg := recoveryCfg(seed, 4, 2, 1)

	refSys, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, refSys, seed, perEpoch)
	if _, err := refSys.Run(epochs); err != nil {
		t.Fatal(err)
	}
	ref := refSys.Fingerprint(nil)

	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, node.(*MultiSystem), seed, perEpoch)
	if _, err := node.Run(half); err != nil {
		t.Fatal(err)
	}
	uncompacted := len(readMemStore(t, fsys))
	if err := chain.Compact(node); err != nil {
		t.Fatalf("explicit compact: %v", err)
	}
	if compacted := len(readMemStore(t, fsys)); compacted >= uncompacted {
		t.Errorf("compaction grew the log: %d -> %d bytes", uncompacted, compacted)
	}
	// Compacting again at the same cursor is a no-op, not an error.
	if err := chain.Compact(node); err != nil {
		t.Fatalf("idempotent compact: %v", err)
	}
	node.Close()

	rec, w, err := store.Open(fsys, "", DeploymentFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Cursor != half || len(rec.Epochs) != 0 {
		t.Fatalf("post-compact log shape: checkpoint %+v, %d tail epochs",
			rec.Checkpoint, len(rec.Epochs))
	}

	node2, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatalf("reopen after explicit compact: %v", err)
	}
	ms2 := node2.(*MultiSystem)
	attachRecoveryTraffic(t, ms2, seed, perEpoch)
	if _, err := node2.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Diff(ms2.Fingerprint(nil)); err != nil {
		t.Errorf("explicit compact: %v", err)
	}
	if err := node2.Validate(); err != nil {
		t.Errorf("resumed Validate: %v", err)
	}
	node2.Close()

	// The storeless backend has nothing to compact.
	plain, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Compact(plain); !errors.Is(err, chain.ErrStoreUnsupported) {
		t.Errorf("storeless compact err = %v, want ErrStoreUnsupported", err)
	}
	plain.Close()
}

// TestCompactWithRetention exercises a bounded root table: with
// RetainEpochs set, the checkpoint's entry table covers only
// (horizon, cursor] and the node still reopens and validates.
func TestCompactWithRetention(t *testing.T) {
	const seed, epochs, perEpoch = 19, 6, 10
	cfg := recoveryCfg(seed, 4, 2, 1)
	cfg.RetainEpochs = 2
	cfg.CompactEvery = 2

	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, node.(*MultiSystem), seed, perEpoch)
	if _, err := node.Run(epochs); err != nil {
		t.Fatal(err)
	}
	node.Close()

	rec, w, err := store.Open(fsys, "", DeploymentFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	cp := rec.Checkpoint
	if cp == nil || cp.Cursor != epochs {
		t.Fatalf("checkpoint = %+v, want cursor %d", cp, epochs)
	}
	if cp.Horizon != epochs-2 || len(cp.Entries) != 2 {
		t.Fatalf("retained entry window: horizon %d, %d entries; want horizon %d, 2 entries",
			cp.Horizon, len(cp.Entries), epochs-2)
	}

	node2, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatalf("reopen retained store: %v", err)
	}
	ms2 := node2.(*MultiSystem)
	if got := ms2.Recovery(); got == nil || got.Epoch != epochs {
		t.Fatalf("recovered %+v, want boundary %d", got, epochs)
	}
	for e := uint64(epochs - 1); e <= epochs; e++ {
		if ms2.Recovery().Fingerprint.Epochs[e].Root == ([32]byte{}) {
			t.Errorf("retained epoch %d lost its summary root", e)
		}
	}
	if err := node2.Validate(); err != nil {
		t.Errorf("retained Validate: %v", err)
	}
	node2.Close()
}

// TestTamperedCheckpointFailsOpen pins the trust boundary: a checkpoint
// that fails its CRC, and a checkpoint that is internally consistent but
// was NOT produced by this deployment's history (a spliced-in bank state
// from a different seed), must both fail Open with ErrCorruptStore —
// never come up silently wrong.
func TestTamperedCheckpointFailsOpen(t *testing.T) {
	const epochs, perEpoch = 2, 10

	t.Run("crc flip inside the checkpoint frame", func(t *testing.T) {
		cfg := recoveryCfg(3, 4, 2, 1)
		cfg.CompactEvery = 1
		fsys := &store.MemFS{}
		node, err := OpenFS(fsys, "", cfg)
		if err != nil {
			t.Fatal(err)
		}
		attachRecoveryTraffic(t, node.(*MultiSystem), 3, perEpoch)
		if _, err := node.Run(epochs); err != nil {
			t.Fatal(err)
		}
		node.Close()

		data := readMemStore(t, fsys)
		rec, w, err := store.Open(fsys, "", DeploymentFingerprint(cfg))
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if rec.Checkpoint == nil {
			t.Fatal("run did not compact")
		}
		// Flip one byte just past the checkpoint frame's length+type
		// prefix — inside the CRC-protected payload.
		tampered := append([]byte(nil), data...)
		tampered[storeHeaderLen(t)+16] ^= 0x40
		tfs := &store.MemFS{}
		writeMemStore(t, tfs, tampered)
		if _, err := OpenFS(tfs, "", cfg); !errors.Is(err, chain.ErrCorruptStore) {
			t.Errorf("open tampered store err = %v, want ErrCorruptStore", err)
		}
	})

	t.Run("crc-valid checkpoint from a foreign history", func(t *testing.T) {
		cfgA := recoveryCfg(3, 4, 2, 1)
		fsA := &store.MemFS{}
		nodeA, err := OpenFS(fsA, "", cfgA)
		if err != nil {
			t.Fatal(err)
		}
		attachRecoveryTraffic(t, nodeA.(*MultiSystem), 3, perEpoch)
		if _, err := nodeA.Run(epochs); err != nil {
			t.Fatal(err)
		}
		nodeA.Close()

		cfgB := recoveryCfg(4, 4, 2, 1)
		cfgB.CompactEvery = 1
		fsB := &store.MemFS{}
		nodeB, err := OpenFS(fsB, "", cfgB)
		if err != nil {
			t.Fatal(err)
		}
		attachRecoveryTraffic(t, nodeB.(*MultiSystem), 4, perEpoch)
		if _, err := nodeB.Run(epochs); err != nil {
			t.Fatal(err)
		}
		nodeB.Close()
		recB, wB, err := store.Open(fsB, "", DeploymentFingerprint(cfgB))
		if err != nil {
			t.Fatal(err)
		}
		wB.Close()
		if recB.Checkpoint == nil {
			t.Fatal("donor run did not compact")
		}

		// Rewrite A's log with a checkpoint whose bank replay state came
		// from B's seed. Every frame CRCs clean; only the seed-derived
		// committee anchor can catch the splice.
		recA, wA, err := store.Open(fsA, "", DeploymentFingerprint(cfgA))
		if err != nil {
			t.Fatal(err)
		}
		if len(recA.Boundaries) != epochs {
			t.Fatalf("%d boundaries, want %d", len(recA.Boundaries), epochs)
		}
		if err := wA.Compact(epochs, 0, recB.Checkpoint.Bank); err != nil {
			t.Fatalf("splice compact: %v", err)
		}
		wA.Close()
		if _, err := OpenFS(fsA, "", cfgA); !errors.Is(err, chain.ErrCorruptStore) {
			t.Errorf("open spliced store err = %v, want ErrCorruptStore", err)
		}
	})
}

// TestHaltedRecoversHaltedAcrossCompaction pins that compaction does not
// launder a halt: a node that compacted at every confirmed epoch and
// then halted on a lifecycle fault reopens halted, with the checkpoint
// and the halt record coexisting in the compacted log.
func TestHaltedRecoversHaltedAcrossCompaction(t *testing.T) {
	cfg := recoveryCfg(13, 4, 2, 1)
	cfg.CompactEvery = 1
	cfg.Faults.CorruptSyncEpochs = map[uint64]bool{3: true}

	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, node.(*MultiSystem), 13, 8)
	if _, err := node.Run(4); !errors.Is(err, chain.ErrSyncReverted) {
		t.Fatalf("faulted run err = %v, want ErrSyncReverted", err)
	}
	node.Close()

	rec, w, err := store.Open(fsys, "", DeploymentFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Cursor == 0 {
		t.Fatalf("halted log lost its checkpoint: %+v", rec.Checkpoint)
	}
	if rec.Halt == nil {
		t.Fatal("halt record did not survive compaction")
	}

	node2, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatalf("reopen halted compacted store: %v", err)
	}
	ms2 := node2.(*MultiSystem)
	got := ms2.Recovery()
	if got == nil || !got.Halted || got.HaltReason == "" {
		t.Fatalf("recovery = %+v, want halted with reason", got)
	}
	node2.Close()
}

// TestBootstrapEdgeCases covers the Bootstrap contract: a real
// directory bootstrap through the registered backend, and the
// fresh-directory-only refusal.
func TestBootstrapEdgeCases(t *testing.T) {
	const seed, epochs, half, perEpoch = 5, 4, 2, 10
	cfg := recoveryCfg(seed, 4, 2, 1)
	cfg.CompactEvery = 1

	refSys, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, refSys, seed, perEpoch)
	if _, err := refSys.Run(epochs); err != nil {
		t.Fatal(err)
	}
	ref := refSys.Fingerprint(nil)

	// Peer: half the history, compacted, snapshot exported at rest.
	fsys := &store.MemFS{}
	peer, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pms := peer.(*MultiSystem)
	attachRecoveryTraffic(t, pms, seed, perEpoch)
	if _, err := peer.Run(half); err != nil {
		t.Fatal(err)
	}
	snap, err := pms.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	peer.Close()

	t.Run("bootstrap into a real directory", func(t *testing.T) {
		dir := t.TempDir() + "/fresh-node"
		boot, err := Bootstrap(dir, snap, cfg)
		if err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		bms := boot.(*MultiSystem)
		if got := bms.Recovery(); got == nil || got.Epoch != half {
			t.Fatalf("bootstrapped at %+v, want boundary %d", got, half)
		}
		attachRecoveryTraffic(t, bms, seed, perEpoch)
		if _, err := boot.Run(epochs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Diff(bms.Fingerprint(nil)); err != nil {
			t.Errorf("dir bootstrap: %v", err)
		}
		boot.Close()

		// A second bootstrap into the now-populated directory must refuse
		// rather than clobber the node's history.
		if _, err := Bootstrap(dir, snap, cfg); err == nil {
			t.Error("bootstrap over an existing store succeeded, want refusal")
		}
	})

	t.Run("snapshot fingerprint must match the config", func(t *testing.T) {
		other := cfg
		other.Seed = 999
		if _, err := BootstrapFS(&store.MemFS{}, "", snap, other); !errors.Is(err, chain.ErrStoreMismatch) {
			t.Errorf("mismatched bootstrap err = %v, want ErrStoreMismatch", err)
		}
	})

	t.Run("garbage snapshot", func(t *testing.T) {
		if _, err := BootstrapFS(&store.MemFS{}, "", []byte("not a store"), cfg); !errors.Is(err, chain.ErrCorruptStore) {
			t.Errorf("garbage snapshot err = %v, want ErrCorruptStore", err)
		}
	})
}

// TestCompactCrashSweep drives the full restart lifecycle — epoch
// appends, per-epoch compaction rewrites, temp-file writes, renames —
// under the FaultFS byte-budget crash harness: wherever in the combined
// write stream the process dies (including at the rename itself), the
// survivor on disk must reopen at SOME boundary and the resumed run must
// re-derive the reference fingerprint. Old-or-new, never hybrid.
func TestCompactCrashSweep(t *testing.T) {
	const seed, epochs, pools, perEpoch = 23, 3, 4, 12
	cfg := recoveryCfg(seed, pools, 2, 2)
	cfg.CompactEvery = 1

	refSys, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, refSys, seed, perEpoch)
	refRep, err := refSys.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}
	ref := refSys.Fingerprint(nil)

	// Instrumented clean run: the total accepted byte count bounds the
	// crash budgets (the stream spans the log, every temp file, and the
	// post-swap appends).
	probe := store.NewFaultFS(&store.MemFS{})
	node, err := OpenFS(probe, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachRecoveryTraffic(t, node.(*MultiSystem), seed, perEpoch)
	if _, err := node.Run(epochs); err != nil {
		t.Fatal(err)
	}
	node.Close()
	total := probe.Written()
	if total == 0 {
		t.Fatal("instrumented run wrote nothing")
	}
	headerLen := storeHeaderLen(t)

	// ~24 budgets spread across the stream, clamped past the header (a
	// torn header is unrecoverable by design), plus the exact-rename cell.
	var budgets []int64
	const steps = 24
	for i := 1; i <= steps; i++ {
		b := total * int64(i) / steps
		if b <= headerLen {
			continue
		}
		budgets = append(budgets, b)
	}
	runCell := func(t *testing.T, label string, arm func(*store.FaultFS)) {
		inner := &store.MemFS{}
		ffs := store.NewFaultFS(inner)
		arm(ffs)
		crashed, err := OpenFS(ffs, "", cfg)
		if err != nil {
			t.Fatalf("%s open: %v", label, err)
		}
		attachRecoveryTraffic(t, crashed.(*MultiSystem), seed, perEpoch)
		// The dying process may or may not observe its own failure (a
		// post-crash compaction can notice the survivor's shape); either
		// way the disk must stay recoverable.
		_, runErr := crashed.Run(epochs)
		crashed.Close()
		if runErr != nil && !ffs.Crashed() {
			t.Fatalf("%s: run failed without a crash: %v", label, runErr)
		}

		reopened, err := OpenFS(inner, "", cfg)
		if err != nil {
			t.Fatalf("%s reopen: %v", label, err)
		}
		rms := reopened.(*MultiSystem)
		attachRecoveryTraffic(t, rms, seed, perEpoch)
		rep, err := reopened.Run(epochs)
		if err != nil {
			t.Fatalf("%s resumed run: %v", label, err)
		}
		if rep.SyncsOK != refRep.SyncsOK {
			t.Errorf("%s: resumed SyncsOK = %d, reference %d", label, rep.SyncsOK, refRep.SyncsOK)
		}
		if err := ref.Diff(rms.Fingerprint(nil)); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		if err := reopened.Validate(); err != nil {
			t.Errorf("%s resumed Validate: %v", label, err)
		}
		reopened.Close()
	}
	for _, budget := range budgets {
		b := budget
		runCell(t, fmt.Sprintf("crash@%d/%d", b, total), func(f *store.FaultFS) { f.CrashAfter = b })
	}
	runCell(t, "crash-on-rename", func(f *store.FaultFS) { f.CrashOnRename = true })
}

// TestRestartCostFlatInHistory pins what makes restart cost flat in
// history length (invariant 14): with a 64-epoch compaction cadence the
// store image a node reopens from is the checkpoint plus a bounded tail,
// so its size does not grow with the epochs behind it. The three
// histories are all 2 mod 64, so each leaves the same 2-epoch tail past
// its last compaction and only the checkpoint could differ; lengths
// with different tails differ by their tails, not by history. Without
// compaction the image is the whole history, every epoch replayed at
// open, and the longest one still resumes where it stopped.
func TestRestartCostFlatInHistory(t *testing.T) {
	const compactEvery = 64
	hists := []int{130, 1026, 2050}
	sizes := make([]int, len(hists))
	for i, hist := range hists {
		sizes[i] = len(reopenHistory(t, hist, compactEvery))
	}
	t.Logf("compacted image sizes %v B for histories %v", sizes, hists)
	lo, hi := slices.Min(sizes), slices.Max(sizes)
	if float64(hi-lo) > 0.01*float64(lo) {
		t.Errorf("image sizes spread %d B, more than 1%% of %d B", hi-lo, lo)
	}
	reopenHistory(t, slices.Max(hists), 0)
}

// reopenHistory runs a hist-epoch history on a deliberately tiny
// deployment, so the per-epoch record count is all that grows: 2 pools,
// 1 shard, 1 round, a 4-member committee, one swap an epoch and an
// 8-epoch retention window (a long-running node always bounds its
// tables). It reopens a node on the image the run left, checks that the
// node resumes at epoch hist and returns the image.
func reopenHistory(t *testing.T, hist, compactEvery int) []byte {
	t.Helper()
	cfg := chain.Config{
		Seed:          42,
		NumPools:      2,
		NumShards:     1,
		EpochRounds:   1,
		RoundDuration: time.Second,
		CommitteeSize: 4,
		PipelineDepth: 1,
		RetainEpochs:  8,
		CompactEvery:  compactEvery,
		Users:         []string{"ob-0", "ob-1"},
	}
	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := node.(*MultiSystem)
	pools := sys.PoolIDs()
	sys.OnEpochStart = func(epoch uint64) {
		sys.Submit(context.Background(), &summary.Tx{
			ID: fmt.Sprintf("ob-e%d", epoch), Kind: gasmodel.KindSwap,
			User: "ob-0", PoolID: pools[int(epoch)%len(pools)],
			ZeroForOne: epoch%2 == 0, ExactIn: true,
			Amount: u256.FromUint64(1000),
		})
	}
	if _, err := node.Run(hist); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	data := readMemStore(t, fsys)
	reopened := &store.MemFS{}
	writeMemStore(t, reopened, data)
	node, err = OpenFS(reopened, "", cfg)
	if err != nil {
		t.Fatalf("hist=%d, compact every %d: open: %v", hist, compactEvery, err)
	}
	defer node.Close()
	if got := node.(*MultiSystem).Epoch(); got != uint64(hist) {
		t.Errorf("hist=%d, compact every %d: reopened at epoch %d", hist, compactEvery, got)
	}
	return data
}
