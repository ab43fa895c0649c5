package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/chain"
	"ammboost/internal/engine"
	"ammboost/internal/store"
)

// Open opens (or creates) a durable multi-pool deployment rooted at dir.
// A fresh directory starts a new node that persists every retired epoch;
// an existing store restores the newest valid snapshot boundary, replays
// the sync-part log through the bank's full verification chain, and
// returns a node whose Run resumes at the next epoch with summary roots
// and payload digests bit-identical to an uninterrupted run. cfg.Users
// must carry the deployment's user set (the store fingerprint pins it).
func Open(dir string, cfg chain.Config) (chain.Chain, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return OpenFS(store.OSFS{}, dir, cfg)
}

// OpenFS is Open over an explicit store filesystem — the crash-injection
// harness (store.FaultFS) and in-memory benchmarks plug in here.
func OpenFS(fsys store.FS, dir string, cfg chain.Config) (chain.Chain, error) {
	return openFS(nil, fsys, dir, cfg)
}

// OpenFederatedFS opens a durable federation member: like OpenFS, but
// the node runs against the federation's shared simulator and mainchain.
// Each member needs its own store directory; the fingerprint pins
// cfg.ChainID, so a store written by chain "a" cannot resume as "b".
func OpenFederatedFS(shared *Shared, fsys store.FS, dir string, cfg chain.Config) (*MultiSystem, error) {
	if shared == nil || shared.Sim == nil || shared.MC == nil {
		return nil, fmt.Errorf("%w: federated open needs a shared simulator and mainchain", chain.ErrStoreUnsupported)
	}
	if cfg.ChainID == "" {
		return nil, fmt.Errorf("%w: federated open needs a ChainID", chain.ErrStoreUnsupported)
	}
	c, err := openFS(shared, fsys, dir, cfg)
	if err != nil {
		return nil, err
	}
	return c.(*MultiSystem), nil
}

func openFS(shared *Shared, fsys store.FS, dir string, cfg chain.Config) (chain.Chain, error) {
	cfg = cfg.WithDefaults()
	if len(cfg.Faults.SkipSyncEpochs) > 0 {
		// A held Sync lives in memory until the next epoch's goes out; the
		// store does not record it, so a reopened node could not send it.
		return nil, fmt.Errorf("%w: SkipSyncEpochs (mass-sync recovery) on a node with a store",
			ErrUnsupportedFault)
	}
	if cfg.StoreFsyncEvery > 1 {
		// Included implies durable: a block waits for its epoch's append,
		// and that append returns only after the fsync.
		return nil, fmt.Errorf("%w: StoreFsyncEvery %d (fsync batching)",
			chain.ErrStoreUnsupported, cfg.StoreFsyncEvery)
	}
	if _, err := sortedUsers(cfg.Users); err != nil {
		return nil, err // refused before the store is created
	}
	rec, w, err := store.Open(fsys, dir, DeploymentFingerprint(cfg))
	if err != nil {
		return nil, err
	}
	s, err := newMultiSystem(shared, cfg, cfg.Users, newPoolBank)
	if err != nil {
		w.Close()
		return nil, err
	}
	w.SetTracer(cfg.Tracer)
	s.st = w
	if err := s.restore(rec); err != nil {
		w.Close()
		s.st = nil
		return nil, err
	}
	return s, nil
}

// DeploymentFingerprint hashes the determinism-relevant deployment
// parameters into the store header. Opening a store whose fingerprint
// differs fails with chain.ErrStoreMismatch: resuming under a different
// seed, pool count, user set, or epoch geometry would re-derive different
// state and silently diverge. NumPools 0 is the one pool it runs. Shard count and pipeline depth are
// deliberately absent — state is bit-identical across both by
// construction, so a store written with 4 shards may resume under 16.
func DeploymentFingerprint(cfg chain.Config) [32]byte {
	cfg = cfg.WithDefaults()
	h := sha256.New()
	// ChainID joins the fingerprint because a federation member's durable
	// state embeds chain-scoped sync transaction IDs: resuming a store
	// under a different chain identity would replay against the wrong
	// mainchain account.
	fmt.Fprintf(h, "chain=%q|seed=%d|pools=%d|rounds=%d|roundDur=%d|metaBytes=%d|committee=%d|miners=%d|viewTimeout=%d|fee=%d|",
		cfg.ChainID, cfg.Seed, max(cfg.NumPools, 1), cfg.EpochRounds, cfg.RoundDuration, cfg.MetaBlockBytes,
		cfg.CommitteeSize, cfg.MinerPopulation, viewChangeTimeout, amm.GenesisFeePips)
	fmt.Fprintf(h, "initLiq=%s|dep=%s|gasBudget=%d|model=%#v|mc=%#v|users=",
		cfg.InitialLiquidity, depositPerUserPerPool, syncPartGas(cfg.Mainchain), agreementModel, cfg.Mainchain)
	for _, u := range cfg.Users {
		fmt.Fprintf(h, "%q,", u)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// restore rebuilds the node's runtime state from a scanned store. The
// recovered boundary S is re-derived, not trusted: the boundary
// committee re-provisions from the seed ((chainSeed, epoch) fixes every
// committee's key material, so no earlier election needs replaying),
// pool commitment roots are recomputed from the restored snapshots and
// compared against the persisted roots, and every sync part replays
// through the bank's TSQC verification chain — the "re-derive from
// independently persisted records" determinism check the store exists
// to provide (DESIGN.md invariant 9).
//
// A checkpoint is anchored first (restoreCheckpoint); the tail records
// after its cursor then overlay it exactly like an uncompacted restore —
// newest pool snapshots re-verified against the last record, sync parts
// replayed through the TSQC chain. Both kinds of record carry the same
// per-epoch row, so the root table, the recovered fingerprint and the
// receipt table rebuild in one walk over the checkpoint rows and then
// the tail rows.
func (s *MultiSystem) restore(rec *store.Recovery) error {
	cp := rec.Checkpoint
	if cp == nil && len(rec.Epochs) == 0 && rec.Halt == nil {
		return nil // fresh store
	}
	boundary := rec.Epoch()
	info := &chain.RecoveryInfo{
		Epoch:       boundary,
		Fingerprint: chain.Fingerprint{Epochs: make(map[uint64]chain.EpochPrint, len(rec.Epochs))},
	}

	// Re-derive the boundary committee: resume starts at S+1, and every
	// committee's key material is a pure function of (chainSeed, epoch)
	// (see committeeRNG), so epoch S+1's is the only one the resumed run
	// still needs — restore stays O(1) in history length. Committees for
	// e <= S served their epochs before the crash; their group keys live
	// on in the bank's verification chain, not in s.committees.
	if boundary > 0 {
		ck, err := provisionCommittee(s.registry, s.chainSeed, boundary+1, s.cfg.CommitteeSize)
		if err != nil {
			return fmt.Errorf("%w: replay epoch %d: %v", chain.ErrElectionFailed, boundary+1, err)
		}
		s.committees[boundary+1] = ck
	}

	// The retention horizon bounds what re-materializes: an uninterrupted
	// run with RetainEpochs set would have compacted roots and receipts
	// behind it, so recovery does the same (pool state still restores
	// from every record — the newest snapshot of a cold pool can be
	// arbitrarily old). A checkpoint's own horizon joins in: what its
	// compaction dropped cannot come back.
	var horizon uint64
	if r := s.cfg.RetainEpochs; r > 0 && boundary > uint64(r) {
		horizon = boundary - uint64(r)
	}
	if cp != nil && cp.Horizon > horizon {
		horizon = cp.Horizon
	}
	s.rootsCompacted = horizon

	// The newest run counters and the boundary epoch's sync-part count
	// come from the last tail record, or else from the checkpoint's
	// snapshot of its cursor epoch.
	var meta store.RunMeta
	var numParts int
	var reverted error
	var rows []store.EpochRow
	if cp != nil {
		if err := s.restoreCheckpoint(cp); err != nil {
			return err
		}
		meta, numParts = cp.Meta, cp.CursorParts
		rows = append(rows, cp.Entries...)
	}

	if n := len(rec.Epochs); n > 0 {
		// Newest persisted state per tail pool snapshot, overlaid on the
		// checkpoint's pools; pools absent from every snapshot were never
		// touched and stay at genesis.
		pools := make(map[string]*amm.Pool)
		for _, er := range rec.Epochs {
			maps.Copy(pools, er.Pools)
			rows = append(rows, er.EpochRow)
		}
		if err := s.eng.RestorePools(pools); err != nil {
			return fmt.Errorf("%w: %v", chain.ErrCorruptStore, err)
		}
		last := rec.Epochs[n-1]
		if err := s.checkRoots(last.PoolIDs, last.PoolRoots, last.SummaryRoot,
			fmt.Sprintf("epoch %d", boundary)); err != nil {
			return err
		}
		meta, numParts = last.Meta, len(last.Parts)
		// The sync-part log replays through the bank's verification chain.
		// A corrupt-signed epoch the chain had yet to revert halts the
		// node as the revert would have.
		if err := replaySyncParts(s.Bank(), rec.Epochs, rec.Halt != nil); errors.Is(err, chain.ErrSyncReverted) {
			reverted = err
		} else if err != nil {
			return err
		}
	}

	s.Rejected = int(meta.Rejected)
	// The persisted counter snapshot predates the boundary epoch's own
	// confirmation (counters persist at retire, the sync lands later);
	// the bank has just confirmed every recovered epoch, so credit them —
	// a resumed run's report then matches the uninterrupted run's SyncsOK
	// instead of undercounting.
	s.SyncsOK = max(int(meta.SyncsOK), int(s.LastSyncedEpoch()))
	s.ViewChanges = int(meta.ViewChanges)
	s.queuePeak = int(meta.QueuePeak)
	s.eng.Accepted = int(meta.EngineAccepted)
	s.eng.Rejected = int(meta.EngineRejected)

	for _, row := range rows {
		if row.Epoch <= horizon {
			continue
		}
		s.SummaryRoots[row.Epoch] = row.SummaryRoot
		info.Fingerprint.Epochs[row.Epoch] = chain.EpochPrint{
			Root: row.SummaryRoot, Payloads: append([][32]byte(nil), row.PayloadDigests...)}
		for _, r := range row.Receipts {
			rc := &chain.Receipt{
				TxID:           r.TxID,
				PoolID:         r.PoolID,
				Status:         chain.Status(r.Status),
				Epoch:          r.Epoch,
				Round:          r.Round,
				SubmittedAt:    time.Duration(r.SubmittedAt),
				ExecutedAt:     time.Duration(r.ExecutedAt),
				CheckpointedAt: time.Duration(r.CheckpointedAt),
			}
			// An epoch the bank confirmed — every checkpointed one, since
			// RestoreState pinned the bank at the cursor and replay only
			// advances it — has final receipts (synced + pruned); the
			// confirmation's virtual timestamps died with the crash and
			// stay zero.
			if rc.Status == chain.StatusCheckpointed && rc.Epoch <= s.LastSyncedEpoch() {
				rc.Status = chain.StatusPruned
			}
			info.Receipts = append(info.Receipts, rc)
		}
	}

	// A federation member's next sync parts depend on the boundary epoch's
	// parts on the shared chain; a single-tenant reopen's fresh simulated
	// mainchain never saw them.
	if s.shared != nil {
		s.uplink.resume(boundary, numParts)
	}
	s.epoch = boundary

	switch {
	case rec.Halt != nil:
		info.Halted = true
		info.HaltReason = rec.Halt.Reason
		s.err = fmt.Errorf("%w: recovered from persisted fault at epoch %d: %s",
			chain.ErrHalted, rec.Halt.Epoch, rec.Halt.Reason)
	case reverted != nil:
		// Persisted like a live halt, so a later reopen recovers halted.
		info.Halted = true
		info.HaltReason = reverted.Error()
		s.err = reverted
		if err := s.st.AppendHalt(boundary, reverted.Error()); err != nil {
			return fmt.Errorf("%w: %v", chain.ErrStoreWrite, err)
		}
	}
	if info.Halted {
		s.halt()
		if s.shared == nil {
			// A federation member defers the finished notification to
			// StartEpochs — the runner's hook is not installed yet.
			s.mc.Stop()
		}
	}
	s.recovered = info
	return nil
}

// restoreCheckpoint anchors a compacted prefix and restores its pools.
// Nothing in the checkpoint is trusted on its own: the embedded bank
// replay state must sit exactly at the cursor it claims, the bank's
// next-epoch verification key must equal the committee re-derived from
// the chain seed (a forged bank state cannot know that key without the
// seed), and the pool roots recomputed from the embedded snapshots must
// reproduce the persisted cursor root table bit for bit. Any mismatch
// is ErrCorruptStore.
func (s *MultiSystem) restoreCheckpoint(cp *store.Checkpoint) error {
	n := len(cp.Entries)
	if n == 0 || cp.Entries[n-1].Epoch != cp.Cursor {
		return fmt.Errorf("%w: checkpoint root table does not end at cursor %d",
			chain.ErrCorruptStore, cp.Cursor)
	}
	if err := s.Bank().RestoreState(cp.Bank); err != nil {
		return fmt.Errorf("%w: checkpoint bank state: %v", chain.ErrCorruptStore, err)
	}
	if s.LastSyncedEpoch() != cp.Cursor {
		return fmt.Errorf("%w: checkpoint bank synced to epoch %d but cursor claims %d",
			chain.ErrCorruptStore, s.LastSyncedEpoch(), cp.Cursor)
	}

	ck, ok := s.committees[cp.Cursor+1]
	if !ok {
		var err error
		ck, err = provisionCommittee(s.registry, s.chainSeed, cp.Cursor+1, s.cfg.CommitteeSize)
		if err != nil {
			return fmt.Errorf("%w: replay epoch %d: %v", chain.ErrElectionFailed, cp.Cursor+1, err)
		}
	}
	key, ok := s.Bank().NextGroupKey()
	if !ok || !bytes.Equal(key.PK.Bytes(), ck.group.PK.Bytes()) ||
		key.Threshold != ck.group.Threshold || key.N != ck.group.N {
		return fmt.Errorf("%w: checkpoint bank key for epoch %d does not match the seed-derived committee",
			chain.ErrCorruptStore, cp.Cursor+1)
	}

	if err := s.eng.RestorePools(cp.Pools); err != nil {
		return fmt.Errorf("%w: %v", chain.ErrCorruptStore, err)
	}
	return s.checkRoots(cp.PoolIDs, cp.PoolRoots, cp.Entries[n-1].SummaryRoot,
		fmt.Sprintf("checkpoint cursor %d", cp.Cursor))
}

// checkRoots is the determinism check on restored pool state: the roots
// re-derived from it must reproduce a persisted root table (ids / roots,
// in canonical pool order) bit for bit and fold to its summary root.
// at names the table in the error.
func (s *MultiSystem) checkRoots(ids []string, roots [][32]byte, summaryRoot [32]byte, at string) error {
	got, want := s.eng.StateRoots(), s.eng.PoolIDs()
	if len(ids) != len(want) || len(roots) != len(want) {
		return fmt.Errorf("%w: root table at %s has %d pools, deployment has %d",
			chain.ErrCorruptStore, at, len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id || roots[i] != got[i] {
			return fmt.Errorf("%w: pool %s root re-derivation mismatch at %s",
				chain.ErrCorruptStore, id, at)
		}
	}
	if engine.FoldRoots(got) != summaryRoot {
		return fmt.Errorf("%w: summary root re-derivation mismatch at %s", chain.ErrCorruptStore, at)
	}
	return nil
}

// Bootstrap provisions a fresh node at dir from a peer's exported store
// snapshot (chain.Compactor's ExportSnapshot) instead of replaying
// history from genesis. The snapshot is written to the store path
// crash-atomically and then opened through the normal recovery path, so
// every claim it makes is re-derived: the checkpoint anchors against the
// seed-derived committee, pool roots recompute, and tail sync parts
// replay through the TSQC chain. A tampered snapshot fails with
// ErrCorruptStore. dir must not already hold a store.
func Bootstrap(dir string, snapshot []byte, cfg chain.Config) (chain.Chain, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return BootstrapFS(store.OSFS{}, dir, snapshot, cfg)
}

// BootstrapFS is Bootstrap over an explicit store filesystem.
func BootstrapFS(fsys store.FS, dir string, snapshot []byte, cfg chain.Config) (chain.Chain, error) {
	if err := seedStore(fsys, dir, snapshot); err != nil {
		return nil, err
	}
	return OpenFS(fsys, dir, cfg)
}

// seedStore materializes a peer snapshot as dir's store file,
// write-then-rename so a crash mid-bootstrap leaves no half-written
// store. Refuses to overwrite an existing store: bootstrap provisions
// fresh nodes, it does not repair live ones.
func seedStore(fsys store.FS, dir string, snapshot []byte) error {
	if err := store.CheckSnapshot(snapshot); err != nil {
		return fmt.Errorf("%w: %v", chain.ErrCorruptStore, err)
	}
	path := filepath.Join(dir, store.FileName)
	if _, err := fsys.ReadFile(path); err == nil {
		return fmt.Errorf("%w: %s already holds a store; bootstrap provisions fresh directories only",
			chain.ErrStoreLocked, dir)
	}
	tmp := path + ".bootstrap"
	f, err := fsys.OpenAppend(tmp, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(snapshot); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}
