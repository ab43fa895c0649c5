package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

var testFP = [32]byte{1, 2, 3, 4}

// testPool builds a small pool with a position so snapshots carry tick
// and position chunks.
func testPool(t *testing.T) *amm.Pool {
	t.Helper()
	p, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mint("pos-1", "lp", -600, 600, u256.FromUint64(1_000_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(true, true, u256.FromUint64(5000), u256.Zero); err != nil {
		t.Fatal(err)
	}
	return p
}

// writeEpochs appends n synthetic epochs to a fresh store and returns
// the FS.
func writeEpochs(t *testing.T, n int) *MemFS {
	t.Helper()
	fsys := &MemFS{}
	rec, w, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Epochs) != 0 {
		t.Fatalf("fresh store recovered %d epochs", len(rec.Epochs))
	}
	pool := testPool(t)
	for e := uint64(1); e <= uint64(n); e++ {
		snap, parts := synthEpoch(t, e, pool)
		if err := w.AppendEpoch(e, snap, parts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fsys
}

func synthEpoch(t *testing.T, e uint64, pool *amm.Pool) (snap, parts []byte) {
	t.Helper()
	root := [32]byte{byte(e), 0xaa}
	digest := [32]byte{byte(e), 0xbb}
	recs := []ReceiptRecord{
		{TxID: fmt.Sprintf("tx-%d", e), PoolID: "pool-0000", Status: 2, Epoch: e, Round: 1,
			SubmittedAt: 7, ExecutedAt: 9, CheckpointedAt: 11},
	}
	prefix := EncodeSnapshotPrefix(e, root, []string{"pool-0000"},
		[][32]byte{root}, [][32]byte{digest}, []string{"pool-0000"}, []*amm.Pool{pool}, receiptsAndMetaLen(recs))
	snap = AppendReceiptsAndMeta(prefix, recs, RunMeta{Rejected: e, SyncsOK: e - 1, QueuePeak: 3})
	parts = EncodeSyncParts(e, []*mainchain.MultiSyncArgs{{
		Epoch: e, Part: 1, NumParts: 1, SummaryRoot: root,
		Payloads: []*summary.SyncPayload{{
			Epoch: e, PoolID: "pool-0000",
			PoolReserve0: pool.Reserve0, PoolReserve1: pool.Reserve1,
			NextGroupKey: []byte{1, 2, 3},
			Payouts:      []summary.PayoutEntry{{User: "u-0", Amount0: u256.FromUint64(5)}},
			Positions: []summary.PositionEntry{{ID: "pos-1", Owner: "lp",
				TickLower: -600, TickUpper: 600, Liquidity: u256.FromUint64(1_000_000)}},
		}},
	}})
	return snap, parts
}

func TestStoreRoundTrip(t *testing.T) {
	fsys := writeEpochs(t, 3)
	rec, w, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := rec.Epoch(); got != 3 {
		t.Fatalf("recovered epoch %d, want 3", got)
	}
	if len(rec.Boundaries) != 3 {
		t.Fatalf("boundaries %d, want 3", len(rec.Boundaries))
	}
	for i, er := range rec.Epochs {
		e := uint64(i + 1)
		if er.Epoch != e {
			t.Fatalf("epoch[%d] = %d", i, er.Epoch)
		}
		if er.SummaryRoot != ([32]byte{byte(e), 0xaa}) {
			t.Errorf("epoch %d summary root mismatch", e)
		}
		if er.PayloadDigests[0] != ([32]byte{byte(e), 0xbb}) {
			t.Errorf("epoch %d payload digest mismatch", e)
		}
		if len(er.Receipts) != 1 || er.Receipts[0].TxID != fmt.Sprintf("tx-%d", e) {
			t.Errorf("epoch %d receipts corrupted: %+v", e, er.Receipts)
		}
		if er.Meta.Rejected != e || er.Meta.QueuePeak != 3 {
			t.Errorf("epoch %d meta corrupted: %+v", e, er.Meta)
		}
		if len(er.Parts) != 1 || er.Parts[0].Epoch != e || len(er.Parts[0].Payloads) != 1 {
			t.Fatalf("epoch %d sync parts corrupted", e)
		}
		p := er.Parts[0].Payloads[0]
		if p.PoolID != "pool-0000" || len(p.Payouts) != 1 || len(p.Positions) != 1 {
			t.Errorf("epoch %d payload corrupted: %+v", e, p)
		}
		pool := er.Pools["pool-0000"]
		if pool == nil || pool.NumPositions() != 1 || !pool.Reserve0.Eq(p.PoolReserve0) {
			t.Errorf("epoch %d pool snapshot corrupted", e)
		}
	}
}

// TestStoreTornTail pins the rollback rule: truncating the file at ANY
// offset never panics and recovers a boundary no later than what
// survived — rolling back to the previous epoch whenever the final
// records are torn (including a snapshot whose sync-part tail is gone).
func TestStoreTornTail(t *testing.T) {
	fsys := writeEpochs(t, 3)
	full := fsys.files[FileName]
	ref, _, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(len(full)); cut >= 0; cut -= 97 {
		trimmed := &MemFS{files: map[string][]byte{FileName: append([]byte(nil), full[:cut]...)}}
		rec, w, err := Open(trimmed, "", testFP)
		if cut < ref.Boundaries[0] {
			// Even the first epoch is gone; only the header (or less)
			// remains. A destroyed header is a hard corrupt error,
			// anything else recovers empty.
			if err != nil && !errors.Is(err, chain.ErrCorruptStore) {
				t.Fatalf("cut=%d: err = %v", cut, err)
			}
			if err == nil {
				if len(rec.Epochs) != 0 {
					t.Fatalf("cut=%d: recovered %d epochs from headerless file", cut, len(rec.Epochs))
				}
				w.Close()
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		want := 0
		for _, b := range ref.Boundaries {
			if b <= cut {
				want++
			}
		}
		if len(rec.Epochs) != want {
			t.Fatalf("cut=%d: recovered %d epochs, want %d", cut, len(rec.Epochs), want)
		}
		// The writer must be positioned at the recovered boundary: a
		// fresh epoch appended after recovery is recovered in turn.
		snap, parts := synthEpoch(t, rec.Epoch()+1, testPool(t))
		if err := w.AppendEpoch(rec.Epoch()+1, snap, parts); err != nil {
			t.Fatal(err)
		}
		w.Close()
		again, w2, err := Open(trimmed, "", testFP)
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		w2.Close()
		if again.Epoch() != rec.Epoch()+1 {
			t.Fatalf("cut=%d: resumed append not recovered (epoch %d)", cut, again.Epoch())
		}
	}
}

// TestStoreSnapshotWithoutLogTail pins the replay invariant directly: a
// file ending in a complete snapshot record with no sync-part record
// rolls back to the previous epoch.
func TestStoreSnapshotWithoutLogTail(t *testing.T) {
	fsys := &MemFS{}
	_, w, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(t)
	snap, parts := synthEpoch(t, 1, pool)
	if err := w.AppendEpoch(1, snap, parts); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: snapshot record only — as if the crash hit between the
	// two appends.
	snap2, _ := synthEpoch(t, 2, pool)
	if err := w.appendRecord(recSnapshot, snap2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, w2, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want rollback to 1", rec.Epoch())
	}
}

func TestStoreHeaderErrors(t *testing.T) {
	fsys := writeEpochs(t, 1)
	// Version mismatch: rewrite the header with a bumped version.
	data := append([]byte(nil), fsys.files[FileName]...)
	payload := binary.BigEndian.AppendUint16(nil, FormatVersion+1)
	payload = append(payload, testFP[:]...)
	patched := frameRecord(recHeader, payload)
	copy(data, patched)
	vfs := &MemFS{files: map[string][]byte{FileName: data}}
	if _, _, err := Open(vfs, "", testFP); !errors.Is(err, chain.ErrStoreVersion) {
		t.Errorf("version mismatch err = %v, want ErrStoreVersion", err)
	}
	// Fingerprint mismatch: same file, different deployment config.
	other := testFP
	other[0] ^= 0xff
	if _, _, err := Open(fsys, "", other); !errors.Is(err, chain.ErrStoreMismatch) {
		t.Errorf("fingerprint mismatch err = %v, want ErrStoreMismatch", err)
	}
	// Destroyed header: flip a bit inside the header record.
	data2 := append([]byte(nil), fsys.files[FileName]...)
	data2[6] ^= 1
	cfs := &MemFS{files: map[string][]byte{FileName: data2}}
	if _, _, err := Open(cfs, "", testFP); !errors.Is(err, chain.ErrCorruptStore) {
		t.Errorf("corrupt header err = %v, want ErrCorruptStore", err)
	}
}

// frameRecord mirrors the writer's framing for test patching.
func frameRecord(typ byte, payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	out = append(out, typ)
	out = append(out, payload...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out[4:], crcTable))
}

// TestStoreBitFlip sweeps a single-bit corruption across the body of the
// file: recovery must either keep every epoch whose records precede the
// flip or report a hard corrupt-store error for a damaged header — and
// never panic or resurrect records past the flip.
func TestStoreBitFlip(t *testing.T) {
	fsys := writeEpochs(t, 3)
	full := fsys.files[FileName]
	const headerEnd = headerFrameLen
	for off := int64(0); off < int64(len(full)); off += 131 {
		data := append([]byte(nil), full...)
		data[off] ^= 1
		ffs := &MemFS{files: map[string][]byte{FileName: data}}
		rec, w, err := Open(ffs, "", testFP)
		if err != nil {
			// Only header damage may hard-fail.
			if off < headerEnd && (errors.Is(err, chain.ErrCorruptStore) ||
				errors.Is(err, chain.ErrStoreVersion) || errors.Is(err, chain.ErrStoreMismatch)) {
				continue
			}
			t.Fatalf("off=%d: %v", off, err)
		}
		w.Close()
		// Every surviving epoch must end strictly before the flip, OR the
		// flip landed in bytes scan never trusted (a rolled-back tail).
		for i, b := range rec.Boundaries {
			if b > off && off >= headerEnd {
				// The flipped byte sits inside records the scan claims to
				// have validated — only possible if the CRC still passed,
				// which a single-bit flip cannot do.
				t.Fatalf("off=%d: epoch %d (boundary %d) survived a flip inside it", off, i+1, b)
			}
		}
	}
}

func TestFaultFSCrashAndFlip(t *testing.T) {
	// CrashAfter: a store written through a crashing FS recovers exactly
	// the epochs whose records fit under the crash point.
	clean := writeEpochs(t, 3)
	ref, _, err := Open(clean, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, crash := range []int64{ref.Boundaries[0] - 1, ref.Boundaries[0],
		ref.Boundaries[1] + 3, ref.Boundaries[2]} {
		inner := &MemFS{}
		ffs := NewFaultFS(inner)
		ffs.CrashAfter = crash
		_, w, err := Open(ffs, "", testFP)
		if err != nil {
			t.Fatal(err)
		}
		pool := testPool(t)
		for e := uint64(1); e <= 3; e++ {
			snap, parts := synthEpoch(t, e, pool)
			if err := w.AppendEpoch(e, snap, parts); err != nil {
				t.Fatalf("writes after a silent crash must not error: %v", err)
			}
		}
		w.Close()
		if got := int64(len(inner.files[FileName])); got > crash {
			t.Fatalf("FaultFS let %d bytes past crash point %d", got, crash)
		}
		rec, w2, err := Open(inner, "", testFP)
		if err != nil {
			t.Fatalf("crash=%d: %v", crash, err)
		}
		w2.Close()
		want := 0
		for _, b := range ref.Boundaries {
			if b <= crash {
				want++
			}
		}
		if len(rec.Epochs) != want {
			t.Errorf("crash=%d: recovered %d epochs, want %d", crash, len(rec.Epochs), want)
		}
	}

	// FlipBit: corruption at a chosen offset is caught by the CRC.
	inner := &MemFS{}
	ffs := NewFaultFS(inner)
	ffs.FlipBit = ref.Boundaries[1] + 9 // inside epoch 3's records
	_, w, err := Open(ffs, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(t)
	for e := uint64(1); e <= 3; e++ {
		snap, parts := synthEpoch(t, e, pool)
		if err := w.AppendEpoch(e, snap, parts); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	rec, w2, err := Open(inner, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if rec.Epoch() != 2 {
		t.Errorf("bit flip in epoch 3: recovered epoch %d, want 2", rec.Epoch())
	}
}

func TestStoreHalt(t *testing.T) {
	fsys := writeEpochs(t, 2)
	_, w, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendHalt(3, "sync reverted"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rec, w2, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if rec.Halt == nil || rec.Halt.Epoch != 3 || rec.Halt.Reason != "sync reverted" {
		t.Fatalf("halt record = %+v", rec.Halt)
	}
	if rec.Epoch() != 2 {
		t.Errorf("halted store recovered epoch %d, want 2", rec.Epoch())
	}
}
