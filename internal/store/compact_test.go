package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/binenc"
	"ammboost/internal/mainchain"
	"ammboost/internal/u256"
)

// encodeCheckpoint is the checkpoint encoder for a decoded Checkpoint:
// the reference the writer's fold is checked against, and how tests lay
// a recovery back out as an image.
func encodeCheckpoint(cp *Checkpoint) []byte {
	buf := make([]byte, 0, 4096)
	buf = binary.BigEndian.AppendUint64(buf, cp.Cursor)
	buf = binary.BigEndian.AppendUint64(buf, cp.Horizon)
	buf = binary.BigEndian.AppendUint32(buf, uint32(cp.CursorParts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.Bank)))
	buf = append(buf, cp.Bank...)
	buf = appendMeta(buf, cp.Meta)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.Entries)))
	for i := range cp.Entries {
		row := &cp.Entries[i]
		buf = binary.BigEndian.AppendUint64(buf, row.Epoch)
		buf = append(buf, row.SummaryRoot[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(row.PayloadDigests)))
		for _, d := range row.PayloadDigests {
			buf = append(buf, d[:]...)
		}
		buf = appendReceipts(buf, row.Receipts)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.PoolIDs)))
	for i, id := range cp.PoolIDs {
		buf = binenc.AppendString(buf, id)
		buf = append(buf, cp.PoolRoots[i][:]...)
	}
	ids := make([]string, 0, len(cp.Pools))
	for id := range cp.Pools {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pools := make([]*amm.Pool, len(ids))
	for i, id := range ids {
		pools[i] = cp.Pools[id]
	}
	return appendPools(buf, ids, pools)
}

// referenceCompact is the decode-then-encode fold: scan the whole image,
// fold the prior checkpoint and every epoch up to cursor into a decoded
// Checkpoint, encode it, and copy the records after cursor's boundary as
// the tail. It returns the image Compact must leave behind — the image
// itself when there is nothing to fold.
func referenceCompact(data []byte, fp [32]byte, cursor, horizon uint64, bank []byte) ([]byte, error) {
	if cursor == 0 {
		return data, nil
	}
	if horizon >= cursor {
		horizon = cursor - 1
	}
	rec, validLen, err := scan(data, fp)
	if err != nil {
		return nil, err
	}
	if rec.Checkpoint != nil && cursor <= rec.Checkpoint.Cursor {
		return data, nil
	}
	idx := slices.IndexFunc(rec.Epochs, func(er *EpochRecord) bool { return er.Epoch == cursor })
	if idx < 0 {
		return nil, fmt.Errorf("cursor %d is not a persisted boundary", cursor)
	}
	at := rec.Epochs[idx]
	cp := &Checkpoint{
		Cursor: cursor, Horizon: horizon, CursorParts: len(at.Parts), Bank: bank,
		Meta: at.Meta, PoolIDs: at.PoolIDs, PoolRoots: at.PoolRoots,
		Pools: make(map[string]*amm.Pool),
	}
	if prior := rec.Checkpoint; prior != nil {
		maps.Copy(cp.Pools, prior.Pools)
		cp.Entries = append(cp.Entries, prior.Entries...)
	}
	for _, er := range rec.Epochs[:idx+1] {
		maps.Copy(cp.Pools, er.Pools)
		cp.Entries = append(cp.Entries, er.EpochRow)
	}
	cp.Entries = slices.DeleteFunc(cp.Entries, func(row EpochRow) bool { return row.Epoch <= horizon })
	img := frameRecord(recHeader, headerPayload(fp, headerFlagCheckpoint))
	img = append(img, frameRecord(recCheckpoint, encodeCheckpoint(cp))...)
	return append(img, data[rec.Boundaries[idx]:validLen]...), nil
}

// foldGen encodes synthetic epochs over four pools. Each epoch trades on
// the pools it touches, so a re-touched pool's newest blob differs from
// its older ones, and epochs vary in receipt and sync-part counts.
type foldGen struct {
	t     *testing.T
	ids   []string
	pools []*amm.Pool
}

func newFoldGen(t *testing.T) *foldGen {
	g := &foldGen{t: t}
	for i := range 4 {
		g.ids = append(g.ids, fmt.Sprintf("pool-%04d", i))
		g.pools = append(g.pools, testPool(t))
	}
	return g
}

// epoch encodes epoch e's snapshot and sync-part payloads; the low four
// bits of touch pick the pools it trades on.
func (g *foldGen) epoch(e uint64, touch byte) (snap, parts []byte) {
	g.t.Helper()
	roots, digests := make([][32]byte, len(g.ids)), make([][32]byte, len(g.ids))
	var ids []string
	var active []*amm.Pool
	for i, p := range g.pools {
		roots[i], digests[i] = [32]byte{byte(e), byte(i), 0xaa}, [32]byte{byte(e), byte(i), 0xbb}
		if touch>>i&1 == 1 {
			if _, err := p.Swap(true, true, u256.FromUint64(10), u256.Zero); err != nil {
				g.t.Fatal(err)
			}
			ids, active = append(ids, g.ids[i]), append(active, p)
		}
	}
	root := [32]byte{byte(e), byte(e >> 8), 0xcc}
	recs := make([]ReceiptRecord, e%4)
	for j := range recs {
		recs[j] = ReceiptRecord{TxID: fmt.Sprintf("tx-%d-%d", e, j), PoolID: g.ids[j], Status: 2,
			Epoch: e, Round: uint64(j), SubmittedAt: int64(e), ExecutedAt: int64(e) + 1, CheckpointedAt: int64(e) + 2}
	}
	prefix := EncodeSnapshotPrefix(e, root, g.ids, roots, digests, ids, active, receiptsAndMetaLen(recs))
	snap = AppendReceiptsAndMeta(prefix, recs, RunMeta{Rejected: e, SyncsOK: e / 2, QueuePeak: uint64(touch)})
	args := make([]*mainchain.MultiSyncArgs, 1+e%3)
	for i := range args {
		args[i] = &mainchain.MultiSyncArgs{Epoch: e, Part: i + 1, NumParts: len(args), SummaryRoot: root}
	}
	return snap, EncodeSyncParts(e, args)
}

// append appends epoch e to w.
func (g *foldGen) append(w *Writer, e uint64, touch byte) {
	g.t.Helper()
	snap, parts := g.epoch(e, touch)
	if err := w.AppendEpoch(e, snap, parts); err != nil {
		g.t.Fatalf("append epoch %d: %v", e, err)
	}
}

func testBank(cursor uint64) []byte { return []byte(fmt.Sprintf("bank@%d", cursor)) }

// compactChecked compacts w and requires the log to equal the reference
// fold of the log as it stood, byte for byte, and both to agree on
// whether the compaction was refused.
func compactChecked(t *testing.T, fsys *MemFS, fp [32]byte, w *Writer, cursor, horizon uint64) {
	t.Helper()
	before := bytes.Clone(fsys.files[FileName])
	want, wantErr := referenceCompact(before, fp, cursor, horizon, testBank(cursor))
	err := w.Compact(cursor, horizon, testBank(cursor))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("compact at %d (horizon %d): err = %v, reference err = %v", cursor, horizon, err, wantErr)
	}
	if err != nil {
		want = before
	}
	if got := fsys.files[FileName]; !bytes.Equal(got, want) {
		t.Fatalf("compact at %d (horizon %d): image of %d bytes differs from the reference's %d",
			cursor, horizon, len(got), len(want))
	}
}

// goldenFS returns a MemFS holding a copy of the v2 golden image, and
// its fingerprint.
func goldenFS(t *testing.T) (*MemFS, [32]byte) {
	data, fp := goldenImage(t, goldenV2)
	return &MemFS{files: map[string][]byte{FileName: bytes.Clone(data)}}, fp
}

// TestCompactMatchesDecodedFold pins the writer's in-memory fold to the
// decode-then-encode reference across compaction cadences, retention
// horizons, a halt record in the tail, and a store that starts from the
// format-2 golden image (upgraded on open): after every compaction, and
// after a reopen that seeds the fold from the scan, the image equals the
// reference's byte for byte.
func TestCompactMatchesDecodedFold(t *testing.T) {
	for _, every := range []uint64{1, 2, 3, 8} {
		for _, retain := range []bool{false, true} {
			for _, halt := range []bool{false, true} {
				for _, golden := range []bool{false, true} {
					name := fmt.Sprintf("every=%d/retain=%v/halt=%v/golden=%v", every, retain, halt, golden)
					t.Run(name, func(t *testing.T) {
						fsys, fp, first := &MemFS{}, testFP, uint64(1)
						if golden {
							fsys, fp = goldenFS(t)
							first = 6
						}
						horizon := func(cursor uint64) uint64 {
							if retain && cursor > 2 {
								return cursor - 2
							}
							return 0
						}
						g := newFoldGen(t)
						_, w, err := Open(fsys, "", fp)
						if err != nil {
							t.Fatal(err)
						}
						e := first
						for ; e < first+12; e++ {
							g.append(w, e, byte(e*5))
							if halt && e == first+4 {
								if err := w.AppendHalt(e, "halted"); err != nil {
									t.Fatal(err)
								}
							}
							if e%every == 0 {
								compactChecked(t, fsys, fp, w, e-1, horizon(e-1))
							}
						}
						if err := w.Close(); err != nil {
							t.Fatal(err)
						}
						rec, w, err := Open(fsys, "", fp)
						if err != nil {
							t.Fatal(err)
						}
						if rec.Epoch() != e-1 {
							t.Fatalf("reopened at epoch %d, want %d", rec.Epoch(), e-1)
						}
						for stop := e + 3; e < stop; e++ {
							g.append(w, e, byte(e*3))
						}
						compactChecked(t, fsys, fp, w, e-2, horizon(e-2))
						compactChecked(t, fsys, fp, w, e-1, horizon(e-1))
						w.Close()
					})
				}
			}
		}
	}
}

var errInjected = errors.New("injected I/O error")

// failFS fails a compaction with an I/O error: writes to its temp file
// when failWrite is set, its rename when failRename is. (FaultFS models
// a dying process, whose writes never fail.)
type failFS struct {
	*MemFS
	failWrite, failRename bool
}

func (f *failFS) OpenAppend(name string, size int64) (File, error) {
	file, err := f.MemFS.OpenAppend(name, size)
	if err == nil && f.failWrite && strings.HasSuffix(name, ".compact") {
		return failFile{file}, nil
	}
	return file, err
}

func (f *failFS) Rename(oldname, newname string) error {
	if f.failRename {
		return errInjected
	}
	return f.MemFS.Rename(oldname, newname)
}

type failFile struct{ File }

func (failFile) Write([]byte) (int, error) { return 0, errInjected }

// TestFailedCompactionKeepsFold: a compaction whose temp-file write or
// rename fails leaves the writer appending to the old log with its fold
// unchanged. Two more epochs and a retried compaction later, the image
// equals a fault-free twin's byte for byte, and both reopen to the same
// recovery.
func TestFailedCompactionKeepsFold(t *testing.T) {
	for _, fault := range []string{"write", "rename"} {
		t.Run(fault, func(t *testing.T) {
			twin, faulty := &MemFS{}, &failFS{MemFS: &MemFS{}}
			_, wt, err := Open(twin, "", testFP)
			if err != nil {
				t.Fatal(err)
			}
			_, wf, err := Open(faulty, "", testFP)
			if err != nil {
				t.Fatal(err)
			}
			g := newFoldGen(t)
			appendBoth := func(from, to uint64) {
				for e := from; e <= to; e++ {
					snap, parts := g.epoch(e, byte(e*7))
					for _, w := range []*Writer{wt, wf} {
						if err := w.AppendEpoch(e, snap, parts); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			compactBoth := func(cursor, horizon uint64, wantFault bool) {
				if err := wt.Compact(cursor, horizon, testBank(cursor)); err != nil {
					t.Fatalf("twin compact at %d: %v", cursor, err)
				}
				err := wf.Compact(cursor, horizon, testBank(cursor))
				if wantFault != errors.Is(err, errInjected) {
					t.Fatalf("compact at %d: err = %v, want injected fault %v", cursor, err, wantFault)
				}
			}
			sameImage := func(when string) {
				if !bytes.Equal(faulty.files[FileName], twin.files[FileName]) {
					t.Fatalf("%s: image differs from the fault-free twin's", when)
				}
			}

			appendBoth(1, 6)
			compactBoth(3, 1, false)
			appendBoth(7, 8)
			faulty.failWrite, faulty.failRename = fault == "write", fault == "rename"
			compactBoth(7, 5, true)
			faulty.failWrite, faulty.failRename = false, false
			appendBoth(9, 10)
			compactBoth(7, 5, false) // the twin has compacted this far already
			sameImage("retried compaction")
			compactBoth(9, 7, false)
			sameImage("next compaction")

			for _, w := range []*Writer{wt, wf} {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			recT, w1, err := Open(twin, "", testFP)
			if err != nil {
				t.Fatal(err)
			}
			w1.Close()
			recF, w2, err := Open(faulty, "", testFP)
			if err != nil {
				t.Fatal(err)
			}
			w2.Close()
			if recF.Epoch() != 10 || !reflect.DeepEqual(recF, recT) {
				t.Fatalf("reopened at epoch %d, twin at %d; recoveries differ: %v",
					recF.Epoch(), recT.Epoch(), !reflect.DeepEqual(recF, recT))
			}
		})
	}
}

// FuzzCompact drives a writer through byte-chosen sequences of epoch
// appends, compactions (any cursor up to one past the newest epoch, any
// horizon), halt records, and reopens, from a fresh store or from the
// format-2 golden image. Every compaction must leave the image the
// decode-then-encode reference leaves, or be refused by both.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x0a, 0x02, 0x00, 0x04, 0x06, 0x01, 0x03, 0x12, 0x07, 0x0b, 0x02, 0x01})
	f.Add([]byte{0x80, 0x01, 0x0e, 0x06, 0x00, 0x07, 0x0d, 0x03, 0x09, 0x0a, 0x02, 0x11})
	f.Add([]byte{0x01, 0x05, 0x09, 0x0d, 0x11, 0x02, 0x00, 0x07, 0x01, 0x05, 0x0a, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 256 {
			return
		}
		fsys, fp, e := &MemFS{}, testFP, uint64(0)
		if ops[0]&0x80 != 0 {
			fsys, fp = goldenFS(t)
			e = 5
		}
		_, w, err := Open(fsys, "", fp)
		if err != nil {
			t.Fatal(err)
		}
		g := newFoldGen(t)
		for i := 1; i < len(ops); i++ {
			op := ops[i]
			switch op % 4 {
			case 0, 1:
				e++
				g.append(w, e, op>>2)
			case 2:
				cursor := e + 1 - uint64(op>>2)%(e+2)
				var horizon uint64
				if i+1 < len(ops) {
					i++
					horizon = uint64(ops[i]) % (cursor + 2)
				}
				compactChecked(t, fsys, fp, w, cursor, horizon)
			case 3:
				if op&4 != 0 {
					if err := w.AppendHalt(e, "halted"); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				rec, nw, err := Open(fsys, "", fp)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Epoch() != e {
					t.Fatalf("reopened at epoch %d, want %d", rec.Epoch(), e)
				}
				w = nw
			}
		}
		w.Close()
	})
}

// sinkFS is a filesystem that keeps nothing: every file swallows its
// writes, and it remembers how many bytes the newest compaction temp
// file received.
type sinkFS struct{ compacted int64 }

func (*sinkFS) ReadFile(string) ([]byte, error) { return nil, fs.ErrNotExist }
func (*sinkFS) Rename(string, string) error     { return nil }
func (s *sinkFS) OpenAppend(name string, _ int64) (File, error) {
	if strings.HasSuffix(name, ".compact") {
		s.compacted = 0
		return sinkFile{&s.compacted}, nil
	}
	return sinkFile{new(int64)}, nil
}

type sinkFile struct{ n *int64 }

func (f sinkFile) Write(p []byte) (int, error) { *f.n += int64(len(p)); return len(p), nil }
func (sinkFile) Sync() error                   { return nil }
func (sinkFile) Close() error                  { return nil }

// TestCompactAllocatesWhatItFolds: a compaction streams the checkpoint
// and builds only what the folded epochs add, so the k-th compaction of
// a long history — every root-table row retained — allocates under a
// quarter of the checkpoint it writes, however long that history is.
func TestCompactAllocatesWhatItFolds(t *testing.T) {
	fsys := &sinkFS{}
	_, w, err := Open(fsys, "", testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := newFoldGen(t)
	e := uint64(1)
	for ; e <= 4000; e++ {
		g.append(w, e, byte(e*5))
	}
	if err := w.Compact(e-1, 0, testBank(e-1)); err != nil {
		t.Fatal(err)
	}
	for stop := e + 8; e < stop; e++ {
		g.append(w, e, byte(e*5))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = w.Compact(e-1, 0, testBank(e-1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	size, alloc := fsys.compacted-headerFrameLen, after.TotalAlloc-before.TotalAlloc
	t.Logf("compacting 8 epochs into a %d-byte checkpoint allocated %d bytes", size, alloc)
	if size < 1<<20 || alloc >= uint64(size)/4 {
		t.Errorf("compacting 8 epochs into a %d-byte checkpoint allocated %d bytes, want under a quarter", size, alloc)
	}
}
