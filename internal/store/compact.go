package store

import (
	"bufio"
	"fmt"
	"maps"
	"slices"

	"ammboost/internal/amm"
)

// Checkpoint is the compacted prefix of a store's history: everything
// recovery needs from epochs 1..Cursor, folded into one record so the
// per-epoch records behind the cursor can be dropped. It is the durable
// analogue of what a running node retains in memory after its own root
// compaction — plus the bank replay state, which a running node keeps on
// the mainchain side.
type Checkpoint struct {
	// Cursor is the newest epoch folded into this checkpoint. It is
	// always a mainchain-confirmed epoch: compaction runs only on sync
	// confirmation (or at rest), so the bank state below is final.
	Cursor uint64
	// Horizon is the root-table retention horizon at compaction time:
	// Entries covers epochs (Horizon, Cursor].
	Horizon uint64
	// CursorParts is how many sync parts epoch Cursor confirmed with —
	// a federation member restores its mainchain dependency chain from
	// this when the checkpoint has no tail records behind it.
	CursorParts int
	// Bank is the mainchain bank's serialized replay state at Cursor
	// (opaque to the store; encoded by internal/mainchain).
	Bank []byte
	// Meta is the run-counter snapshot persisted with epoch Cursor.
	Meta RunMeta
	// Entries is the root table for epochs (Horizon, Cursor]: summary
	// root, payload digests, and persisted receipt rows per epoch, in
	// increasing epoch order.
	Entries []EpochRow
	// PoolIDs / PoolRoots is the full per-pool commitment root table at
	// Cursor, in canonical pool order — recovery re-derives roots from
	// the restored pools and must reproduce these bit for bit.
	PoolIDs   []string
	PoolRoots [][32]byte
	// Pools is the newest persisted state of every pool touched in
	// epochs 1..Cursor (untouched pools stay at genesis).
	Pools map[string]*amm.Pool
}

// Compact rewrites the log as [header, checkpoint, tail records]: every
// epoch record up to and including cursor (a mainchain-confirmed epoch)
// folds into one checkpoint carrying the root table above horizon, the
// newest state of every touched pool, the run counters, and the caller's
// serialized bank replay state; records after cursor — later epochs and
// any halt record — are copied bit-exact as the tail.
//
// The rewrite is crash-atomic: the new image is built in a temp file,
// fsynced, then renamed over the log. A crash at any byte leaves either
// the complete old file or the complete new file. Only on a successful
// swap does the writer move its handle to the new file; any earlier
// failure leaves it appending to the old log as if Compact was never
// called. A stray temp file from a crashed compaction is harmless — Open
// ignores it and the next Compact truncates it.
func (w *Writer) Compact(cursor, horizon uint64, bank []byte) error {
	if w.err != nil {
		return w.err
	}
	if cursor == 0 {
		return nil
	}
	if horizon >= cursor {
		horizon = cursor - 1 // the cursor's own root entry must survive
	}
	if err := w.commit(); err != nil {
		return err
	}
	data, err := w.fsys.ReadFile(w.path)
	if err != nil {
		return err
	}
	rec, validLen, err := scan(data, w.fingerprint)
	if err != nil {
		return err
	}
	if rec.Checkpoint != nil && cursor <= rec.Checkpoint.Cursor {
		return nil // already compacted at least this far
	}
	idx := -1
	for i, er := range rec.Epochs {
		if er.Epoch == cursor {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("store: compact cursor %d is not a persisted boundary (have %d)",
			cursor, rec.Epoch())
	}

	// Fold the prior checkpoint and every record up to the cursor, then
	// drop the rows the retention horizon has passed.
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

	// Tail: everything past the cursor's durable boundary, bit-exact.
	tailOff := rec.Boundaries[idx]
	tail := data[tailOff:validLen]

	newSize, err := rewrite(w.fsys, w.path, w.fingerprint, headerFlagCheckpoint, encodeCheckpoint(cp), tail)
	if err != nil {
		return err
	}

	// The swap is published; move the live handle onto the new file.
	w.f.Close()
	nf, err := w.fsys.OpenAppend(w.path, newSize)
	if err != nil {
		w.err = err
		return err
	}
	w.f = nf
	w.bw = bufio.NewWriterSize(nf, 1<<16)
	w.sinceSync = 0
	return nil
}

// rewrite replaces the log at path with [header, checkpoint, tail]
// crash-atomically: the image is built in a temp file, fsynced, then
// renamed over the log. The header is this format version's with flags;
// a nil checkpoint writes no checkpoint record; tail is copied
// bit-exact. It returns the new image's size.
func rewrite(fsys FS, path string, fingerprint [32]byte, flags byte, checkpoint, tail []byte) (int64, error) {
	tmp := path + ".compact"
	tf, err := fsys.OpenAppend(tmp, 0)
	if err != nil {
		return 0, err
	}
	tw := newWriter(fsys, tmp, fingerprint, tf)
	size := int64(headerFrameLen) + int64(len(tail))
	err = tw.appendRecord(recHeader, headerPayload(fingerprint, flags))
	if err == nil && checkpoint != nil {
		err = tw.appendRecord(recCheckpoint, checkpoint)
		size += int64(9 + len(checkpoint))
	}
	if err == nil && len(tail) > 0 {
		_, err = tw.bw.Write(tail)
	}
	if err == nil {
		err = tw.commit()
	}
	if err != nil {
		tf.Close()
		return 0, err
	}
	if err := tf.Close(); err != nil {
		return 0, err
	}
	return size, fsys.Rename(tmp, path)
}

// Snapshot commits pending writes and returns the store's complete
// current contents — the peer-exportable image a fresh federation member
// bootstraps from. Compact first for the smallest image.
func (w *Writer) Snapshot() ([]byte, error) {
	if err := w.commit(); err != nil {
		return nil, err
	}
	return w.fsys.ReadFile(w.path)
}

var errWriterAborted = fmt.Errorf("store: writer aborted")

// Abort closes the underlying file WITHOUT flushing buffered records —
// the write-path equivalent of kill -9, releasing the file lock so the
// directory can be reopened. Used to model a federation member dying
// mid-run; any later append fails.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
	}
	w.err = errWriterAborted
}
