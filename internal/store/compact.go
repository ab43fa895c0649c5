package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"ammboost/internal/amm"
	"ammboost/internal/binenc"
	"ammboost/internal/chain"
	"ammboost/internal/trace"
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
// The writer never reads its own log to do this: it keeps the next
// checkpoint as encoded pieces (its fold), so the checkpoint is a
// concatenation of byte views and nothing is decoded or re-encoded.
//
// The rewrite is crash-atomic: the new image is built in a temp file,
// fsynced, then renamed over the log. A crash at any byte leaves either
// the complete old file or the complete new file. Only on a successful
// swap does the writer advance its fold and move its handle to the new
// file; any earlier failure leaves it appending to the old log as if
// Compact was never called. A stray temp file from a crashed compaction
// is harmless — Open ignores it and the next Compact truncates it.
//
// Compact is the writer's one call that costs O(checkpoint), so a caller
// may run it off its own path; the one-caller-at-a-time contract on
// Writer still holds, and the caller sees its error when it joins.
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
	if cursor <= w.fold.cursor {
		return nil // already compacted at least this far
	}
	at := slices.IndexFunc(w.fold.tail, func(r tailRecord) bool { return r.epoch == cursor })
	if at < 0 {
		return fmt.Errorf("store: compact cursor %d is not a persisted boundary (have %d)",
			cursor, w.fold.epoch())
	}
	sp := w.tr.Start(trace.StageStoreCompact, cursor)
	defer sp.End()
	checkpoint, next := w.fold.next(at, horizon, bank)
	sp.Bytes = len(checkpoint)
	var tail [][]byte
	for i := range next.tail {
		tail = next.tail[i].appendFrames(tail)
	}
	newSize, err := rewrite(w.fsys, w.path, w.fingerprint, headerFlagCheckpoint, checkpoint, tail...)
	if err != nil {
		return err
	}

	// The swap is published; advance the fold and move the live handle
	// onto the new file.
	w.fold = next
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

// fold is a writer's next checkpoint, kept encoded: the current
// checkpoint's root-table rows and newest pool blobs, and every record
// appended since. Each piece is a view — into the checkpoint payload the
// last compaction wrote, the log Open read, or the payloads AppendEpoch
// was handed — so the next checkpoint is a concatenation.
type fold struct {
	cursor uint64            // the checkpoint's cursor; 0 before the first one
	rows   [][]byte          // its root-table rows, in epoch order
	pools  map[string][]byte // newest pool-set entry (ID, blob) per touched pool
	tail   []tailRecord      // records appended since, in log order
}

// tailRecord is one epoch's snapshot and sync-part records, or one halt
// record, appended after the checkpoint.
type tailRecord struct {
	epoch uint64 // 0 for a halt record
	// recs are the records as written; a halt record is recs[0] alone.
	recs [2]framed
	// The snapshot's sections a checkpoint reuses.
	table    []byte // pool count, then (ID, root, payload digest) per pool
	pools    []byte // pool set: count, then (ID, blob) per touched pool
	receipts []byte // receipt table
	meta     []byte // run counters
	parts    []byte // sync-part count (4 bytes)
}

// epochRecord frames an epoch's snapshot and sync-part payloads for the
// fold. It walks the snapshot once with Take alone — no pool or receipt
// is decoded — and refuses payloads a scan would not recover.
func epochRecord(snap, parts framed) (tailRecord, error) {
	p := snap.payload
	d := binenc.NewCursor(p)
	r := tailRecord{epoch: d.U64(), recs: [2]framed{snap, parts}}
	d.Take(32) // summary root
	at := d.Offset()
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		d.Take(int(d.U32()) + 64) // pool ID, root, payload digest
	}
	r.table, at = p[at:d.Offset()], d.Offset()
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		d.Take(int(d.U32())) // pool ID
		d.Take(int(d.U32())) // pool blob
	}
	r.pools = p[at:d.Offset()]
	r.receipts = d.Take(d.Remaining() - 48) // the run counters close the record
	r.meta = d.Take(48)
	if d.Err() == nil && !isReceiptTable(r.receipts) {
		d.Fail("receipt table")
	}
	if err := finish(d, "snapshot"); err != nil {
		return tailRecord{}, err
	}
	if len(parts.payload) < 12 || binary.BigEndian.Uint64(parts.payload) != r.epoch {
		return tailRecord{}, fmt.Errorf("%w: sync-part record does not follow epoch %d's snapshot",
			chain.ErrCorruptStore, r.epoch)
	}
	r.parts = parts.payload[8:12]
	return r, nil
}

// isReceiptTable reports whether b is exactly one receipt table: a row
// count, then per row a transaction ID, a pool ID and 41 fixed bytes. An
// epoch has thousands of rows, so they are skipped by index rather than
// through a cursor.
func isReceiptTable(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	off := 4
	for n := binary.BigEndian.Uint32(b); n > 0; n-- {
		for range 2 { // transaction ID, pool ID
			if len(b)-off < 4 {
				return false
			}
			off += 4 + int(binary.BigEndian.Uint32(b[off:]))
		}
		if off += 41; off > len(b) {
			return false
		}
	}
	return off == len(b)
}

// epoch returns the newest epoch the fold holds.
func (f *fold) epoch() uint64 {
	for i := len(f.tail) - 1; i >= 0; i-- {
		if f.tail[i].epoch != 0 {
			return f.tail[i].epoch
		}
	}
	return f.cursor
}

// next builds the checkpoint that folds f.tail[:at+1] in, and the fold
// that follows once it is written: its rows and pools become views into
// the new checkpoint payload. f is left unchanged.
func (f *fold) next(at int, horizon uint64, bank []byte) ([]byte, fold) {
	folded, head := f.tail[:at+1], &f.tail[at]
	pools := make(map[string][]byte, len(f.pools))
	maps.Copy(pools, f.pools)
	size := 8 + 8 + 4 + 4 + len(bank) + len(head.meta) + 4 + len(head.table) + 4
	for _, row := range f.rows {
		if rowEpoch(row) > horizon {
			size += len(row)
		}
	}
	for i := range folded {
		r := &folded[i]
		if r.epoch > horizon {
			size += 44 + 32*int(binary.BigEndian.Uint32(r.table)) + len(r.receipts)
		}
		eachPool(r.pools, func(id, entry []byte) { pools[string(id)] = entry })
	}
	ids := slices.Sorted(maps.Keys(pools))
	for _, id := range ids {
		size += len(pools[id])
	}

	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, head.epoch)
	buf = binary.BigEndian.AppendUint64(buf, horizon)
	buf = append(buf, head.parts...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(bank)))
	buf = append(buf, bank...)
	buf = append(buf, head.meta...)
	buf = append(buf, 0, 0, 0, 0) // row count
	countAt := len(buf) - 4
	var rowAt []int
	for _, row := range f.rows {
		if rowEpoch(row) > horizon {
			rowAt = append(rowAt, len(buf))
			buf = append(buf, row...)
		}
	}
	for i := range folded {
		if r := &folded[i]; r.epoch > horizon {
			rowAt = append(rowAt, len(buf))
			buf = r.appendRow(buf)
		}
	}
	binary.BigEndian.PutUint32(buf[countAt:], uint32(len(rowAt)))
	rowAt = append(rowAt, len(buf))
	buf = append(buf, head.table[:4]...)
	eachTableRow(head.table, func(idRoot, _ []byte) { buf = append(buf, idRoot...) })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	poolAt := make([]int, len(ids)+1)
	for i, id := range ids {
		poolAt[i] = len(buf)
		buf = append(buf, pools[id]...)
	}
	poolAt[len(ids)] = len(buf)

	next := fold{
		cursor: head.epoch,
		rows:   make([][]byte, len(rowAt)-1),
		pools:  pools,
		tail:   slices.Clone(f.tail[at+1:]),
	}
	for i := range next.rows {
		next.rows[i] = buf[rowAt[i]:rowAt[i+1]:rowAt[i+1]]
	}
	for i, id := range ids {
		pools[id] = buf[poolAt[i]:poolAt[i+1]:poolAt[i+1]]
	}
	return buf, next
}

func rowEpoch(row []byte) uint64 { return binary.BigEndian.Uint64(row) }

// appendRow appends the epoch's root-table row: epoch and summary root,
// the payload digests lifted out of the pool table, then the receipt
// table as written.
func (r *tailRecord) appendRow(buf []byte) []byte {
	buf = append(buf, r.recs[0].payload[:40]...)
	buf = append(buf, r.table[:4]...)
	eachTableRow(r.table, func(_, digest []byte) { buf = append(buf, digest...) })
	return append(buf, r.receipts...)
}

// appendFrames appends the record's framed pieces.
func (r *tailRecord) appendFrames(pieces [][]byte) [][]byte {
	n := 2
	if r.epoch == 0 {
		n = 1
	}
	for i := range r.recs[:n] {
		fr := &r.recs[i]
		pieces = append(pieces, fr.head[:], fr.payload, fr.crc[:])
	}
	return pieces
}

// eachTableRow calls fn with each row of a snapshot's pool table split
// into (ID and root, payload digest). The table was walked on the way
// in, so its lengths are trusted.
func eachTableRow(table []byte, fn func(idRoot, digest []byte)) {
	for off := 4; off < len(table); {
		end := off + 4 + int(binary.BigEndian.Uint32(table[off:])) + 32
		fn(table[off:end], table[end:end+32])
		off = end + 32
	}
}

// eachPool calls fn with each entry of a walked pool set: the pool's ID
// and its whole encoded entry (ID, length, blob).
func eachPool(set []byte, fn func(id, entry []byte)) {
	for off := 4; off < len(set); {
		idEnd := off + 4 + int(binary.BigEndian.Uint32(set[off:]))
		end := idEnd + 4 + int(binary.BigEndian.Uint32(set[idEnd:]))
		fn(set[off+4:idEnd], set[off:end])
		off = end
	}
}

// rewrite replaces the log at path with [header, checkpoint, tail]
// crash-atomically: the image is built in a temp file, fsynced, then
// renamed over the log. The header is this format version's with flags;
// a nil checkpoint writes no checkpoint record; the tail pieces are
// copied bit-exact, in order. It returns the new image's size.
func rewrite(fsys FS, path string, fingerprint [32]byte, flags byte, checkpoint []byte, tail ...[]byte) (int64, error) {
	tmp := path + ".compact"
	tf, err := fsys.OpenAppend(tmp, 0)
	if err != nil {
		return 0, err
	}
	tw := newWriter(fsys, tmp, fingerprint, tf)
	size := int64(headerFrameLen)
	err = tw.appendRecord(recHeader, headerPayload(fingerprint, flags))
	if err == nil && checkpoint != nil {
		err = tw.appendRecord(recCheckpoint, checkpoint)
		size += int64(9 + len(checkpoint))
	}
	for _, piece := range tail {
		if err == nil {
			_, err = tw.bw.Write(piece)
			size += int64(len(piece))
		}
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
	w.fold = fold{}
	w.err = errWriterAborted
}
