package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// checkpoint as encoded pieces (its fold) and streams it into the temp
// file as byte views: nothing is decoded or re-encoded, and only the
// folded epochs' rows and the pool entries they changed are built.
//
// The rewrite is crash-atomic: the new image is built in a temp file,
// fsynced, then renamed over the log. A crash at any byte leaves either
// the complete old file or the complete new file. Only on a successful
// swap does the writer advance its fold and move its handle to the new
// file; any earlier failure leaves it appending to the old log as if
// Compact was never called. A stray temp file from a crashed compaction
// is harmless — Open ignores it and the next Compact truncates it.
//
// Compact is the writer's one call that writes O(checkpoint) bytes, so a
// caller may run it off its own path; the one-caller-at-a-time contract on
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
	cp := w.fold.next(at, horizon, bank)
	var tail [][]byte
	for i := at + 1; i < len(w.fold.tail); i++ {
		tail = w.fold.tail[i].appendFrames(tail)
	}
	newSize, err := rewrite(w.fsys, w.path, w.fingerprint, headerFlagCheckpoint, cp, tail...)
	sp.Bytes = cp.size
	if err != nil {
		return err
	}
	// The swap is published. Advance the fold past it: expired rows and
	// folded records drop, and the built pieces join the rest. Then move
	// the live handle onto the new file.
	f := &w.fold
	f.cursor, f.ids = cursor, cp.ids
	clear(f.rows[:cp.keep])
	f.rows = append(f.rows[cp.keep:], cp.rows...)
	maps.Copy(f.pools, cp.pools)
	f.tail = slices.Delete(f.tail, 0, at+1)
	w.f.Close()
	nf, err := w.fsys.OpenAppend(w.path, newSize)
	if err != nil {
		w.err = err
		return err
	}
	w.f = nf
	w.bw.Reset(nf)
	return nil
}

// fold is a writer's next checkpoint, kept encoded: the current
// checkpoint's root-table rows and newest pool blobs, and every record
// appended since. Each piece is a view — into the log Open read or the
// payloads AppendEpoch was handed — or was built, one allocation each, by
// the compaction that folded it, so the next checkpoint is a concatenation.
type fold struct {
	cursor uint64            // the checkpoint's cursor; 0 before the first one
	rows   [][]byte          // its root-table rows, in epoch order
	ids    []string          // its pool-set IDs, sorted
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

// checkpoint is the record a compaction streams, as pieces: f's rows and
// pool entries as they are, and what the folded epochs add, built.
type checkpoint struct {
	f       *fold
	head    *tailRecord // the cursor epoch's record
	horizon uint64
	bank    []byte
	keep    int               // f.rows[keep:] are above the horizon
	rows    [][]byte          // the folded epochs' rows above the horizon
	ids     []string          // every pool-set ID after the fold, sorted
	pools   map[string][]byte // newest entry of each pool the folded epochs touched
	size    int               // payload length, once written
}

// next plans the checkpoint that folds f.tail[:at+1] in. f is left
// unchanged until the checkpoint is written.
func (f *fold) next(at int, horizon uint64, bank []byte) *checkpoint {
	c := &checkpoint{f: f, head: &f.tail[at], horizon: horizon, bank: bank,
		keep: len(f.rows), pools: make(map[string][]byte)}
	if i := slices.IndexFunc(f.rows, func(row []byte) bool { return rowEpoch(row) > horizon }); i >= 0 {
		c.keep = i
	}
	for i := range f.tail[:at+1] {
		if r := &f.tail[i]; r.epoch > horizon {
			n := 44 + 32*int(binary.BigEndian.Uint32(r.table)) + len(r.receipts)
			c.rows = append(c.rows, r.appendRow(make([]byte, 0, n)))
		}
		eachPool(f.tail[i].pools, func(id, entry []byte) { c.pools[string(id)] = entry })
	}
	c.ids = slices.Clip(f.ids) // so the first new ID copies
	for id, entry := range c.pools {
		c.pools[id] = bytes.Clone(entry)
		if _, ok := f.pools[id]; !ok {
			c.ids = append(c.ids, id)
		}
	}
	if len(c.ids) > len(f.ids) {
		slices.Sort(c.ids)
	}
	return c
}

// each calls put with each piece of the checkpoint payload, in order.
func (c *checkpoint) each(put func([]byte)) {
	var word [24]byte
	h := binary.BigEndian.AppendUint64(word[:0], c.head.epoch)
	h = binary.BigEndian.AppendUint64(h, c.horizon)
	h = append(h, c.head.parts...)
	put(binary.BigEndian.AppendUint32(h, uint32(len(c.bank))))
	put(c.bank)
	put(c.head.meta)
	kept := c.f.rows[c.keep:]
	put(binary.BigEndian.AppendUint32(word[:0], uint32(len(kept)+len(c.rows))))
	for _, rows := range [...][][]byte{kept, c.rows} {
		for _, row := range rows {
			put(row)
		}
	}
	put(c.head.table[:4])
	eachTableRow(c.head.table, func(idRoot, _ []byte) { put(idRoot) })
	put(binary.BigEndian.AppendUint32(word[:0], uint32(len(c.ids))))
	for _, id := range c.ids {
		if entry, ok := c.pools[id]; ok {
			put(entry)
		} else {
			put(c.f.pools[id])
		}
	}
}

// write streams the checkpoint's record frame to bw: one pass over the
// pieces counts its length, a second writes them and folds the CRC. It
// returns the frame's length; a write error sticks in bw.
func (c *checkpoint) write(bw *bufio.Writer) int {
	c.each(func(b []byte) { c.size += len(b) })
	var word [5]byte
	binary.BigEndian.PutUint32(word[:], uint32(1+c.size))
	word[4] = recCheckpoint
	bw.Write(word[:])
	crc := crc32.Checksum(word[4:], crcTable)
	c.each(func(b []byte) {
		crc = crc32.Update(crc, crcTable, b)
		bw.Write(b)
	})
	bw.Write(binary.BigEndian.AppendUint32(word[:0], crc))
	return 9 + c.size
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
func rewrite(fsys FS, path string, fingerprint [32]byte, flags byte, cp *checkpoint, tail ...[]byte) (int64, error) {
	tmp := path + ".compact"
	tf, err := fsys.OpenAppend(tmp, 0)
	if err != nil {
		return 0, err
	}
	tw := newWriter(fsys, tmp, fingerprint, tf)
	size := int64(headerFrameLen)
	err = tw.appendRecord(recHeader, headerPayload(fingerprint, flags))
	if err == nil && cp != nil {
		size += int64(cp.write(tw.bw))
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
