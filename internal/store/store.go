// Package store is ammBoost's durable persistence subsystem: an
// append-only, CRC-framed record log that checkpoints every retired
// epoch — pool state snapshots, summary roots, payload digests, the
// receipt table, and the TSQC-signed mainchain sync-part log — so a node
// killed at an arbitrary point restarts from its newest valid snapshot
// instead of replaying its entire history.
//
// File layout (one file, ammboost.store, per data directory):
//
//	header record                     (format version + deployment fingerprint + flags)
//	[checkpoint record]               (only when the header's checkpoint flag is set)
//	snapshot record for epoch S+1     ┐ written at epoch retirement,
//	sync-part record for epoch S+1    ┘ fsynced together
//	snapshot record for epoch S+2
//	sync-part record for epoch S+2
//	...
//	[halt record]                     (only after a lifecycle fault)
//
// A store starts without a checkpoint (S = 0: epoch records from 1). At
// a snapshot boundary, Compact folds every record up to a cursor epoch S
// into a single checkpoint — the full root table inside the retention
// window, the newest persisted state of every pool, the persisted
// receipt rows, and the mainchain bank's replay state at S — and
// rewrites the file as [header, checkpoint, tail records] via
// write-temp-fsync-rename. The writer never reads its own log to do so:
// it keeps the next checkpoint as encoded pieces, views of what it
// appended and of the checkpoint it last wrote (or Open read), so a
// compaction concatenates bytes and decodes nothing. A crash at any byte of that sequence leaves
// either the complete old file or the complete new file, never a
// hybrid, which is why a header that promises a checkpoint treats any
// damage to it as hard corruption rather than a torn tail.
//
// Record framing:
//
//	| length u32 | type u8 | payload ... | crc32c u32 |
//
// where length covers type+payload and the CRC (Castagnoli) covers the
// same bytes. Recovery scans the file front to back and stops at the
// first record whose frame or CRC fails: everything before it is
// trusted, everything after is a torn tail from the crash and is
// truncated before writes resume. An epoch counts as recovered only when
// BOTH its snapshot and its sync-part record survive (replay invariant 9
// in DESIGN.md); a snapshot without its log tail rolls back to the
// previous epoch.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"ammboost/internal/binenc"
	"ammboost/internal/chain"
	"ammboost/internal/trace"
)

// FormatVersion is the on-disk format this package writes. Version 2
// added the header flags byte and the checkpoint record; version 3 logs
// an epoch's sync parts signed once, each with its inclusion proof
// (recSyncParts). The reader also accepts version 2, whose per-part
// signed records (recSyncPartsV2) replay as they were; Open rewrites a
// version-2 header as version 3 before it appends anything.
const FormatVersion = 3

// minFormatVersion is the oldest on-disk format this package reads.
const minFormatVersion = 2

// FileName is the store's single log file inside the data directory.
const FileName = "ammboost.store"

// Record types.
const (
	recHeader   = 1
	recSnapshot = 2
	// recSyncPartsV2 is a format-2 sync-part record: every part signed on
	// its own digest, no proofs. Nothing writes it any more.
	recSyncPartsV2 = 3
	recHalt        = 4
	recCheckpoint  = 5
	// recSyncParts is the sync-part record of format 3.
	recSyncParts = 6
)

// Header flag bits.
const (
	// headerFlagCheckpoint promises that the record immediately after
	// the header is a valid checkpoint. Compaction's atomic rename is
	// the only thing that ever sets it, so a flagged store whose
	// checkpoint does not parse is corrupt — there is no crash that
	// tears it.
	headerFlagCheckpoint = 1 << 0
)

// maxRecordLen bounds a single record frame; anything larger is treated
// as framing corruption rather than attempted as an allocation.
const maxRecordLen = 1 << 30

// headerFrameLen is the exact framed size of the header record:
// length(4) + type(1) + version(2) + fingerprint(32) + flags(1) + crc(4).
const headerFrameLen = 4 + 1 + 2 + 32 + 1 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// HaltRecord is a persisted lifecycle fault: the node halted before the
// crash and must recover as halted.
type HaltRecord struct {
	Epoch  uint64
	Reason string
}

// Recovery is everything a scan restored from an existing store.
type Recovery struct {
	// Checkpoint is the compacted prefix of the history (nil when the
	// store has never been compacted). Epochs then continues from
	// Checkpoint.Cursor+1.
	Checkpoint *Checkpoint
	// Epochs holds the recovered tail epoch records in increasing epoch
	// order; empty for a fresh (or freshly compacted) store.
	Epochs []*EpochRecord
	// Boundaries[i] is the file offset just past Epochs[i]'s sync-part
	// record — the durable boundary a kill -9 lands on. Crash tests
	// truncate at (or around) these offsets.
	Boundaries []int64
	// Halt is non-nil when the node had halted on a lifecycle fault.
	Halt *HaltRecord

	// version is the header's format version.
	version uint16
}

// Epoch returns the recovered boundary epoch (0 for a fresh store).
func (r *Recovery) Epoch() uint64 {
	if len(r.Epochs) == 0 {
		if r.Checkpoint != nil {
			return r.Checkpoint.Cursor
		}
		return 0
	}
	return r.Epochs[len(r.Epochs)-1].Epoch
}

// Writer appends epoch records to the store. It serves one caller at a
// time: no method may start before the previous one has returned. In
// core its owner is the node's store lane: every append, compaction and
// halt record runs there, one after another, off the lifecycle
// goroutine, which joins the lane before it touches the writer itself,
// so the writer never sees two calls at once and writes the same bytes in
// the same order as a caller that never left its own goroutine.
type Writer struct {
	f   File
	bw  *bufio.Writer
	err error

	// Compaction rewrites the log and snapshot export reads it, so the
	// writer keeps its filesystem, path, and fingerprint.
	fsys        FS
	path        string
	fingerprint [32]byte
	// fold is the next checkpoint, kept encoded (see Compact).
	fold fold

	// Lifecycle tracing (nil = disabled): AppendEpoch records a
	// store-append span, Compact a store-compact span and each fsync a
	// store-fsync span.
	tr    *trace.Tracer
	epoch uint64 // epoch of the append in progress, for spans
}

// SetTracer attaches the lifecycle tracer (nil disables tracing).
func (w *Writer) SetTracer(tr *trace.Tracer) { w.tr = tr }

// framed is one log record as written: its frame header (length and
// type), its payload, and the CRC over both.
type framed struct {
	head    [5]byte
	payload []byte
	crc     [4]byte
}

func frameOf(typ byte, payload []byte) framed {
	fr := framed{payload: payload}
	binary.BigEndian.PutUint32(fr.head[:4], uint32(1+len(payload)))
	fr.head[4] = typ
	crc := crc32.Update(crc32.Checksum(fr.head[4:], crcTable), crcTable, payload)
	binary.BigEndian.PutUint32(fr.crc[:], crc)
	return fr
}

func (w *Writer) writeFrame(fr *framed) error {
	if w.err != nil {
		return w.err
	}
	for _, b := range [...][]byte{fr.head[:], fr.payload, fr.crc[:]} {
		if _, err := w.bw.Write(b); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

func (w *Writer) appendRecord(typ byte, payload []byte) error {
	fr := frameOf(typ, payload)
	return w.writeFrame(&fr)
}

// AppendEpoch appends one retired epoch — its snapshot record followed
// by its sync-part record — and commits it: both are flushed and
// fsynced before the call returns. The epoch number only labels trace
// spans; record contents are the caller's encodings, unchanged. The
// writer keeps both slices, not copies, until its next compaction, so
// the caller must not modify them after the call. A snapshot that does
// not walk cleanly, or that does not continue the log's epochs, is
// refused before anything is written.
func (w *Writer) AppendEpoch(epoch uint64, snapshot, syncParts []byte) error {
	sp := w.tr.Start(trace.StageStoreAppend, epoch)
	sp.Bytes = len(snapshot) + len(syncParts)
	w.epoch = epoch
	defer sp.End()
	if w.err != nil {
		return w.err
	}
	rec, err := epochRecord(frameOf(recSnapshot, snapshot), frameOf(recSyncParts, syncParts))
	if err != nil {
		return err
	}
	if want := w.fold.epoch() + 1; rec.epoch != want {
		return fmt.Errorf("store: appended epoch %d, the log continues at %d", rec.epoch, want)
	}
	for i := range rec.recs {
		if err := w.writeFrame(&rec.recs[i]); err != nil {
			return err
		}
	}
	w.fold.tail = append(w.fold.tail, rec)
	return w.commit()
}

// AppendHalt records a lifecycle fault and syncs immediately: a halted
// node must recover as halted.
func (w *Writer) AppendHalt(epoch uint64, reason string) error {
	payload := binary.BigEndian.AppendUint64(nil, epoch)
	payload = binenc.AppendString(payload, reason)
	fr := frameOf(recHalt, payload)
	if err := w.writeFrame(&fr); err != nil {
		return err
	}
	w.fold.tail = append(w.fold.tail, tailRecord{recs: [2]framed{fr}})
	return w.commit()
}

func (w *Writer) commit() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	syncStart := w.tr.Since()
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.tr.Record(trace.SpanRecord{
		Stage: trace.StageStoreFsync, Epoch: w.epoch,
		Start: syncStart, Dur: w.tr.Since() - syncStart,
	})
	return nil
}

// Close flushes, syncs, and closes the underlying file, and drops the
// fold: a closed writer holds none of the log in memory.
func (w *Writer) Close() error {
	flushErr := w.commit()
	closeErr := w.f.Close()
	w.fold = fold{}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Open opens (or creates) the store in dir: it scans the existing log,
// validates the header against the deployment fingerprint, recovers the
// longest valid prefix of epoch records, truncates any torn tail, and
// returns the recovery alongside a writer positioned to append the next
// epoch. A missing file yields an empty recovery and a fresh store whose
// header is written (and synced) immediately.
func Open(fsys FS, dir string, fingerprint [32]byte) (*Recovery, *Writer, error) {
	path := filepath.Join(dir, FileName)
	data, err := fsys.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return create(fsys, path, fingerprint)
	case err != nil:
		return nil, nil, err
	case len(data) < headerFrameLen:
		// Shorter than one complete header frame: this can only be a
		// creation torn by a crash before the header's fsync (a store
		// that ever synced retains its full header), so start fresh
		// instead of bricking the directory. A complete-but-corrupt
		// header stays a hard ErrCorruptStore — that is real damage to a
		// real store, not a torn birth.
		return create(fsys, path, fingerprint)
	}

	seed := fold{pools: map[string][]byte{}}
	rec, validLen, err := scanLog(data, fingerprint, &seed)
	if err != nil {
		return nil, nil, err
	}
	if rec.version < FormatVersion {
		// The records this writer appends are format 3. The header says so
		// before any of them lands, so an older reader refuses the file
		// instead of truncating it at the first record it cannot parse.
		flags := data[headerFrameLen-5]
		if _, err := rewrite(fsys, path, fingerprint, flags, nil, data[headerFrameLen:validLen]); err != nil {
			return nil, nil, err
		}
	}
	f, err := fsys.OpenAppend(path, validLen)
	if err != nil {
		return nil, nil, err
	}
	w := newWriter(fsys, path, fingerprint, f)
	w.fold = seed
	return rec, w, nil
}

// CheckSnapshot rejects blobs that cannot possibly be a store image:
// anything shorter than one complete header frame is indistinguishable
// from a crash-torn creation at Open time and would silently seed a
// FRESH node instead of the peer's state it claims to carry.
func CheckSnapshot(data []byte) error {
	if len(data) < headerFrameLen {
		return fmt.Errorf("store: snapshot of %d bytes is shorter than a store header", len(data))
	}
	return nil
}

func create(fsys FS, path string, fingerprint [32]byte) (*Recovery, *Writer, error) {
	f, err := fsys.OpenAppend(path, 0)
	if err != nil {
		return nil, nil, err
	}
	w := newWriter(fsys, path, fingerprint, f)
	if err := w.appendRecord(recHeader, headerPayload(fingerprint, 0)); err != nil {
		w.Close() // release the file (and its lock) — a later retry must not see it held
		return nil, nil, err
	}
	if err := w.commit(); err != nil {
		w.Close()
		return nil, nil, err
	}
	return &Recovery{}, w, nil
}

func headerPayload(fingerprint [32]byte, flags byte) []byte {
	payload := binary.BigEndian.AppendUint16(nil, FormatVersion)
	payload = append(payload, fingerprint[:]...)
	return append(payload, flags)
}

func newWriter(fsys FS, path string, fingerprint [32]byte, f File) *Writer {
	return &Writer{
		f: f, bw: bufio.NewWriterSize(f, 1<<16),
		fsys: fsys, path: path, fingerprint: fingerprint,
		fold: fold{pools: map[string][]byte{}},
	}
}

// frame is one raw record lifted out of the log.
type frame struct {
	typ     byte
	payload []byte
	end     int64 // offset just past this record's CRC
}

// framed views the record as written in data.
func (fr frame) framed(data []byte) framed {
	out := framed{payload: fr.payload}
	copy(out.head[:], data[fr.end-9-int64(len(fr.payload)):])
	copy(out.crc[:], data[fr.end-4:])
	return out
}

// nextFrame parses the record starting at off; ok is false when the
// frame is torn or its CRC fails (the scan stops there).
func nextFrame(data []byte, off int64) (frame, bool) {
	if int64(len(data))-off < 9 {
		return frame{}, false
	}
	n := binary.BigEndian.Uint32(data[off:])
	if n < 1 || n > maxRecordLen || int64(len(data))-off-8 < int64(n) {
		return frame{}, false
	}
	body := data[off+4 : off+4+int64(n)]
	want := binary.BigEndian.Uint32(data[off+4+int64(n):])
	if crc32.Checksum(body, crcTable) != want {
		return frame{}, false
	}
	return frame{typ: body[0], payload: body[1:], end: off + 8 + int64(n)}, true
}

// scan walks the log front to back. The header must parse and match —
// those failures are hard errors (ErrCorruptStore / ErrStoreVersion /
// ErrStoreMismatch) — while any later framing, CRC, or decode failure
// ends the scan: the valid prefix up to the last fully recovered epoch
// (or halt record) is returned along with its byte length for
// truncation.
func scan(data []byte, fingerprint [32]byte) (*Recovery, int64, error) {
	return scanLog(data, fingerprint, nil)
}

// scanLog is scan that also seeds a writer's fold, when seed is non-nil,
// with views into data of everything it recovers.
func scanLog(data []byte, fingerprint [32]byte, seed *fold) (*Recovery, int64, error) {
	hdr, ok := nextFrame(data, 0)
	if !ok || hdr.typ != recHeader || len(hdr.payload) < 2 {
		return nil, 0, fmt.Errorf("%w: unreadable header", chain.ErrCorruptStore)
	}
	// Version is checked before the payload shape: an older or newer
	// store must report ErrStoreVersion, not masquerade as corruption.
	version := binary.BigEndian.Uint16(hdr.payload)
	if version < minFormatVersion || version > FormatVersion {
		return nil, 0, fmt.Errorf("%w: store version %d, this binary reads %d to %d",
			chain.ErrStoreVersion, version, minFormatVersion, FormatVersion)
	}
	if len(hdr.payload) != 35 {
		return nil, 0, fmt.Errorf("%w: unreadable header", chain.ErrCorruptStore)
	}
	var got [32]byte
	copy(got[:], hdr.payload[2:34])
	if got != fingerprint {
		return nil, 0, fmt.Errorf("%w: fingerprint %x, config derives %x",
			chain.ErrStoreMismatch, got[:8], fingerprint[:8])
	}
	flags := hdr.payload[34]

	rec := &Recovery{version: version}
	validLen := hdr.end
	off := hdr.end

	// A flagged checkpoint is load-bearing: every record it compacted
	// away is gone, so there is no earlier boundary to roll back to, and
	// the rename that published it was atomic with the checkpoint
	// already fsynced — damage here is corruption, never a torn crash.
	if flags&headerFlagCheckpoint != 0 {
		fr, ok := nextFrame(data, off)
		if !ok || fr.typ != recCheckpoint {
			return nil, 0, fmt.Errorf("%w: header promises a checkpoint but none parses",
				chain.ErrCorruptStore)
		}
		cp, err := readCheckpoint(fr.payload, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint: %w", err)
		}
		rec.Checkpoint = cp
		off = fr.end
		validLen = fr.end
	}

	var pending *EpochRecord
	var pendingFrame frame
	for {
		fr, ok := nextFrame(data, off)
		if !ok {
			break // torn tail (or clean EOF): roll back to validLen
		}
		off = fr.end
		switch fr.typ {
		case recSnapshot:
			snap, err := decodeSnapshot(fr.payload)
			if err != nil {
				return rec, validLen, nil // undecodable tail: roll back
			}
			if snap.Epoch != rec.Epoch()+1 {
				return rec, validLen, nil // out-of-order tail: roll back
			}
			pending, pendingFrame = snap, fr
		case recSyncPartsV2, recSyncParts:
			if fr.typ == recSyncParts && version < 3 {
				return rec, validLen, nil // a record its header does not know
			}
			epoch, parts, err := decodeSyncParts(fr.typ, fr.payload)
			if err != nil || pending == nil || epoch != pending.Epoch {
				return rec, validLen, nil
			}
			if seed != nil {
				tr, err := epochRecord(pendingFrame.framed(data), fr.framed(data))
				if err != nil {
					return rec, validLen, nil
				}
				seed.tail = append(seed.tail, tr)
			}
			pending.Parts = parts
			rec.Epochs = append(rec.Epochs, pending)
			rec.Boundaries = append(rec.Boundaries, fr.end)
			pending = nil
			validLen = fr.end
		case recHalt:
			d := binenc.NewCursor(fr.payload)
			h := &HaltRecord{Epoch: d.U64(), Reason: d.Str()}
			if d.Err() != nil {
				return rec, validLen, nil
			}
			rec.Halt = h
			validLen = fr.end
			if seed != nil {
				seed.tail = append(seed.tail, tailRecord{recs: [2]framed{fr.framed(data)}})
			}
		default:
			return rec, validLen, nil // unknown record from the future: stop
		}
	}
	return rec, validLen, nil
}
