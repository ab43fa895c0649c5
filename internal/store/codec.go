package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"ammboost/internal/amm"
	"ammboost/internal/binenc"
	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/mainchain"
	"ammboost/internal/summary"
)

// ReceiptRecord is one persisted receipt-table row. Rows are written at
// epoch retirement, when the receipt has just advanced to Checkpointed;
// later stages (Synced, Pruned) are re-derived at recovery from the
// replayed sync-part log rather than persisted, so the hot path writes
// each receipt exactly once.
type ReceiptRecord struct {
	TxID   string
	PoolID string
	Status uint8
	Epoch  uint64
	Round  uint64
	// Virtual-time stamps in nanoseconds (zero = stage not reached).
	SubmittedAt    int64
	ExecutedAt     int64
	CheckpointedAt int64
}

// RunMeta carries the run counters snapshot alongside each epoch so a
// recovered node's report continues from sensible totals.
type RunMeta struct {
	Rejected       uint64
	SyncsOK        uint64
	ViewChanges    uint64
	QueuePeak      uint64
	EngineAccepted uint64
	EngineRejected uint64
}

// EpochRow is one persisted epoch's root-table row — what a snapshot
// record and a checkpoint entry both carry for their epoch, and all a
// recovered node keeps of an epoch behind its boundary.
type EpochRow struct {
	Epoch       uint64
	SummaryRoot [32]byte
	// PayloadDigests are the per-pool sync payload digests in canonical
	// pool order.
	PayloadDigests [][32]byte
	Receipts       []ReceiptRecord
}

// EpochRecord is one recovered tail epoch: its root-table row, the rest
// of its snapshot record, and the sync-part record logged after it.
type EpochRecord struct {
	EpochRow
	// PoolIDs / PoolRoots cover every registered pool in canonical order.
	PoolIDs   []string
	PoolRoots [][32]byte
	// Pools holds the full state of the pools touched during this epoch
	// (untouched pools carry forward from earlier records or genesis).
	Pools map[string]*amm.Pool
	Meta  RunMeta
	// Parts is the epoch's TSQC-signed mainchain sync-part log entry.
	Parts []*mainchain.MultiSyncArgs
}

// EncodeSnapshotPrefix builds the snapshot record payload up to (but not
// including) the receipt table: epoch identity, the folded summary root,
// every pool's root and payload digest, and the full state of the pools
// touched this epoch. It runs on the node's commit lane, off the
// simulator goroutine, so the lifecycle only appends the receipt suffix.
// The buffer is allocated once, with room for suffixLen more bytes:
// ReceiptsAndMetaLen of the rows AppendReceiptRows will add completes the
// record in place.
func EncodeSnapshotPrefix(epoch uint64, summaryRoot [32]byte, poolIDs []string,
	poolRoots, payloadDigests [][32]byte, activeIDs []string, active []*amm.Pool, suffixLen int) []byte {
	size := 8 + 32 + 4 + poolsLen(activeIDs, active) + suffixLen
	for _, id := range poolIDs {
		size += 4 + len(id) + 64
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = append(buf, summaryRoot[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(poolIDs)))
	for i, id := range poolIDs {
		buf = binenc.AppendString(buf, id)
		buf = append(buf, poolRoots[i][:]...)
		buf = append(buf, payloadDigests[i][:]...)
	}
	return appendPools(buf, activeIDs, active)
}

// AppendReceiptRows completes a snapshot payload started by
// EncodeSnapshotPrefix with the epoch's receipt table, rows row(0) to
// row(n-1) encoded as row returns them, and the run counters: a caller
// encodes its own receipt ledger with no copy in between.
func AppendReceiptRows(buf []byte, n int, row func(i int) ReceiptRecord, meta RunMeta) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for i := range n {
		r := row(i)
		buf = binenc.AppendString(buf, r.TxID)
		buf = binenc.AppendString(buf, r.PoolID)
		buf = append(buf, r.Status)
		buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
		buf = binary.BigEndian.AppendUint64(buf, r.Round)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.SubmittedAt))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.ExecutedAt))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.CheckpointedAt))
	}
	return appendMeta(buf, meta)
}

// receiptRowLen is a receipt row's encoded length besides its TxID and
// PoolID bytes: their two length prefixes, the status and five u64s.
const receiptRowLen = 4 + 4 + 1 + 5*8

// metaLen is RunMeta's encoded length: six u64 counters.
const metaLen = 6 * 8

// ReceiptsAndMetaLen is the exact length AppendReceiptRows adds for n
// receipt rows whose TxIDs and PoolIDs total idBytes bytes.
func ReceiptsAndMetaLen(n, idBytes int) int {
	return 4 + n*receiptRowLen + idBytes + metaLen
}

func decodeSnapshot(payload []byte) (*EpochRecord, error) {
	d := binenc.NewCursor(payload)
	rec := &EpochRecord{EpochRow: EpochRow{Epoch: d.U64()}}
	d.Read(rec.SummaryRoot[:])
	n := readCount(d, 68, "snapshot pool")
	rec.PoolIDs = make([]string, 0, n)
	rec.PoolRoots = make([][32]byte, n)
	rec.PayloadDigests = make([][32]byte, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		rec.PoolIDs = append(rec.PoolIDs, d.Str())
		d.Read(rec.PoolRoots[i][:])
		d.Read(rec.PayloadDigests[i][:])
	}
	rec.Pools = readPools(d)
	rec.Receipts = readReceipts(d)
	rec.Meta = readMeta(d)
	if err := finish(d, "snapshot"); err != nil {
		return nil, err
	}
	return rec, nil
}

func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	return readCheckpoint(payload, nil)
}

// readCheckpoint decodes a checkpoint payload. A non-nil seed takes the
// payload's root-table rows and pool-set entries as views, and its
// cursor: the fold a writer over this checkpoint starts from.
func readCheckpoint(payload []byte, seed *fold) (*Checkpoint, error) {
	d := binenc.NewCursor(payload)
	cp := &Checkpoint{
		Cursor:      d.U64(),
		Horizon:     d.U64(),
		CursorParts: int(d.U32()),
	}
	if bank := d.Bytes(); len(bank) > 0 {
		cp.Bank = append([]byte(nil), bank...)
	}
	cp.Meta = readMeta(d)
	n := readCount(d, 48, "checkpoint entry")
	cp.Entries = make([]EpochRow, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		start := d.Offset()
		row := EpochRow{Epoch: d.U64()}
		d.Read(row.SummaryRoot[:])
		row.PayloadDigests = make([][32]byte, readCount(d, 32, "checkpoint digest"))
		for j := range row.PayloadDigests {
			d.Read(row.PayloadDigests[j][:])
		}
		row.Receipts = readReceipts(d)
		cp.Entries = append(cp.Entries, row)
		if seed != nil {
			seed.rows = append(seed.rows, payload[start:d.Offset():d.Offset()])
		}
	}
	n = readCount(d, 36, "checkpoint root")
	cp.PoolIDs = make([]string, 0, n)
	cp.PoolRoots = make([][32]byte, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		cp.PoolIDs = append(cp.PoolIDs, d.Str())
		d.Read(cp.PoolRoots[i][:])
	}
	poolsAt := d.Offset()
	cp.Pools = readPools(d)
	if err := finish(d, "checkpoint"); err != nil {
		return nil, err
	}
	if seed != nil {
		seed.cursor = cp.Cursor
		eachPool(payload[poolsAt:], func(id, entry []byte) { seed.pools[string(id)] = entry })
		seed.ids = slices.Sorted(maps.Keys(seed.pools))
	}
	return cp, nil
}

func readReceipts(d *binenc.Cursor) []ReceiptRecord {
	n := readCount(d, 41, "receipt")
	recs := make([]ReceiptRecord, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		recs = append(recs, ReceiptRecord{
			TxID:           d.Str(),
			PoolID:         d.Str(),
			Status:         d.U8(),
			Epoch:          d.U64(),
			Round:          d.U64(),
			SubmittedAt:    int64(d.U64()),
			ExecutedAt:     int64(d.U64()),
			CheckpointedAt: int64(d.U64()),
		})
	}
	return recs
}

func appendMeta(buf []byte, meta RunMeta) []byte {
	for _, v := range [...]uint64{meta.Rejected, meta.SyncsOK, meta.ViewChanges,
		meta.QueuePeak, meta.EngineAccepted, meta.EngineRejected} {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf
}

func readMeta(d *binenc.Cursor) RunMeta {
	return RunMeta{
		Rejected:       d.U64(),
		SyncsOK:        d.U64(),
		ViewChanges:    d.U64(),
		QueuePeak:      d.U64(),
		EngineAccepted: d.U64(),
		EngineRejected: d.U64(),
	}
}

// appendPools writes a pool set: a count, then each pool's ID and its
// length-prefixed state. ids must be strictly increasing.
func appendPools(buf []byte, ids []string, pools []*amm.Pool) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		buf = binenc.AppendString(buf, id)
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length placeholder
		buf = amm.AppendPool(buf, pools[i])
		binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	}
	return buf
}

// poolsLen is the exact length appendPools adds for the pool set.
func poolsLen(ids []string, pools []*amm.Pool) int {
	n := 4
	for i, id := range ids {
		n += 4 + len(id) + 4 + amm.EncodedPoolLen(pools[i])
	}
	return n
}

// readPools reads a pool set, rejecting IDs that are not strictly
// increasing: every writer emits canonical (sorted) order, so anything
// else — a duplicate ID included — is corruption, not last-wins.
func readPools(d *binenc.Cursor) map[string]*amm.Pool {
	n := readCount(d, 8, "pool")
	pools := make(map[string]*amm.Pool, n)
	prev := ""
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.Str()
		blob := d.Bytes()
		if d.Err() != nil {
			break
		}
		if i > 0 && id <= prev {
			d.Fail("pool %q follows %q", id, prev)
			break
		}
		pool, used, err := amm.DecodePool(blob)
		if err == nil && used != len(blob) {
			err = fmt.Errorf("%d trailing bytes", len(blob)-used)
		}
		if err != nil {
			d.Fail("pool %s: %v", id, err)
			break
		}
		pools[id] = pool
		prev = id
	}
	return pools
}

// readCount reads an element count and fails the cursor when fewer than
// minSize bytes per element remain, so a corrupt count cannot drive a
// huge allocation.
func readCount(d *binenc.Cursor, minSize int, what string) int {
	n := int(d.U32())
	if d.Err() == nil && n > d.Remaining()/minSize {
		d.Fail("%s count %d", what, n)
	}
	if d.Err() != nil {
		return 0
	}
	return n
}

// finish ends a record decode: a failure latched on the cursor, or
// bytes left after the record, is store corruption.
func finish(d *binenc.Cursor, record string) error {
	if d.Err() != nil {
		return fmt.Errorf("%w: %s: %v", chain.ErrCorruptStore, record, d.Err())
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing %s bytes", chain.ErrCorruptStore, d.Remaining(), record)
	}
	return nil
}

// EncodeSyncParts builds the sync-part log record payload for one epoch:
// every mainchain sync chunk with the epoch's TSQC signature and its
// inclusion proof, bit-exact, so recovery can replay them through the
// bank's verification path.
func EncodeSyncParts(epoch uint64, parts []*mainchain.MultiSyncArgs) []byte {
	size := 8 + 4
	for _, a := range parts {
		size += 4 + 4 + 32 + 64 + 64 + 4 + 4 + 4 + 32*len(a.Proof) + 4
		for _, p := range a.Payloads {
			size += syncPayloadLen(p)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(parts)))
	for _, a := range parts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.Part))
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.NumParts))
		buf = append(buf, a.SummaryRoot[:]...)
		buf = append(buf, a.Sig.Bytes()...)
		buf = append(buf, a.NextKey.PK.Bytes()...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.NextKey.Threshold))
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.NextKey.N))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Proof)))
		for _, h := range a.Proof {
			buf = append(buf, h[:]...)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Payloads)))
		for _, p := range a.Payloads {
			buf = appendSyncPayload(buf, p)
		}
	}
	return buf
}

// syncPayloadLen is the exact length appendSyncPayload adds for p.
func syncPayloadLen(p *summary.SyncPayload) int {
	n := 8 + 4 + len(p.PoolID) + 32 + 32 + 4 + len(p.NextGroupKey) + 4 + 4
	for _, e := range p.Payouts {
		n += 4 + len(e.User) + 64
	}
	for _, e := range p.Positions {
		n += 4 + len(e.ID) + 4 + len(e.Owner) + 4 + 4 + 3*32 + 1
	}
	return n
}

func appendSyncPayload(buf []byte, p *summary.SyncPayload) []byte {
	buf = binary.BigEndian.AppendUint64(buf, p.Epoch)
	buf = binenc.AppendString(buf, p.PoolID)
	buf = binenc.AppendU256(buf, p.PoolReserve0)
	buf = binenc.AppendU256(buf, p.PoolReserve1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.NextGroupKey)))
	buf = append(buf, p.NextGroupKey...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Payouts)))
	for _, e := range p.Payouts {
		buf = binenc.AppendString(buf, e.User)
		buf = binenc.AppendU256(buf, e.Amount0)
		buf = binenc.AppendU256(buf, e.Amount1)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Positions)))
	for _, e := range p.Positions {
		buf = binenc.AppendString(buf, e.ID)
		buf = binenc.AppendString(buf, e.Owner)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.TickLower))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.TickUpper))
		buf = binenc.AppendU256(buf, e.Liquidity)
		buf = binenc.AppendU256(buf, e.Fees0)
		buf = binenc.AppendU256(buf, e.Fees1)
		if e.Deleted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// decodeSyncParts reads a sync-part record of either format: typ
// recSyncParts carries each part's proof; a recSyncPartsV2 record has
// none, and its parts come back marked V2.
func decodeSyncParts(typ byte, payload []byte) (uint64, []*mainchain.MultiSyncArgs, error) {
	d := binenc.NewCursor(payload)
	epoch := d.U64()
	n := readCount(d, 140, "sync part")
	parts := make([]*mainchain.MultiSyncArgs, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		a := &mainchain.MultiSyncArgs{
			Part:     int(d.U32()),
			NumParts: int(d.U32()),
			Epoch:    epoch,
		}
		d.Read(a.SummaryRoot[:])
		a.Sig = readPoint(d)
		a.NextKey.PK = readPoint(d)
		a.NextKey.Threshold = int(d.U32())
		a.NextKey.N = int(d.U32())
		if typ == recSyncPartsV2 {
			a.V2 = true
		} else {
			a.Proof = make([][32]byte, readCount(d, 32, "proof hash"))
			for j := range a.Proof {
				d.Read(a.Proof[j][:])
			}
		}
		np := readCount(d, 76, "payload")
		a.Payloads = make([]*summary.SyncPayload, 0, np)
		for j := 0; j < np && d.Err() == nil; j++ {
			a.Payloads = append(a.Payloads, readSyncPayload(d))
		}
		parts = append(parts, a)
	}
	if err := finish(d, "sync-part"); err != nil {
		return 0, nil, err
	}
	return epoch, parts, nil
}

func readSyncPayload(d *binenc.Cursor) *summary.SyncPayload {
	p := &summary.SyncPayload{
		Epoch:        d.U64(),
		PoolID:       d.Str(),
		PoolReserve0: d.U256(),
		PoolReserve1: d.U256(),
	}
	if key := d.Bytes(); len(key) > 0 {
		p.NextGroupKey = append([]byte(nil), key...)
	}
	nPay := readCount(d, 68, "payout")
	for i := 0; i < nPay && d.Err() == nil; i++ {
		p.Payouts = append(p.Payouts, summary.PayoutEntry{
			User:    d.Str(),
			Amount0: d.U256(),
			Amount1: d.U256(),
		})
	}
	nPos := readCount(d, 113, "position")
	for i := 0; i < nPos && d.Err() == nil; i++ {
		e := summary.PositionEntry{
			ID:        d.Str(),
			Owner:     d.Str(),
			TickLower: int32(d.U32()),
			TickUpper: int32(d.U32()),
			Liquidity: d.U256(),
			Fees0:     d.U256(),
			Fees1:     d.U256(),
		}
		switch deleted := d.U8(); deleted {
		case 0:
		case 1:
			e.Deleted = true
		default:
			d.Fail("position %s deleted flag %d", e.ID, deleted)
		}
		p.Positions = append(p.Positions, e)
	}
	return p
}

// readPoint decodes a 64-byte curve point, latching an invalid one as a
// decode failure.
func readPoint(d *binenc.Cursor) tsig.Point {
	b := d.Take(64)
	if b == nil {
		return tsig.Point{}
	}
	p, err := tsig.PointFromBytes(b)
	if err != nil {
		d.Fail("curve point: %v", err)
	}
	return p
}
