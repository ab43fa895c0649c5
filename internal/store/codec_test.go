package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/binenc"
	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/mainchain"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// The pinned store images: each a checkpoint at epoch 3 plus tail
// epochs 4-5, written by format 2 (per-part signed sync records) and by
// format 3 (epochs signed once, multi-part, with proofs).
const (
	goldenV2 = "testdata/v2-compacted.store"
	goldenV3 = "testdata/v3-compacted.store"
)

// goldenImage reads a pinned store image and returns it with its header
// fingerprint.
func goldenImage(t testing.TB, name string) ([]byte, [32]byte) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data, headerFingerprint(data)
}

// headerFingerprint lifts the deployment fingerprint out of an image's
// header frame (zero when the image is too short to hold one).
func headerFingerprint(data []byte) [32]byte {
	var fp [32]byte
	if len(data) >= headerFrameLen {
		copy(fp[:], data[7:39])
	}
	return fp
}

// frames splits an image into its raw record frames, header included.
func frames(t testing.TB, data []byte) []frame {
	t.Helper()
	var out []frame
	for off := int64(0); off < int64(len(data)); {
		fr, ok := nextFrame(data, off)
		if !ok {
			t.Fatalf("unframed bytes at offset %d", off)
		}
		out = append(out, fr)
		off = fr.end
	}
	return out
}

// encodeSnapshot re-encodes a recovered snapshot record the way the
// writer does: prefix sized for the whole record, then receipts and run
// counters, with the active pools in sorted-ID order.
func encodeSnapshot(er *EpochRecord) []byte {
	ids := make([]string, 0, len(er.Pools))
	for id := range er.Pools {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pools := make([]*amm.Pool, len(ids))
	for i, id := range ids {
		pools[i] = er.Pools[id]
	}
	prefix := EncodeSnapshotPrefix(er.Epoch, er.SummaryRoot, er.PoolIDs, er.PoolRoots,
		er.PayloadDigests, ids, pools, receiptsAndMetaLen(er.Receipts))
	return AppendReceiptsAndMeta(prefix, er.Receipts, er.Meta)
}

// AppendReceiptsAndMeta is AppendReceiptRows over a slice of rows.
func AppendReceiptsAndMeta(buf []byte, recs []ReceiptRecord, meta RunMeta) []byte {
	return AppendReceiptRows(buf, len(recs), func(i int) ReceiptRecord { return recs[i] }, meta)
}

// appendReceipts writes a receipt table alone: a row count, then each row.
func appendReceipts(buf []byte, recs []ReceiptRecord) []byte {
	buf = AppendReceiptsAndMeta(buf, recs, RunMeta{})
	return buf[:len(buf)-metaLen]
}

// receiptsAndMetaLen is ReceiptsAndMetaLen of recs.
func receiptsAndMetaLen(recs []ReceiptRecord) int {
	ids := 0
	for _, r := range recs {
		ids += len(r.TxID) + len(r.PoolID)
	}
	return ReceiptsAndMetaLen(len(recs), ids)
}

// TestGoldenImageReencodes pins the codec against the committed images:
// every record the scan recovers re-encodes to its frame's payload byte
// for byte (a format-2 sync-part record through the test's v2 encoder),
// and the format-3 image holds multi-part epochs. Each epoch record the
// writer's encoders build fills its buffer exactly: one allocation, no
// growth.
func TestGoldenImageReencodes(t *testing.T) {
	for _, name := range []string{goldenV2, goldenV3} {
		data, fp := goldenImage(t, name)
		rec, validLen, err := scan(data, fp)
		if err != nil {
			t.Fatal(err)
		}
		if validLen != int64(len(data)) {
			t.Fatalf("%s: scan kept %d of %d bytes", name, validLen, len(data))
		}
		if rec.Checkpoint == nil || rec.Checkpoint.Cursor != 3 || rec.Epoch() != 5 {
			t.Fatalf("%s recovered checkpoint %v, boundary %d; want cursor 3, boundary 5",
				name, rec.Checkpoint != nil, rec.Epoch())
		}
		frs := frames(t, data)
		if want := 2 + 2*len(rec.Epochs); len(frs) != want {
			t.Fatalf("%s holds %d frames, want %d", name, len(frs), want)
		}
		check := func(what string, fr frame, typ byte, got []byte) {
			t.Helper()
			if fr.typ != typ {
				t.Fatalf("%s: %s: frame type %d, want %d", name, what, fr.typ, typ)
			}
			if !bytes.Equal(got, fr.payload) {
				t.Errorf("%s: %s: re-encoded payload (%d bytes) differs from the image's (%d bytes)",
					name, what, len(got), len(fr.payload))
			}
		}
		check("checkpoint", frs[1], recCheckpoint, encodeCheckpoint(rec.Checkpoint))
		multiPart := false
		for i, er := range rec.Epochs {
			snap := encodeSnapshot(er)
			check("snapshot", frs[2+2*i], recSnapshot, snap)
			typ, payload := syncRecord(er)
			check("sync parts", frs[3+2*i], typ, payload)
			multiPart = multiPart || len(er.Parts) > 1
			if len(snap) != cap(snap) {
				t.Errorf("%s: epoch %d snapshot record: %d bytes in a %d-byte buffer", name, er.Epoch, len(snap), cap(snap))
			}
			if typ == recSyncParts && len(payload) != cap(payload) {
				t.Errorf("%s: epoch %d sync-part record: %d bytes in a %d-byte buffer", name, er.Epoch, len(payload), cap(payload))
			}
		}
		if name == goldenV3 && !multiPart {
			t.Errorf("%s: no tail epoch synced in more than one part", name)
		}
	}
}

// syncRecord re-encodes an epoch's sync parts as the record type they
// were read from: format-2 parts through encodeSyncPartsV2, the rest
// through EncodeSyncParts.
func syncRecord(er *EpochRecord) (byte, []byte) {
	if len(er.Parts) > 0 && er.Parts[0].V2 {
		return recSyncPartsV2, encodeSyncPartsV2(er.Epoch, er.Parts)
	}
	return recSyncParts, EncodeSyncParts(er.Epoch, er.Parts)
}

// encodeSyncPartsV2 is the format-2 sync-part record encoder: the
// format-3 layout without the proofs. Nothing writes such records any
// more; tests build and re-encode them with it.
func encodeSyncPartsV2(epoch uint64, parts []*mainchain.MultiSyncArgs) []byte {
	buf := binary.BigEndian.AppendUint64(nil, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(parts)))
	for _, a := range parts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.Part))
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.NumParts))
		buf = append(buf, a.SummaryRoot[:]...)
		buf = append(buf, a.Sig.Bytes()...)
		buf = append(buf, a.NextKey.PK.Bytes()...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.NextKey.Threshold))
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.NextKey.N))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Payloads)))
		for _, p := range a.Payloads {
			buf = appendSyncPayload(buf, p)
		}
	}
	return buf
}

// TestTruncatedRecordsAreCorrupt pins the decoders' error contract:
// every proper prefix of every record payload in the golden images fails
// its decoder with a typed ErrCorruptStore, never binenc's raw sentinel.
func TestTruncatedRecordsAreCorrupt(t *testing.T) {
	sync := func(typ byte) func([]byte) error {
		return func(p []byte) error { _, _, err := decodeSyncParts(typ, p); return err }
	}
	decoders := map[byte]func([]byte) error{
		recCheckpoint:  func(p []byte) error { _, err := decodeCheckpoint(p); return err },
		recSnapshot:    func(p []byte) error { _, err := decodeSnapshot(p); return err },
		recSyncPartsV2: sync(recSyncPartsV2),
		recSyncParts:   sync(recSyncParts),
	}
	for _, name := range []string{goldenV2, goldenV3} {
		data, _ := goldenImage(t, name)
		for _, fr := range frames(t, data)[1:] {
			decode := decoders[fr.typ]
			if decode == nil {
				t.Fatalf("%s holds an unexpected record type %d", name, fr.typ)
			}
			if err := decode(fr.payload); err != nil {
				t.Fatalf("%s: record type %d: full payload: %v", name, fr.typ, err)
			}
			for n := 0; n < len(fr.payload); n++ {
				if err := decode(fr.payload[:n]); !errors.Is(err, chain.ErrCorruptStore) {
					t.Fatalf("%s: record type %d: %d-byte prefix of %d: err = %v, want ErrCorruptStore",
						name, fr.typ, n, len(fr.payload), err)
				}
			}
		}
	}
}

// TestPoolSetRejectsUnsortedIDs pins the pool-set rule: IDs must be
// strictly increasing, so a duplicate ID is corruption, not last-wins.
func TestPoolSetRejectsUnsortedIDs(t *testing.T) {
	p := testPool(t)
	for _, ids := range [][]string{{"pool-0001", "pool-0001"}, {"pool-0002", "pool-0001"}} {
		d := binenc.NewCursor(appendPools(nil, ids, []*amm.Pool{p, p}))
		readPools(d)
		if err := finish(d, "pool set"); !errors.Is(err, chain.ErrCorruptStore) {
			t.Errorf("pool set %v: err = %v, want ErrCorruptStore", ids, err)
		}
	}
	d := binenc.NewCursor(appendPools(nil, []string{"pool-0001", "pool-0002"}, []*amm.Pool{p, p}))
	pools := readPools(d)
	if err := finish(d, "pool set"); err != nil || len(pools) != 2 {
		t.Errorf("sorted pool set: %d pools, err %v", len(pools), err)
	}
}

// TestSyncPayloadRejectsBadDeletedFlag pins that a position's Deleted
// byte is 0 or 1 and nothing else.
func TestSyncPayloadRejectsBadDeletedFlag(t *testing.T) {
	_, parts := synthEpoch(t, 1, testPool(t))
	if _, _, err := decodeSyncParts(recSyncParts, parts); err != nil {
		t.Fatal(err)
	}
	// The synthetic epoch's one position ends its payload, so its
	// Deleted byte is the record's last.
	bad := append([]byte(nil), parts...)
	bad[len(bad)-1] = 2
	if _, _, err := decodeSyncParts(recSyncParts, bad); !errors.Is(err, chain.ErrCorruptStore) {
		t.Errorf("deleted flag 2: err = %v, want ErrCorruptStore", err)
	}
}

// payloadFreePartImage is the format-3 golden image with its last
// epoch's sync parts replaced by one part that carries no payloads, the
// record a traffic-free epoch logs.
func payloadFreePartImage(t testing.TB) []byte {
	golden, fp := goldenImage(t, goldenV3)
	rec, _, err := scan(golden, fp)
	if err != nil {
		t.Fatal(err)
	}
	last := rec.Epochs[len(rec.Epochs)-1]
	part := *last.Parts[0]
	part.Part, part.NumParts, part.Payloads, part.Proof = 1, 1, nil, [][32]byte{}
	last.Parts = []*mainchain.MultiSyncArgs{&part}
	return encodeImage(fp, rec)
}

// TestPayloadFreePartRoundTrips: a sync part with no payloads decodes to
// the same part, re-encodes to the same bytes, and scans back from an
// image.
func TestPayloadFreePartRoundTrips(t *testing.T) {
	img := payloadFreePartImage(t)
	rec, _, err := scan(img, headerFingerprint(img))
	if err != nil {
		t.Fatal(err)
	}
	last := rec.Epochs[len(rec.Epochs)-1]
	if len(last.Parts) != 1 || len(last.Parts[0].Payloads) != 0 || last.Parts[0].NumParts != 1 {
		t.Fatalf("scanned %d parts, want one with no payloads", len(last.Parts))
	}
	enc := EncodeSyncParts(last.Epoch, last.Parts)
	epoch, parts, err := decodeSyncParts(recSyncParts, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeSyncParts(epoch, parts); epoch != last.Epoch || !bytes.Equal(got, enc) {
		t.Errorf("payload-free part re-encodes to %d bytes at epoch %d, want %d at %d", len(got), epoch, len(enc), last.Epoch)
	}
	a, b := *parts[0], *last.Parts[0]
	a.Payloads, b.Payloads = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("decoded part %+v, want %+v", a, b)
	}
}

// encodeImage lays a recovery back out as a store image: a header of
// its format version, checkpoint, each tail epoch's snapshot and
// sync-part records, then the halt record.
func encodeImage(fp [32]byte, rec *Recovery) []byte {
	var flags byte
	if rec.Checkpoint != nil {
		flags = headerFlagCheckpoint
	}
	header := binary.BigEndian.AppendUint16(nil, rec.version)
	header = append(append(header, fp[:]...), flags)
	img := frameRecord(recHeader, header)
	if rec.Checkpoint != nil {
		img = append(img, frameRecord(recCheckpoint, encodeCheckpoint(rec.Checkpoint))...)
	}
	for _, er := range rec.Epochs {
		img = append(img, frameRecord(recSnapshot, encodeSnapshot(er))...)
		img = append(img, frameRecord(syncRecord(er))...)
	}
	if h := rec.Halt; h != nil {
		payload := binenc.AppendString(binary.BigEndian.AppendUint64(nil, h.Epoch), h.Reason)
		img = append(img, frameRecord(recHalt, payload)...)
	}
	return img
}

// reframe recomputes the CRC of every complete frame in data, so a
// mutated payload reaches its decoder instead of ending the scan at the
// checksum.
func reframe(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; len(out)-off >= 9; {
		n := int(binary.BigEndian.Uint32(out[off:]))
		if n < 1 || n > len(out)-off-8 {
			break
		}
		binary.BigEndian.PutUint32(out[off+4+n:], crc32.Checksum(out[off+4:off+4+n], crcTable))
		off += 8 + n
	}
	return out
}

// FuzzScan drives scan over mutated store images, both as given and
// with every frame's CRC repaired, under the image's own header
// fingerprint. A scan never panics, fails only with a typed store error,
// and a successful scan's records re-encode to an image that scans back
// to the same recovery (boundary offsets aside: the re-encoded image
// puts a halt record last).
func FuzzScan(f *testing.F) {
	for _, name := range []string{goldenV2, goldenV3} {
		golden, _ := goldenImage(f, name)
		f.Add(golden)
		f.Add(golden[:len(golden)-1000])
		flipped := append([]byte(nil), golden...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add(payloadFreePartImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp := headerFingerprint(data)
		for _, img := range [][]byte{data, reframe(data)} {
			rec, _, err := scan(img, fp)
			if err != nil {
				if !errors.Is(err, chain.ErrCorruptStore) && !errors.Is(err, chain.ErrStoreVersion) &&
					!errors.Is(err, chain.ErrStoreMismatch) {
					t.Fatalf("untyped scan error: %v", err)
				}
				continue
			}
			again, _, err := scan(encodeImage(fp, rec), fp)
			if err != nil {
				t.Fatalf("re-encoded image does not scan: %v", err)
			}
			if len(again.Boundaries) != len(rec.Boundaries) {
				t.Fatalf("re-encoded image recovers %d epochs, want %d", len(again.Boundaries), len(rec.Boundaries))
			}
			again.Boundaries, rec.Boundaries = nil, nil
			if !reflect.DeepEqual(again, rec) {
				t.Fatal("re-encoded image recovers a different store")
			}
		}
	})
}

// TestV2MultiPartRecordReplays: a hand-built format-2 record of a
// two-part epoch, each part signed on its own PartDigest, decodes to
// parts marked V2 that replay into a bank, completing the epoch; the
// same part executed on-chain is refused with ErrBadSyncPart.
func TestV2MultiPartRecordReplays(t *testing.T) {
	d, err := tsig.Deal(rand.New(rand.NewSource(5)), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	group := tsig.GroupKey{PK: d.Commitments[0], Threshold: 2, N: 3}
	parts := make([]*mainchain.MultiSyncArgs, 2)
	for i := range parts {
		a := &mainchain.MultiSyncArgs{Epoch: 1, Part: i + 1, NumParts: 2, SummaryRoot: [32]byte{0xaa}, NextKey: group,
			Payloads: []*summary.SyncPayload{{Epoch: 1, PoolID: fmt.Sprintf("pool-%d", i), PoolReserve0: u256.FromUint64(uint64(7 + i))}}}
		digest := a.PartDigest()
		partials := []tsig.PartialSig{tsig.PartialSign(d.Shares[0], digest[:]), tsig.PartialSign(d.Shares[1], digest[:])}
		if a.Sig, err = tsig.Combine(group, partials); err != nil {
			t.Fatal(err)
		}
		parts[i] = a
	}
	epoch, decoded, err := decodeSyncParts(recSyncPartsV2, encodeSyncPartsV2(1, parts))
	if err != nil || epoch != 1 || len(decoded) != 2 || !decoded[0].V2 || !decoded[1].V2 {
		t.Fatalf("decoded epoch %d, %d parts, err %v; want epoch 1, two V2 parts", epoch, len(decoded), err)
	}

	sm := sim.New()
	mc := mainchain.New(sm, mainchain.DefaultConfig())
	onChain := mainchain.NewMultiBank([]string{"pool-0", "pool-1"}, group)
	mc.Deploy(onChain)
	tx := &mainchain.Tx{ID: "v2", From: "sc", To: onChain.Name(), Method: "sync", Args: decoded[0], GasLimit: 5_000_000}
	mc.Submit(tx)
	sm.RunUntil(time.Minute)
	mc.Stop()
	if tx.Status != mainchain.TxFailed || !errors.Is(tx.Err, mainchain.ErrBadSyncPart) {
		t.Errorf("a V2 part on-chain: %v / %v, want refused with ErrBadSyncPart", tx.Status, tx.Err)
	}

	bank := mainchain.NewMultiBank([]string{"pool-0", "pool-1"}, group)
	for _, a := range decoded {
		if err := bank.ReplaySync(a); err != nil {
			t.Fatalf("replay part %d: %v", a.Part, err)
		}
	}
	if bank.LastSyncedEpoch != 1 || !bank.Reserves["pool-1"].Reserve0.Eq(u256.FromUint64(8)) {
		t.Errorf("after replay: synced to %d, pool-1 reserve %s", bank.LastSyncedEpoch, bank.Reserves["pool-1"].Reserve0)
	}
}

// TestFormat3RecordUnderV2Header: a format-3 sync-part record behind a
// format-2 header is a record that header cannot hold, so the scan stops
// before it, as at any record from the future.
func TestFormat3RecordUnderV2Header(t *testing.T) {
	golden, fp := goldenImage(t, goldenV3)
	rec, _, err := scan(golden, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.version = 2
	got, _, err := scan(encodeImage(fp, rec), fp)
	if err != nil || got.Epoch() != 3 || len(got.Epochs) != 0 {
		t.Fatalf("scan under a v2 header: boundary %d with %d tail epochs, err %v; want the checkpoint's 3 alone",
			got.Epoch(), len(got.Epochs), err)
	}
}
