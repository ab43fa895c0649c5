package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"sort"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/binenc"
	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
)

// goldenImage reads the pinned format-v2 store image (a checkpoint at
// epoch 3 plus tail epochs 4-5) and returns it with its header
// fingerprint.
func goldenImage(t testing.TB) ([]byte, [32]byte) {
	t.Helper()
	data, err := os.ReadFile("testdata/v2-compacted.store")
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
// writer does: prefix, then receipts and run counters, with the active
// pools in sorted-ID order.
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
		er.PayloadDigests, ids, pools)
	return AppendReceiptsAndMeta(prefix, er.Receipts, er.Meta)
}

// TestGoldenImageReencodes pins the codec against the committed image:
// every record the scan recovers re-encodes to its frame's payload byte
// for byte.
func TestGoldenImageReencodes(t *testing.T) {
	data, fp := goldenImage(t)
	rec, validLen, err := scan(data, fp)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != int64(len(data)) {
		t.Fatalf("scan kept %d of %d bytes", validLen, len(data))
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Cursor != 3 || rec.Epoch() != 5 {
		t.Fatalf("golden image recovered checkpoint %v, boundary %d; want cursor 3, boundary 5",
			rec.Checkpoint != nil, rec.Epoch())
	}
	frs := frames(t, data)
	if want := 2 + 2*len(rec.Epochs); len(frs) != want {
		t.Fatalf("image holds %d frames, want %d", len(frs), want)
	}
	check := func(name string, fr frame, typ byte, got []byte) {
		t.Helper()
		if fr.typ != typ {
			t.Fatalf("%s: frame type %d, want %d", name, fr.typ, typ)
		}
		if !bytes.Equal(got, fr.payload) {
			t.Errorf("%s: re-encoded payload (%d bytes) differs from the image's (%d bytes)",
				name, len(got), len(fr.payload))
		}
	}
	check("checkpoint", frs[1], recCheckpoint, encodeCheckpoint(rec.Checkpoint))
	for i, er := range rec.Epochs {
		check("snapshot", frs[2+2*i], recSnapshot, encodeSnapshot(er))
		check("sync parts", frs[3+2*i], recSyncParts, EncodeSyncParts(er.Epoch, er.Parts))
	}
}

// TestTruncatedRecordsAreCorrupt pins the decoders' error contract:
// every proper prefix of every record payload in the golden image fails
// its decoder with a typed ErrCorruptStore, never binenc's raw sentinel.
func TestTruncatedRecordsAreCorrupt(t *testing.T) {
	data, _ := goldenImage(t)
	decoders := map[byte]func([]byte) error{
		recCheckpoint: func(p []byte) error { _, err := decodeCheckpoint(p); return err },
		recSnapshot:   func(p []byte) error { _, err := decodeSnapshot(p); return err },
		recSyncParts:  func(p []byte) error { _, _, err := decodeSyncParts(p); return err },
	}
	for _, fr := range frames(t, data)[1:] {
		decode := decoders[fr.typ]
		if decode == nil {
			t.Fatalf("golden image holds an unexpected record type %d", fr.typ)
		}
		if err := decode(fr.payload); err != nil {
			t.Fatalf("record type %d: full payload: %v", fr.typ, err)
		}
		for n := 0; n < len(fr.payload); n++ {
			if err := decode(fr.payload[:n]); !errors.Is(err, chain.ErrCorruptStore) {
				t.Fatalf("record type %d: %d-byte prefix of %d: err = %v, want ErrCorruptStore",
					fr.typ, n, len(fr.payload), err)
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
	if _, _, err := decodeSyncParts(parts); err != nil {
		t.Fatal(err)
	}
	// The synthetic epoch's one position ends its payload, so its
	// Deleted byte is the record's last.
	bad := append([]byte(nil), parts...)
	bad[len(bad)-1] = 2
	if _, _, err := decodeSyncParts(bad); !errors.Is(err, chain.ErrCorruptStore) {
		t.Errorf("deleted flag 2: err = %v, want ErrCorruptStore", err)
	}
}

// payloadFreePartImage is the golden image with its last epoch's sync
// parts replaced by one part that carries no payloads, the record a
// traffic-free epoch logs.
func payloadFreePartImage(t testing.TB) []byte {
	golden, fp := goldenImage(t)
	rec, _, err := scan(golden, fp)
	if err != nil {
		t.Fatal(err)
	}
	last := rec.Epochs[len(rec.Epochs)-1]
	part := *last.Parts[0]
	part.Part, part.NumParts, part.Payloads = 1, 1, nil
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
	epoch, parts, err := decodeSyncParts(enc)
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

// encodeImage lays a recovery back out as a store image: header,
// checkpoint, each tail epoch's snapshot and sync-part records, then the
// halt record.
func encodeImage(fp [32]byte, rec *Recovery) []byte {
	var flags byte
	if rec.Checkpoint != nil {
		flags = headerFlagCheckpoint
	}
	img := frameRecord(recHeader, headerPayload(fp, flags))
	if rec.Checkpoint != nil {
		img = append(img, frameRecord(recCheckpoint, encodeCheckpoint(rec.Checkpoint))...)
	}
	for _, er := range rec.Epochs {
		img = append(img, frameRecord(recSnapshot, encodeSnapshot(er))...)
		img = append(img, frameRecord(recSyncParts, EncodeSyncParts(er.Epoch, er.Parts))...)
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
	golden, _ := goldenImage(f)
	f.Add(golden)
	f.Add(golden[:len(golden)-1000])
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
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
