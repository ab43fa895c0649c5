package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"ammboost/internal/u256"
)

// record is one value of every kind the cursor reads, in a fixed layout.
type record struct {
	tag   byte
	count uint32
	seq   uint64
	name  string
	blob  []byte
	value u256.Int
}

func (r record) encode() []byte {
	buf := []byte{r.tag}
	buf = binary.BigEndian.AppendUint32(buf, r.count)
	buf = binary.BigEndian.AppendUint64(buf, r.seq)
	buf = AppendString(buf, r.name)
	buf = AppendString(buf, string(r.blob))
	return AppendU256(buf, r.value)
}

func decodeRecord(buf []byte) (record, *Cursor) {
	d := NewCursor(buf)
	r := record{
		tag:   d.U8(),
		count: d.U32(),
		seq:   d.U64(),
		name:  d.Str(),
		blob:  d.Bytes(),
		value: d.U256(),
	}
	return r, d
}

func sampleRecord() record {
	return record{
		tag: 0xa5, count: 0xdeadbeef, seq: 1<<63 | 7,
		name: "pool-0007", blob: []byte{0, 1, 2, 0xff},
		value: u256.Sub(u256.Max, u256.FromUint64(0x1234)), // every limb set
	}
}

func TestRoundTrip(t *testing.T) {
	for _, want := range []record{sampleRecord(), {blob: []byte{}}} {
		buf := want.encode()
		got, d := decodeRecord(buf)
		if err := d.Err(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.tag != want.tag || got.count != want.count || got.seq != want.seq ||
			got.name != want.name || !bytes.Equal(got.blob, want.blob) || !got.value.Eq(want.value) {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
		if d.Remaining() != 0 || d.Offset() != len(buf) {
			t.Errorf("consumed %d of %d bytes, %d remaining", d.Offset(), len(buf), d.Remaining())
		}
	}
}

// TestEveryPrefixTruncates cuts a valid encoding at every length short of
// the whole: each prefix must fail with ErrTruncated, never decode.
func TestEveryPrefixTruncates(t *testing.T) {
	buf := sampleRecord().encode()
	for n := 0; n < len(buf); n++ {
		if _, d := decodeRecord(buf[:n]); !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTruncated", n, len(buf), d.Err())
		}
	}
}

// TestErrorLatches pins the cursor's linear-decoder contract: the first
// overrun latches, and every later read returns zero values even when
// the bytes it asks for are present.
func TestErrorLatches(t *testing.T) {
	d := NewCursor([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if got := d.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", got)
	}
	if d.U32() != 0 || d.Err() == nil {
		t.Fatalf("U32 past the end: err = %v, want a latched failure", d.Err())
	}
	first := d.Err()
	if d.U8() != 0 || d.Take(0) != nil || d.Str() != "" || d.Bytes() != nil || !d.U256().IsZero() {
		t.Error("reads after a failure must return zero values")
	}
	if d.Err() != first {
		t.Errorf("latched error changed: %v, then %v", first, d.Err())
	}
	if d.Offset() != 8 {
		t.Errorf("offset moved after the failure: %d, want 8", d.Offset())
	}

	f := NewCursor([]byte{1})
	f.Fail("bad tag %d", 9)
	if !errors.Is(f.Err(), ErrTruncated) || f.U8() != 0 {
		t.Errorf("Fail: err = %v, want a latched ErrTruncated", f.Err())
	}
}

// TestHugeLengthPrefixDoesNotAllocate hands the cursor a length prefix
// of 4 GiB over a 4-byte body: the read must fail on the bounds check,
// not allocate a buffer the payload never promised.
func TestHugeLengthPrefixDoesNotAllocate(t *testing.T) {
	buf := binary.BigEndian.AppendUint32(nil, 0xffffffff)
	buf = append(buf, "tiny"...)
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		for _, read := range []func(*Cursor) bool{
			func(d *Cursor) bool { return d.Bytes() == nil },
			func(d *Cursor) bool { return d.Str() == "" },
		} {
			d := NewCursor(buf)
			if !read(d) || !errors.Is(d.Err(), ErrTruncated) {
				t.Fatalf("oversized prefix: err = %v, want ErrTruncated", d.Err())
			}
		}
	}
	runtime.ReadMemStats(&after)
	// The failure path allocates only its error value; a buffer sized by
	// the prefix would be gigabytes.
	if perRead := (after.TotalAlloc - before.TotalAlloc) / (2 * runs); perRead > 1<<10 {
		t.Errorf("oversized prefix allocated %d bytes per read, want < 1 KiB", perRead)
	}
}

// FuzzCursor decodes arbitrary bytes as a record: the decode either
// succeeds and re-encodes to exactly the bytes it consumed, or fails
// with ErrTruncated. It never panics.
func FuzzCursor(f *testing.F) {
	full := sampleRecord().encode()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(record{}.encode())
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(make([]byte, 13), 0xffffffff))
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, d := decodeRecord(buf)
		if err := d.Err(); err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if re := got.encode(); !bytes.Equal(re, buf[:d.Offset()]) {
			t.Fatalf("re-encoding %x differs from consumed bytes %x", re, buf[:d.Offset()])
		}
	})
}
