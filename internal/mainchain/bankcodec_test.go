package mainchain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// syncedBankFixture is a fixture whose bank has fully applied two
// three-part epochs, and that bank's EncodeState.
func syncedBankFixture(t testing.TB) (*multiBankFixture, []byte) {
	t.Helper()
	f := newMultiBankFixture(t, 2)
	for e := uint64(1); e <= 2; e++ {
		for i := 1; i <= 3; i++ {
			if err := f.bank.ReplaySync(f.part(t, e, i, 3)); err != nil {
				t.Fatalf("epoch %d part %d: %v", e, i, err)
			}
		}
	}
	return f, f.bank.EncodeState()
}

// TestRestoreStateRefusals: every malformed blob is refused with
// ErrBadBankState — an unregistered pool also with ErrUnknownBankPool —
// and leaves the bank exactly as it was.
func TestRestoreStateRefusals(t *testing.T) {
	f, synced := syncedBankFixture(t)
	// The group-key table follows the two u64 horizons: a u32 count, then
	// per key an epoch and the 64-byte point.
	const keyCount, firstPoint = 16, 16 + 4 + 8
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), synced...))
	}
	foreign := NewMultiBank(append(append([]string(nil), f.pools...), "pool-9"), f.groups[1]).EncodeState()
	for _, tc := range []struct {
		name    string
		blob    []byte
		unknown bool
	}{
		{"empty", nil, false},
		{"truncated", synced[:len(synced)-1], false},
		{"trailing byte", append(append([]byte(nil), synced...), 0), false},
		{"key count", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[keyCount:], 1<<30)
			return b
		}), false},
		{"key point", mutate(func(b []byte) []byte {
			b[firstPoint+63] ^= 1
			return b
		}), false},
		{"unknown pool", foreign, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := f.bank.RestoreState(tc.blob)
			if !errors.Is(err, ErrBadBankState) {
				t.Fatalf("err = %v, want ErrBadBankState", err)
			}
			if tc.unknown != errors.Is(err, ErrUnknownBankPool) {
				t.Errorf("err = %v, want ErrUnknownBankPool: %t", err, tc.unknown)
			}
			if !bytes.Equal(f.bank.EncodeState(), synced) {
				t.Error("a refused restore changed the bank")
			}
		})
	}
}

// FuzzRestoreState: RestoreState either refuses a blob with
// ErrBadBankState and leaves the bank unchanged, or yields a bank whose
// EncodeState restores into a fresh bank over the same pools and
// re-encodes to the same bytes.
func FuzzRestoreState(f *testing.F) {
	fx, synced := syncedBankFixture(f)
	f.Add(synced)
	f.Add(NewMultiBank(fx.pools, fx.groups[1]).EncodeState())
	f.Add(synced[:len(synced)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewMultiBank(fx.pools, fx.groups[1])
		if err := b.RestoreState(synced); err != nil {
			t.Fatal(err)
		}
		if err := b.RestoreState(data); err != nil {
			if !errors.Is(err, ErrBadBankState) {
				t.Fatalf("untyped refusal: %v", err)
			}
			if !bytes.Equal(b.EncodeState(), synced) {
				t.Fatalf("refused restore (%v) changed the bank", err)
			}
			return
		}
		enc := b.EncodeState()
		fresh := NewMultiBank(fx.pools, fx.groups[1])
		if err := fresh.RestoreState(enc); err != nil {
			t.Fatalf("re-encoded state refused: %v", err)
		}
		if got := fresh.EncodeState(); !bytes.Equal(got, enc) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, got)
		}
	})
}
