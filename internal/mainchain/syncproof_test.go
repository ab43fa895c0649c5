package mainchain

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// hostileRig is a bank with epoch 1 synced and part 1 of epoch 2's three
// applied, plus every signed part of both epochs, so a hostile part of
// epoch 2 meets a bank mid-epoch.
type hostileRig struct {
	f            *multiBankFixture
	e1, e2       []*MultiSyncArgs
	state        []byte
	appliedParts uint64
}

func newHostileRig(t testing.TB) *hostileRig {
	t.Helper()
	r := &hostileRig{f: newMultiBankFixture(t, 2)}
	for e, parts := range map[uint64]*[]*MultiSyncArgs{1: &r.e1, 2: &r.e2} {
		for i := 1; i <= 3; i++ {
			*parts = append(*parts, r.f.unsigned(e, i, 3))
		}
		r.f.seal(t, e, *parts...)
	}
	for _, a := range append(append([]*MultiSyncArgs{}, r.e1...), r.e2[0]) {
		if err := r.f.bank.applySync(envWithGas(30_000_000), a); err != nil {
			t.Fatalf("epoch %d part %d: %v", a.Epoch, a.Part, err)
		}
	}
	r.state, r.appliedParts = r.f.bank.EncodeState(), r.f.bank.SyncStats().PartsApplied
	return r
}

// refuse executes a on-chain and checks it fails with one of want and
// leaves the bank as it was.
func (r *hostileRig) refuse(t *testing.T, name string, a *MultiSyncArgs, want ...error) {
	t.Helper()
	err := r.f.bank.applySync(envWithGas(30_000_000), a)
	typed := false
	for _, w := range want {
		typed = typed || errors.Is(err, w)
	}
	if !typed {
		t.Errorf("%s: err = %v, want one of %v", name, err, want)
	}
	if !bytes.Equal(r.f.bank.EncodeState(), r.state) || r.f.bank.SyncStats().PartsApplied != r.appliedParts {
		t.Fatalf("%s: the refused part changed the bank", name)
	}
}

// clone copies a part deeply enough that editing the copy's proof,
// payload list or key leaves the signed original alone.
func clone(a *MultiSyncArgs) *MultiSyncArgs {
	c := *a
	c.Proof = append([][32]byte(nil), a.Proof...)
	c.Payloads = append(c.Payloads[:0:0], a.Payloads...)
	return &c
}

// TestHostileSyncParts: a signed part whose proof is forged, too short or
// too long, that moved to another index, that travels under another
// epoch's signature and proof, or whose SummaryRoot, NumParts or NextKey
// was swapped after signing, is refused with a typed error and leaves
// the bank byte-identical; the untouched part then applies.
func TestHostileSyncParts(t *testing.T) {
	r := newHostileRig(t)
	good := r.e2[1]
	edit := func(fn func(*MultiSyncArgs)) *MultiSyncArgs {
		c := clone(good)
		fn(c)
		return c
	}
	verifies := r.f.bank.SyncStats().SigVerifies
	r.refuse(t, "forged proof hash", edit(func(a *MultiSyncArgs) { a.Proof[0][7] ^= 1 }), ErrBadSyncSignature)
	r.refuse(t, "short proof", edit(func(a *MultiSyncArgs) { a.Proof = a.Proof[:1] }), ErrBadSyncProof)
	r.refuse(t, "long proof", edit(func(a *MultiSyncArgs) { a.Proof = append(a.Proof, a.Proof[0]) }), ErrBadSyncProof)
	r.refuse(t, "moved to part 3", edit(func(a *MultiSyncArgs) { a.Part = 3 }), ErrBadSyncSignature)
	r.refuse(t, "moved past the end", edit(func(a *MultiSyncArgs) { a.Part = 4 }), ErrBadSyncPart)
	r.refuse(t, "part 3's proof", edit(func(a *MultiSyncArgs) { a.Proof = r.e2[2].Proof }), ErrBadSyncSignature)
	r.refuse(t, "under epoch 1's signature and proof", edit(func(a *MultiSyncArgs) {
		a.Sig, a.Proof = r.e1[1].Sig, r.e1[1].Proof
	}), ErrBadSyncSignature)
	r.refuse(t, "epoch 1's part replayed as epoch 2's", func() *MultiSyncArgs {
		c := clone(r.e1[1])
		c.Epoch = 2
		return c
	}(), ErrBadSyncSignature)
	r.refuse(t, "swapped SummaryRoot", edit(func(a *MultiSyncArgs) { a.SummaryRoot[31] ^= 1 }), ErrBadSyncSignature)
	r.refuse(t, "NumParts 4", edit(func(a *MultiSyncArgs) { a.NumParts = 4 }), ErrBadSyncSignature)
	r.refuse(t, "NumParts 2", edit(func(a *MultiSyncArgs) { a.NumParts = 2 }), ErrBadSyncProof)
	r.refuse(t, "NumParts 0", edit(func(a *MultiSyncArgs) { a.NumParts = 0 }), ErrBadSyncPart)
	r.refuse(t, "swapped NextKey", edit(func(a *MultiSyncArgs) { a.NextKey = r.f.groups[1] }), ErrBadSyncSignature)
	r.refuse(t, "swapped NextKey threshold", edit(func(a *MultiSyncArgs) { a.NextKey.Threshold-- }), ErrBadSyncSignature)
	r.refuse(t, "format-2 part on-chain", edit(func(a *MultiSyncArgs) { a.V2 = true }), ErrBadSyncPart)
	r.refuse(t, "replayed part 1", r.e2[0], ErrBadSyncPart)
	// One verification for each refused part that reached the check.
	if got := r.f.bank.SyncStats().SigVerifies - verifies; got != 10 {
		t.Errorf("%d signature verifications, want 10", got)
	}
	for _, a := range r.e2[1:] {
		if err := r.f.bank.applySync(envWithGas(30_000_000), a); err != nil {
			t.Fatalf("part %d after the hostile ones: %v", a.Part, err)
		}
	}
	if r.f.bank.LastSyncedEpoch != 2 {
		t.Errorf("epoch 2 did not complete")
	}
}

// TestSwappedNextKeyRejected: the next committee key is under the epoch's
// signature. A payload-free part (all a traffic-free epoch sends) whose
// NextKey was swapped after signing is refused, registers no key, and
// leaves the bank byte-identical.
func TestSwappedNextKeyRejected(t *testing.T) {
	f := newMultiBankFixture(t, 2)
	a := &MultiSyncArgs{Epoch: 1, Part: 1, NumParts: 1, SummaryRoot: [32]byte{0xee}, NextKey: f.groups[2]}
	f.seal(t, 1, a)
	before := f.bank.EncodeState()
	swapped := clone(a)
	swapped.NextKey = f.groups[1]
	if err := f.bank.applySync(envWithGas(30_000_000), swapped); !errors.Is(err, ErrBadSyncSignature) {
		t.Fatalf("swapped NextKey: err = %v, want ErrBadSyncSignature", err)
	}
	if _, ok := f.bank.groupKeys[2]; ok || !bytes.Equal(f.bank.EncodeState(), before) {
		t.Fatalf("refused part registered a key (%v) or changed the bank", ok)
	}
	if err := f.bank.applySync(envWithGas(30_000_000), a); err != nil {
		t.Fatalf("the signed part: %v", err)
	}
	if k, ok := f.bank.NextGroupKey(); !ok || !k.PK.Equal(f.groups[2].PK) {
		t.Errorf("registered next key %v, want epoch 2's committee", ok)
	}
}

// FuzzSyncProof mutates a signed part of a mid-epoch bank, byte by byte
// of the input: proof hashes (flipped, dropped, added), the part index,
// NumParts, the epoch, SummaryRoot, NextKey, the signature and the
// payloads. A part that is not exactly one of the epoch's unapplied
// signed parts is refused with a typed error and leaves the bank
// byte-identical.
func FuzzSyncProof(f *testing.F) {
	r := newHostileRig(f)
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{1})
	f.Add([]byte{2, 9})
	f.Add([]byte{3, 2, 9, 2})
	f.Add([]byte{4, 2})
	f.Add([]byte{8, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := clone(r.e2[1+int(at(data, 0)%2)])
		for i := 1; i+1 < len(data) && i < 16; i += 2 {
			op, v := data[i]%10, data[i+1]
			switch op {
			case 0:
				if len(a.Proof) > 0 {
					a.Proof[int(v)%len(a.Proof)][v%32] ^= 1 << (v % 8)
				}
			case 1:
				if len(a.Proof) > 0 {
					a.Proof = a.Proof[:len(a.Proof)-1]
				}
			case 2:
				a.Proof = append(a.Proof, [32]byte{v})
			case 3:
				a.Part = int(v%6) - 1
			case 4:
				a.NumParts = int(v % 6)
			case 5:
				a.Epoch = uint64(v % 4)
			case 6:
				a.SummaryRoot[v%32] ^= 1 << (v % 8)
			case 7:
				a.NextKey = r.f.groups[uint64(v%3)+1]
			case 8:
				a.Sig = []*MultiSyncArgs{r.e1[0], r.e2[0]}[v%2].Sig
			case 9:
				a.Payloads = r.e2[v%3].Payloads
			}
		}
		for _, ok := range r.e2[1:] {
			if reflect.DeepEqual(a, ok) {
				return // an unmodified signed part: applying it is correct
			}
		}
		r.refuse(t, "mutated part", a, ErrBadSyncProof, ErrBadSyncSignature, ErrBadSyncPart,
			ErrUnknownEpochKey, ErrNoSummaryRoot, ErrBadArgs)
	})
}

// at is data[i], or 0 past its end.
func at(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}
