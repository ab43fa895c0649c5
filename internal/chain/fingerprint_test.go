package chain

import (
	"regexp"
	"testing"
)

// TestFingerprintDiff pins Diff's contract: nil exactly when two runs are
// identical, symmetric over every epoch and receipt either side has, and
// otherwise naming the lowest differing epoch (then the first differing
// receipt) and what differs there.
func TestFingerprintDiff(t *testing.T) {
	base := func() Fingerprint {
		return Fingerprint{
			Epochs: map[uint64]EpochPrint{
				1: {Root: [32]byte{1}, Payloads: [][32]byte{{0x11}, {0x12}}},
				2: {Root: [32]byte{2}, Payloads: [][32]byte{{0x21}, {0x22}}},
				3: {Root: [32]byte{3}, Payloads: [][32]byte{{0x31}}},
			},
			Receipts: []ReceiptOutcome{
				{TxID: "tx-a", Status: StatusPruned, Epoch: 1, Round: 2},
				{TxID: "tx-b", Status: StatusRejected, Epoch: 2, Round: 1},
			},
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Fingerprint)
		want   string // regexp both directions' errors match; "" = identical
	}{
		{"identical", func(*Fingerprint) {}, ""},
		{"extra epoch", func(f *Fingerprint) { f.Epochs[4] = EpochPrint{Root: [32]byte{4}} },
			`^runs differ at epoch 4: only the (first|second) run has it$`},
		{"missing epoch", func(f *Fingerprint) { delete(f.Epochs, 2) },
			`^runs differ at epoch 2: only the (first|second) run has it$`},
		{"root", func(f *Fingerprint) {
			ep := f.Epochs[2]
			ep.Root[31] = 0xff
			f.Epochs[2] = ep
		}, `^runs differ at epoch 2: summary root `},
		{"payload count", func(f *Fingerprint) {
			ep := f.Epochs[3]
			ep.Payloads = append(ep.Payloads, [32]byte{0x32})
			f.Epochs[3] = ep
		}, `^runs differ at epoch 3: [12] vs [12] payloads$`},
		{"payload i", func(f *Fingerprint) { f.Epochs[2].Payloads[1][5] = 0xff },
			`^runs differ at epoch 2: payload 1 digest `},
		{"missing receipt", func(f *Fingerprint) { f.Receipts = f.Receipts[:1] },
			`^runs differ at receipt 1 \(tx-b\): only the (first|second) run has it$`},
		{"extra receipt", func(f *Fingerprint) { f.Receipts = append(f.Receipts, ReceiptOutcome{TxID: "tx-c"}) },
			`^runs differ at receipt 2 \(tx-c\): only the (first|second) run has it$`},
		{"different receipt", func(f *Fingerprint) { f.Receipts[0].Round = 3 },
			`^runs differ at receipt 0 \(tx-a\): `},
		{"lower epoch reported first", func(f *Fingerprint) {
			f.Epochs[3].Payloads[0][0] = 0xee
			ep := f.Epochs[1]
			ep.Root[0] = 0xee
			f.Epochs[1] = ep
			f.Receipts[0].Status = StatusSynced
		}, `^runs differ at epoch 1: summary root `},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := base(), base()
			tc.mutate(&b)
			for _, err := range []error{a.Diff(b), b.Diff(a)} {
				switch {
				case tc.want == "" && err != nil:
					t.Errorf("Diff = %v, want nil", err)
				case tc.want != "" && err == nil:
					t.Errorf("Diff = nil, want %q", tc.want)
				case tc.want != "" && !regexp.MustCompile(tc.want).MatchString(err.Error()):
					t.Errorf("Diff = %q, want %q", err, tc.want)
				}
			}
		})
	}
}
