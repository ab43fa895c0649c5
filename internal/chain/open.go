package chain

import (
	"errors"
	"fmt"
	"slices"
)

// Durable-store errors surfaced by a durable backend's Open and Bootstrap.
var (
	// ErrCorruptStore rejects a store whose framing or payloads cannot be
	// parsed at all (a damaged header, a record that decodes to
	// nonsense). A torn or corrupt tail is NOT this error: recovery rolls
	// back to the newest valid epoch instead.
	ErrCorruptStore = errors.New("chain: corrupt durable store")
	// ErrStoreVersion rejects a store written by an incompatible format
	// version.
	ErrStoreVersion = errors.New("chain: durable store format version mismatch")
	// ErrStoreMismatch rejects a store whose recorded deployment
	// fingerprint (seed, pools, users, epoch geometry) differs from the
	// opening Config: resuming it would silently diverge from the
	// original run, which is exactly what the fingerprint exists to
	// prevent.
	ErrStoreMismatch = errors.New("chain: durable store belongs to a different deployment")
	// ErrStoreUnsupported rejects a store operation on a node that has no
	// durable store (one built by NewMultiSystem or NewDriver rather than
	// Open or Bootstrap), and a federated Open without the federation's
	// shared runtime.
	ErrStoreUnsupported = errors.New("chain: durable store unsupported here")
	// ErrStoreWrite halts a node whose durable store stopped accepting
	// writes mid-run: continuing would silently void the recovery
	// contract.
	ErrStoreWrite = errors.New("chain: durable store write failed")
	// ErrStoreLocked rejects opening a data directory another live node
	// already holds — two writers would interleave records and corrupt
	// the log. The lock dies with the owning process, so a crashed
	// node's store reopens freely.
	ErrStoreLocked = errors.New("chain: durable store locked by another process")
)

// RecoveryInfo reports what Open restored from the durable store.
type RecoveryInfo struct {
	// Epoch is the recovered boundary: every epoch <= Epoch was restored
	// from the store; Run resumes at Epoch+1.
	Epoch uint64
	// Fingerprint holds every restored epoch's persisted summary root and
	// per-pool sync payload digests; its Receipts stay empty.
	Fingerprint Fingerprint
	// Receipts are the persisted receipt-table rows, re-materialized.
	// Rows for epochs the replayed sync-part log confirmed are reported
	// as Pruned; sync/prune virtual timestamps did not survive the crash
	// and stay zero.
	Receipts []*Receipt
	// Halted reports that the node had halted on a lifecycle fault
	// before the crash; the reopened node refuses submissions with
	// ErrHalted and Run returns immediately.
	Halted bool
	// HaltReason is the persisted fault description when Halted.
	HaltReason string
}

// Fingerprint is what a run produced, not when: per-epoch summary roots
// and sync payload digests, and receipt outcomes. Shard count, pipeline
// depth, store, tracer, consensus fidelity and producer interleaving
// must not change it (DESIGN.md invariants 8-14).
type Fingerprint struct {
	Epochs map[uint64]EpochPrint
	// Receipts are outcomes in the order the caller listed the receipts.
	Receipts []ReceiptOutcome
}

// EpochPrint is one epoch of a Fingerprint.
type EpochPrint struct {
	// Root is the epoch's folded multi-pool summary root.
	Root [32]byte
	// Payloads are the per-pool sync payload digests in canonical pool
	// order.
	Payloads [][32]byte
}

// ReceiptOutcome is how a receipt ended: its lifecycle stage and
// execution slot, without virtual timestamps.
type ReceiptOutcome struct {
	TxID   string
	Status Status
	Epoch  uint64
	Round  uint64
}

// Diff returns nil when f and other describe the same run. Otherwise it
// names the lowest epoch that differs and what differs there — an epoch
// one run lacks, the summary root, the payload count, or payload i — and,
// when every epoch agrees, the first receipt that differs.
func (f Fingerprint) Diff(other Fingerprint) error {
	epochs := make([]uint64, 0, len(f.Epochs)+len(other.Epochs))
	for e := range f.Epochs {
		epochs = append(epochs, e)
	}
	for e := range other.Epochs {
		if _, ok := f.Epochs[e]; !ok {
			epochs = append(epochs, e)
		}
	}
	slices.Sort(epochs)
	for _, e := range epochs {
		a, inA := f.Epochs[e]
		b, inB := other.Epochs[e]
		switch {
		case !inA:
			return fmt.Errorf("runs differ at epoch %d: only the second run has it", e)
		case !inB:
			return fmt.Errorf("runs differ at epoch %d: only the first run has it", e)
		case a.Root != b.Root:
			return fmt.Errorf("runs differ at epoch %d: summary root %x vs %x", e, a.Root, b.Root)
		case len(a.Payloads) != len(b.Payloads):
			return fmt.Errorf("runs differ at epoch %d: %d vs %d payloads", e, len(a.Payloads), len(b.Payloads))
		}
		for i := range a.Payloads {
			if a.Payloads[i] != b.Payloads[i] {
				return fmt.Errorf("runs differ at epoch %d: payload %d digest %x vs %x", e, i, a.Payloads[i], b.Payloads[i])
			}
		}
	}
	for i := 0; i < max(len(f.Receipts), len(other.Receipts)); i++ {
		switch {
		case i >= len(f.Receipts):
			return fmt.Errorf("runs differ at receipt %d (%s): only the second run has it", i, other.Receipts[i].TxID)
		case i >= len(other.Receipts):
			return fmt.Errorf("runs differ at receipt %d (%s): only the first run has it", i, f.Receipts[i].TxID)
		case f.Receipts[i] != other.Receipts[i]:
			return fmt.Errorf("runs differ at receipt %d (%s): %+v vs %+v", i, f.Receipts[i].TxID, f.Receipts[i], other.Receipts[i])
		}
	}
	return nil
}

// Compactor is implemented by durable chains that can fold their store's
// history into a checkpoint on demand (see Config.CompactEvery for the
// automatic cadence).
type Compactor interface {
	// CompactStore compacts the durable log up to the newest
	// mainchain-confirmed epoch and returns once the log is rewritten.
	// Safe at rest (after Run returns); a running node with
	// Config.CompactEvery set starts its own compactions when syncs
	// confirm, on a goroutine of their own.
	CompactStore() error
	// ExportSnapshot returns the store's complete current image — what a
	// fresh node Bootstraps from. Compact first for the smallest image.
	ExportSnapshot() ([]byte, error)
}

// Compact folds c's durable store up to its confirmation cursor.
// Chains without a durable store return ErrStoreUnsupported.
func Compact(c Chain) error {
	cp, ok := c.(Compactor)
	if !ok {
		return fmt.Errorf("%w: chain does not compact", ErrStoreUnsupported)
	}
	return cp.CompactStore()
}
