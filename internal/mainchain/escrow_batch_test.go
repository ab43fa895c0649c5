package mainchain

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

// TestEscrowLockBatch: one transaction opens N entries, pays one base
// fee plus N entry footprints, and conservation holds.
func TestEscrowLockBatch(t *testing.T) {
	s, c := newTestChain(t)
	esc := NewEscrow()
	c.Deploy(esc)

	lock := submitEscrow(c, "lb1", "lock", lockArgs("x1", "x2", "x3"))
	s.RunUntil(20 * time.Second)
	if lock.Status != TxConfirmed {
		t.Fatalf("batch lock: %v (%v)", lock.Status, lock.Err)
	}
	if want := gasmodel.TxBaseGas + 3*escrowEntryWords*gasmodel.SstoreWordGas; lock.GasUsed != want {
		t.Errorf("batch lock gas = %d, want %d (one base fee amortized over the batch)", lock.GasUsed, want)
	}
	for _, id := range []string{"x1", "x2", "x3"} {
		if ent := esc.Entry(id); ent == nil || ent.State != EscrowLocked || ent.LockedAt == 0 {
			t.Errorf("entry %s after batch lock = %+v", id, ent)
		}
	}
	if esc.LockedCount() != 3 {
		t.Errorf("locked count = %d, want 3", esc.LockedCount())
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after batch lock: %v", err)
	}

	rel := submitEscrow(c, "rb1", "release", settleArgs("x1", "x3"))
	s.RunUntil(40 * time.Second)
	c.Stop()
	if rel.Status != TxConfirmed {
		t.Fatalf("batch release: %v (%v)", rel.Status, rel.Err)
	}
	if want := gasmodel.TxBaseGas + 2*2*gasmodel.SstoreWordGas; rel.GasUsed != want {
		t.Errorf("batch release gas = %d, want %d", rel.GasUsed, want)
	}
	if esc.LockedCount() != 1 {
		t.Errorf("locked count after batch release = %d, want 1 (x2)", esc.LockedCount())
	}
	if !esc.TotalReleased0.Eq(u256.FromUint64(2000)) || !esc.TotalReleased1.Eq(u256.FromUint64(4000)) {
		t.Errorf("released totals = (%s,%s)", esc.TotalReleased0, esc.TotalReleased1)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after batch release: %v", err)
	}
}

// TestEscrowBatchAtomicity: a batch with any invalid item applies NONE
// of its items — no partial locks, no partial releases — and the books
// stay conserved. Covers duplicates against existing entries, in-batch
// duplicates, and settle of an already-settled entry.
func TestEscrowBatchAtomicity(t *testing.T) {
	s, c := newTestChain(t)
	esc := NewEscrow()
	c.Deploy(esc)

	submitEscrow(c, "l0", "lock", lockArgs("x0"))
	s.RunUntil(20 * time.Second)

	// x0 already exists: the whole batch must revert, y1/y2 never open.
	dup := submitEscrow(c, "lb-dup", "lock", lockArgs("y1", "x0", "y2"))
	// z1 appears twice inside one batch: same outcome.
	inBatch := submitEscrow(c, "lb-inbatch", "lock", lockArgs("z1", "z2", "z1"))
	empty := submitEscrow(c, "lb-empty", "lock", lockArgs())
	s.RunUntil(40 * time.Second)
	if dup.Status != TxFailed || !errors.Is(dup.Err, ErrDuplicateEscrow) {
		t.Errorf("dup batch: %v (%v), want failed ErrDuplicateEscrow", dup.Status, dup.Err)
	}
	if inBatch.Status != TxFailed || !errors.Is(inBatch.Err, ErrDuplicateEscrow) {
		t.Errorf("in-batch dup: %v (%v), want failed ErrDuplicateEscrow", inBatch.Status, inBatch.Err)
	}
	if empty.Status != TxFailed || !errors.Is(empty.Err, ErrBadArgs) {
		t.Errorf("empty batch: %v (%v), want failed ErrBadArgs", empty.Status, empty.Err)
	}
	for _, id := range []string{"y1", "y2", "z1", "z2"} {
		if esc.Entry(id) != nil {
			t.Errorf("entry %s leaked out of a reverted batch", id)
		}
	}
	if esc.LockedCount() != 1 {
		t.Errorf("locked count = %d, want 1 (x0 only)", esc.LockedCount())
	}

	// Settle x0, then a batch release naming it (and a fresh entry) must
	// revert whole — the fresh entry stays locked.
	submitEscrow(c, "r0", "release", settleArgs("x0"))
	submitEscrow(c, "l1", "lock", lockArgs("x1"))
	s.RunUntil(60 * time.Second)
	stale := submitEscrow(c, "rb-stale", "release", settleArgs("x1", "x0"))
	unknown := submitEscrow(c, "rb-unknown", "release", settleArgs("x1", "ghost"))
	twice := submitEscrow(c, "rb-twice", "release", settleArgs("x1", "x1"))
	s.RunUntil(90 * time.Second)
	c.Stop()
	if stale.Status != TxFailed || !errors.Is(stale.Err, ErrEscrowSettled) {
		t.Errorf("stale batch release: %v (%v), want failed ErrEscrowSettled", stale.Status, stale.Err)
	}
	if unknown.Status != TxFailed || !errors.Is(unknown.Err, ErrUnknownEscrow) {
		t.Errorf("unknown batch release: %v (%v), want failed ErrUnknownEscrow", unknown.Status, unknown.Err)
	}
	if twice.Status != TxFailed || !errors.Is(twice.Err, ErrEscrowSettled) {
		t.Errorf("double release in one batch: %v (%v), want failed ErrEscrowSettled", twice.Status, twice.Err)
	}
	if ent := esc.Entry("x1"); ent == nil || ent.State != EscrowLocked {
		t.Errorf("x1 = %+v, want still locked after reverted batches", ent)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after reverted batches: %v", err)
	}
}

// TestFederationTransferBatching lives here conceptually but runs in the
// federation package; this test pins the contract surface the runner
// depends on: batch IDs are distinct per (chain, epoch) and entries keep
// their own IDs.
func TestEscrowBatchEntryIdentity(t *testing.T) {
	s, c := newTestChain(t)
	esc := NewEscrow()
	c.Deploy(esc)
	ids := []string{"t-0", "t-1", "t-2", "t-3"}
	submitEscrow(c, "lb", "lock", lockArgs(ids...))
	s.RunUntil(20 * time.Second)
	c.Stop()
	for i, id := range ids {
		ent := esc.Entry(id)
		if ent == nil {
			t.Fatalf("entry %d (%s) missing", i, id)
		}
		if ent.ID != id {
			t.Errorf("entry %d carries ID %q, want %q", i, ent.ID, id)
		}
	}
	if got := fmt.Sprintf("%d", esc.LockedCount()); got != "4" {
		t.Errorf("locked count = %s, want 4", got)
	}
}
