package mainchain

import (
	"errors"
	"testing"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

func submitEscrow(c *Chain, id, method string, args any) *Tx {
	tx := &Tx{ID: id, From: "fed-bridge", To: EscrowAddress, Method: method, Size: 200, Args: args}
	c.Submit(tx)
	return tx
}

// lockArgs opens one entry per ID, each 1000/2000 from ch-a to ch-b.
func lockArgs(ids ...string) *EscrowBatchLockArgs {
	a := &EscrowBatchLockArgs{}
	for _, id := range ids {
		a.Items = append(a.Items, EscrowLockArgs{
			ID: id, FromChain: "ch-a", ToChain: "ch-b", User: "u-1",
			Amount0: u256.FromUint64(1000), Amount1: u256.FromUint64(2000),
		})
	}
	return a
}

// settleArgs releases or refunds the listed entries.
func settleArgs(ids ...string) *EscrowBatchSettleArgs {
	return &EscrowBatchSettleArgs{IDs: ids}
}

// TestEscrowReleaseLifecycle: lock then release — custody opens, ends,
// and the conservation identity holds at every step.
func TestEscrowReleaseLifecycle(t *testing.T) {
	s, c := newTestChain(t)
	esc := NewEscrow()
	c.Deploy(esc)

	lock := submitEscrow(c, "l1", "lock", lockArgs("x1"))
	s.RunUntil(20 * time.Second)
	if lock.Status != TxConfirmed {
		t.Fatalf("lock: %v (%v)", lock.Status, lock.Err)
	}
	if want := gasmodel.TxBaseGas + escrowEntryWords*gasmodel.SstoreWordGas; lock.GasUsed != want {
		t.Errorf("one-entry lock gas = %d, want %d", lock.GasUsed, want)
	}
	ent := esc.Entry("x1")
	if ent == nil || ent.State != EscrowLocked || ent.LockedAt == 0 {
		t.Fatalf("entry after lock = %+v", ent)
	}
	if esc.LockedCount() != 1 {
		t.Errorf("locked count = %d", esc.LockedCount())
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation while locked: %v", err)
	}

	rel := submitEscrow(c, "r1", "release", settleArgs("x1"))
	s.RunUntil(40 * time.Second)
	c.Stop()
	if rel.Status != TxConfirmed {
		t.Fatalf("release: %v (%v)", rel.Status, rel.Err)
	}
	if want := gasmodel.TxBaseGas + 2*gasmodel.SstoreWordGas; rel.GasUsed != want {
		t.Errorf("one-entry release gas = %d, want %d", rel.GasUsed, want)
	}
	if ent.State != EscrowReleased || ent.SettledAt == 0 {
		t.Errorf("entry after release = %+v", ent)
	}
	if esc.LockedCount() != 0 {
		t.Errorf("locked count after release = %d", esc.LockedCount())
	}
	if !esc.TotalReleased0.Eq(u256.FromUint64(1000)) || !esc.TotalReleased1.Eq(u256.FromUint64(2000)) {
		t.Errorf("released totals = (%s,%s)", esc.TotalReleased0, esc.TotalReleased1)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after release: %v", err)
	}
}

// TestEscrowRefundAndClaim: refund moves the balance to the origin
// chain's claimable ledger; claims consume it exactly, and over-claims
// revert without touching state.
func TestEscrowRefundAndClaim(t *testing.T) {
	s, c := newTestChain(t)
	esc := NewEscrow()
	c.Deploy(esc)

	submitEscrow(c, "l1", "lock", lockArgs("x1"))
	s.RunUntil(20 * time.Second)
	ref := submitEscrow(c, "r1", "refund", settleArgs("x1"))
	s.RunUntil(40 * time.Second)
	if ref.Status != TxConfirmed {
		t.Fatalf("refund: %v (%v)", ref.Status, ref.Err)
	}
	if c0, c1 := esc.ClaimableTotal(); !c0.Eq(u256.FromUint64(1000)) || !c1.Eq(u256.FromUint64(2000)) {
		t.Fatalf("claimable = (%s,%s), want (1000,2000)", c0, c1)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after refund: %v", err)
	}

	// Partial claim, then the remainder, then an over-claim that reverts.
	part := submitEscrow(c, "c1", "claim", &EscrowClaimArgs{
		Chain: "ch-a", User: "u-1", Amount0: u256.FromUint64(400), Amount1: u256.FromUint64(500),
	})
	s.RunUntil(60 * time.Second)
	if part.Status != TxConfirmed {
		t.Fatalf("partial claim: %v (%v)", part.Status, part.Err)
	}
	if c0, c1 := esc.ClaimableTotal(); !c0.Eq(u256.FromUint64(600)) || !c1.Eq(u256.FromUint64(1500)) {
		t.Errorf("claimable after partial claim = (%s,%s)", c0, c1)
	}
	over := submitEscrow(c, "c2", "claim", &EscrowClaimArgs{
		Chain: "ch-a", User: "u-1", Amount0: u256.FromUint64(601), Amount1: u256.FromUint64(0),
	})
	rest := submitEscrow(c, "c3", "claim", &EscrowClaimArgs{
		Chain: "ch-a", User: "u-1", Amount0: u256.FromUint64(600), Amount1: u256.FromUint64(1500),
	})
	s.RunUntil(90 * time.Second)
	c.Stop()
	if over.Status != TxFailed || !errors.Is(over.Err, ErrNoClaimable) {
		t.Errorf("over-claim: %v (%v), want failed ErrNoClaimable", over.Status, over.Err)
	}
	if rest.Status != TxConfirmed {
		t.Fatalf("remainder claim: %v (%v)", rest.Status, rest.Err)
	}
	if c0, c1 := esc.ClaimableTotal(); !c0.IsZero() || !c1.IsZero() {
		t.Errorf("claimable after full claim = (%s,%s)", c0, c1)
	}
	if !esc.TotalClaimed0.Eq(u256.FromUint64(1000)) || !esc.TotalClaimed1.Eq(u256.FromUint64(2000)) {
		t.Errorf("claimed totals = (%s,%s)", esc.TotalClaimed0, esc.TotalClaimed1)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after claims: %v", err)
	}
}

// TestEscrowFailurePaths: duplicate locks, double settlement, unknown
// IDs, unknown methods, and claims against an empty ledger all revert
// with typed errors and leave the books untouched.
func TestEscrowFailurePaths(t *testing.T) {
	s, c := newTestChain(t)
	esc := NewEscrow()
	c.Deploy(esc)

	submitEscrow(c, "l1", "lock", lockArgs("x1"))
	s.RunUntil(20 * time.Second)
	dup := submitEscrow(c, "l2", "lock", lockArgs("x1"))
	unknown := submitEscrow(c, "r0", "release", settleArgs("nope"))
	oldName := submitEscrow(c, "lb0", "lockBatch", lockArgs("x2"))
	noClaim := submitEscrow(c, "c0", "claim", &EscrowClaimArgs{
		Chain: "ch-z", User: "u-9", Amount0: u256.FromUint64(1), Amount1: u256.FromUint64(1),
	})
	s.RunUntil(40 * time.Second)
	if dup.Status != TxFailed || !errors.Is(dup.Err, ErrDuplicateEscrow) {
		t.Errorf("duplicate lock: %v (%v)", dup.Status, dup.Err)
	}
	if unknown.Status != TxFailed || !errors.Is(unknown.Err, ErrUnknownEscrow) {
		t.Errorf("unknown release: %v (%v)", unknown.Status, unknown.Err)
	}
	if oldName.Status != TxFailed || !errors.Is(oldName.Err, ErrBadArgs) {
		t.Errorf("lockBatch: %v (%v), want failed ErrBadArgs", oldName.Status, oldName.Err)
	}
	if noClaim.Status != TxFailed || !errors.Is(noClaim.Err, ErrNoClaimable) {
		t.Errorf("empty-ledger claim: %v (%v)", noClaim.Status, noClaim.Err)
	}

	rel := submitEscrow(c, "r1", "release", settleArgs("x1"))
	s.RunUntil(60 * time.Second)
	again := submitEscrow(c, "r2", "refund", settleArgs("x1"))
	s.RunUntil(80 * time.Second)
	c.Stop()
	if rel.Status != TxConfirmed {
		t.Fatalf("release: %v (%v)", rel.Status, rel.Err)
	}
	if again.Status != TxFailed || !errors.Is(again.Err, ErrEscrowSettled) {
		t.Errorf("settle-after-settle: %v (%v)", again.Status, again.Err)
	}
	if esc.LockedCount() != 0 {
		t.Errorf("locked count = %d", esc.LockedCount())
	}
	if ids := esc.order; len(ids) != 1 || ids[0] != "x1" {
		t.Errorf("entry IDs = %v, want [x1] (failed locks must not register)", ids)
	}
	if err := esc.Conserved(); err != nil {
		t.Errorf("conservation after failures: %v", err)
	}
}
