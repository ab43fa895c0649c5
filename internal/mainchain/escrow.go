package mainchain

import (
	"errors"
	"fmt"

	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

// Escrow errors.
var (
	ErrUnknownEscrow   = errors.New("escrow: unknown transfer id")
	ErrEscrowSettled   = errors.New("escrow: transfer already settled")
	ErrDuplicateEscrow = errors.New("escrow: transfer id already locked")
	ErrNoClaimable     = errors.New("escrow: claim exceeds claimable balance")
)

// EscrowAddress is the on-chain account of the cross-chain escrow.
const EscrowAddress = "escrow"

// EscrowState is the lifecycle state of one escrowed transfer.
type EscrowState int

const (
	// EscrowLocked: funds withdrawn on the origin chain are held by the
	// escrow pending the destination chain's deposit sync.
	EscrowLocked EscrowState = iota
	// EscrowReleased: the destination chain's deposit synced; the
	// transfer completed and the escrow's custody ended.
	EscrowReleased
	// EscrowRefunded: the destination chain halted (or never deposited);
	// funds moved to the origin chain's claimable ledger.
	EscrowRefunded
)

// String names the state.
func (s EscrowState) String() string {
	switch s {
	case EscrowLocked:
		return "locked"
	case EscrowReleased:
		return "released"
	case EscrowRefunded:
		return "refunded"
	default:
		return fmt.Sprintf("EscrowState(%d)", int(s))
	}
}

// EscrowEntry is one cross-chain transfer held by the escrow.
type EscrowEntry struct {
	ID        string
	FromChain string
	ToChain   string
	User      string
	Amount0   u256.Int
	Amount1   u256.Int
	State     EscrowState
	// LockedAt / SettledAt are the block numbers of the lock and of the
	// release/refund (0 while locked).
	LockedAt  uint64
	SettledAt uint64
}

// EscrowLockArgs is one cross-chain transfer to open an escrow entry for.
type EscrowLockArgs struct {
	ID        string
	FromChain string
	ToChain   string
	User      string
	Amount0   u256.Int
	Amount1   u256.Int
}

// EscrowBatchLockArgs are the arguments of "lock": it opens one or more
// escrow entries in one transaction — a federation member batches all its
// cross-chain locks for one epoch into a single mainchain call instead of
// one transaction per transfer.
type EscrowBatchLockArgs struct {
	Items []EscrowLockArgs
}

// EscrowBatchSettleArgs are the arguments of "release" and "refund": the
// IDs of one or more locked entries settled in one transaction.
type EscrowBatchSettleArgs struct {
	IDs []string
}

// EscrowClaimArgs consumes claimable refund balance for (chain, user) —
// the origin chain re-crediting a refunded transfer to its user.
type EscrowClaimArgs struct {
	Chain   string
	User    string
	Amount0 u256.Int
	Amount1 u256.Int
}

// escrowEntryWords is the modeled storage footprint of one entry:
// id/chain/user references, two 256-bit amounts, state + block numbers.
const escrowEntryWords = 8

// Escrow is the mainchain contract holding cross-sidechain transfers in
// flight: withdraw-on-A locks funds here, deposit-on-B releases them, and
// a halt on B refunds them into the origin chain's claimable ledger so no
// balance is ever stranded — every locked amount ends released, or
// refunded and then either claimed (origin re-credits its user) or still
// claimable (origin halted too; the balance stays accounted on-chain).
//
// Custody is modeled at the accounting level, like MultiBank: the
// conservation identity the federation experiments check is
// locked = released + refunded, with refunded = claimed + claimable.
type Escrow struct {
	// Entries[id] is every transfer ever locked (do not mutate).
	Entries map[string]*EscrowEntry
	// order is the lock order of entry IDs: the deterministic iteration
	// order for conservation sweeps and snapshots.
	order []string

	// Claimable[chainID][user] is refunded balance awaiting the origin
	// chain's re-credit. A halted origin leaves its balance here —
	// accounted, not stranded.
	Claimable map[string]map[string]PoolReserves

	// Conservation totals (sums over all entries ever locked).
	TotalLocked0, TotalLocked1     u256.Int
	TotalReleased0, TotalReleased1 u256.Int
	TotalRefunded0, TotalRefunded1 u256.Int
	TotalClaimed0, TotalClaimed1   u256.Int
}

// NewEscrow deploys an empty escrow.
func NewEscrow() *Escrow {
	return &Escrow{
		Entries:   make(map[string]*EscrowEntry),
		Claimable: make(map[string]map[string]PoolReserves),
	}
}

// Name implements Contract.
func (e *Escrow) Name() string { return EscrowAddress }

// Execute implements Contract. The escrow answers "lock", "release" and
// "refund", each over a list of one or more entries, and "claim".
func (e *Escrow) Execute(env *Env, method string, args any) error {
	switch method {
	case "lock":
		a, ok := args.(*EscrowBatchLockArgs)
		if !ok {
			return ErrBadArgs
		}
		return e.lock(env, a.Items)
	case "release", "refund":
		a, ok := args.(*EscrowBatchSettleArgs)
		if !ok {
			return ErrBadArgs
		}
		to := EscrowReleased
		if method == "refund" {
			to = EscrowRefunded
		}
		return e.settle(env, a.IDs, to)
	case "claim":
		a, ok := args.(*EscrowClaimArgs)
		if !ok {
			return ErrBadArgs
		}
		return e.claim(env, a)
	default:
		return fmt.Errorf("%w: escrow has no method %q", ErrBadArgs, method)
	}
}

// lock opens every entry or none: one base fee amortized over the list,
// the whole bill charged before any state mutates (like MultiBank sync
// parts, escrow calls must be atomic under the chain's gas-deferral
// re-execution), and every item validated (fields, duplicates against the
// book AND within the list) before the first entry opens.
func (e *Escrow) lock(env *Env, items []EscrowLockArgs) error {
	if len(items) == 0 {
		return fmt.Errorf("%w: empty escrow batch", ErrBadArgs)
	}
	bill := gasmodel.TxBaseGas + uint64(len(items))*escrowEntryWords*gasmodel.SstoreWordGas
	if err := env.Gas.Charge(bill); err != nil {
		return err
	}
	seen := make(map[string]bool, len(items))
	for i := range items {
		it := &items[i]
		if it.ID == "" || it.FromChain == "" || it.ToChain == "" || it.User == "" {
			return fmt.Errorf("%w: escrow lock missing fields", ErrBadArgs)
		}
		if _, dup := e.Entries[it.ID]; dup || seen[it.ID] {
			return fmt.Errorf("%w: %s", ErrDuplicateEscrow, it.ID)
		}
		seen[it.ID] = true
	}
	for i := range items {
		it := &items[i]
		e.Entries[it.ID] = &EscrowEntry{
			ID:        it.ID,
			FromChain: it.FromChain,
			ToChain:   it.ToChain,
			User:      it.User,
			Amount0:   it.Amount0,
			Amount1:   it.Amount1,
			State:     EscrowLocked,
			LockedAt:  env.BlockNum,
		}
		e.order = append(e.order, it.ID)
		e.TotalLocked0 = u256.Add(e.TotalLocked0, it.Amount0)
		e.TotalLocked1 = u256.Add(e.TotalLocked1, it.Amount1)
	}
	return nil
}

// settle releases or refunds every listed entry or none, with the same
// charge-then-validate-then-apply shape as lock.
func (e *Escrow) settle(env *Env, ids []string, to EscrowState) error {
	if len(ids) == 0 {
		return fmt.Errorf("%w: empty escrow batch", ErrBadArgs)
	}
	bill := gasmodel.TxBaseGas + uint64(len(ids))*2*gasmodel.SstoreWordGas
	if err := env.Gas.Charge(bill); err != nil {
		return err
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		ent, ok := e.Entries[id]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownEscrow, id)
		}
		if ent.State != EscrowLocked || seen[id] {
			return fmt.Errorf("%w: %s is %s", ErrEscrowSettled, id, ent.State)
		}
		seen[id] = true
	}
	for _, id := range ids {
		ent := e.Entries[id]
		ent.State = to
		ent.SettledAt = env.BlockNum
		if to == EscrowReleased {
			e.TotalReleased0 = u256.Add(e.TotalReleased0, ent.Amount0)
			e.TotalReleased1 = u256.Add(e.TotalReleased1, ent.Amount1)
			continue
		}
		e.TotalRefunded0 = u256.Add(e.TotalRefunded0, ent.Amount0)
		e.TotalRefunded1 = u256.Add(e.TotalRefunded1, ent.Amount1)
		byUser := e.Claimable[ent.FromChain]
		if byUser == nil {
			byUser = make(map[string]PoolReserves)
			e.Claimable[ent.FromChain] = byUser
		}
		bal := byUser[ent.User]
		bal.Reserve0 = u256.Add(bal.Reserve0, ent.Amount0)
		bal.Reserve1 = u256.Add(bal.Reserve1, ent.Amount1)
		byUser[ent.User] = bal
	}
	return nil
}

func (e *Escrow) claim(env *Env, a *EscrowClaimArgs) error {
	if err := env.Gas.Charge(gasmodel.TxBaseGas + 2*gasmodel.SstoreWordGas); err != nil {
		return err
	}
	byUser := e.Claimable[a.Chain]
	bal, ok := byUser[a.User]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoClaimable, a.Chain, a.User)
	}
	r0, under0 := u256.SubUnderflow(bal.Reserve0, a.Amount0)
	r1, under1 := u256.SubUnderflow(bal.Reserve1, a.Amount1)
	if under0 || under1 {
		return fmt.Errorf("%w: %s/%s", ErrNoClaimable, a.Chain, a.User)
	}
	if r0.IsZero() && r1.IsZero() {
		delete(byUser, a.User)
	} else {
		byUser[a.User] = PoolReserves{Reserve0: r0, Reserve1: r1}
	}
	e.TotalClaimed0 = u256.Add(e.TotalClaimed0, a.Amount0)
	e.TotalClaimed1 = u256.Add(e.TotalClaimed1, a.Amount1)
	return nil
}

// Entry returns the escrow entry for a transfer ID, or nil.
func (e *Escrow) Entry(id string) *EscrowEntry { return e.Entries[id] }

// LockedCount returns the number of entries still in EscrowLocked — a
// finished federation run requires zero (nothing in custody limbo).
func (e *Escrow) LockedCount() int {
	n := 0
	for _, id := range e.order {
		if e.Entries[id].State == EscrowLocked {
			n++
		}
	}
	return n
}

// ClaimableTotal sums the claimable ledger across all chains and users.
func (e *Escrow) ClaimableTotal() (a0, a1 u256.Int) {
	for _, byUser := range e.Claimable {
		for _, bal := range byUser {
			a0 = u256.Add(a0, bal.Reserve0)
			a1 = u256.Add(a1, bal.Reserve1)
		}
	}
	return a0, a1
}

// Conserved checks the escrow's conservation identity:
// locked = released + refunded (+ still-locked), and
// refunded = claimed + claimable. It returns a descriptive error naming
// the first violated identity, or nil.
func (e *Escrow) Conserved() error {
	var held0, held1 u256.Int
	for _, id := range e.order {
		ent := e.Entries[id]
		if ent.State == EscrowLocked {
			held0 = u256.Add(held0, ent.Amount0)
			held1 = u256.Add(held1, ent.Amount1)
		}
	}
	want0 := u256.Add(u256.Add(e.TotalReleased0, e.TotalRefunded0), held0)
	want1 := u256.Add(u256.Add(e.TotalReleased1, e.TotalRefunded1), held1)
	if !e.TotalLocked0.Eq(want0) || !e.TotalLocked1.Eq(want1) {
		return fmt.Errorf("escrow: locked (%s,%s) != released+refunded+held (%s,%s)",
			e.TotalLocked0, e.TotalLocked1, want0, want1)
	}
	cl0, cl1 := e.ClaimableTotal()
	want0 = u256.Add(e.TotalClaimed0, cl0)
	want1 = u256.Add(e.TotalClaimed1, cl1)
	if !e.TotalRefunded0.Eq(want0) || !e.TotalRefunded1.Eq(want1) {
		return fmt.Errorf("escrow: refunded (%s,%s) != claimed+claimable (%s,%s)",
			e.TotalRefunded0, e.TotalRefunded1, want0, want1)
	}
	return nil
}
