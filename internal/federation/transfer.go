package federation

import (
	"errors"
	"fmt"

	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
	"ammboost/internal/u256"
)

// Transfer specifies one cross-sidechain token transfer the runner
// drives through the two-phase escrow protocol.
type Transfer struct {
	// ID is the transfer's escrow identity (unique per federation run).
	ID string
	// FromChain/ToChain are member chain IDs (distinct).
	FromChain string
	ToChain   string
	// User must be a registered user on BOTH chains, with enough
	// un-traded deposit on the origin's default pool to cover the
	// amounts (fund it pre-run via Node(from).SubmitDeposit).
	User    string
	Amount0 u256.Int
	Amount1 u256.Int
	// SubmitAtEpoch initiates the withdraw when the origin chain starts
	// this epoch (0 = epoch 1).
	SubmitAtEpoch uint64
}

// transferState is the runner's bookkeeping for one transfer.
type transferState struct {
	spec Transfer
	rc   *chain.TransferReceipt
	from *Node
	to   *Node

	// depositRC is the destination-chain deposit receipt (nil until the
	// deposit is submitted).
	depositRC *chain.Receipt

	// In-flight escrow calls: at most one of lock / settle (release or
	// refund) / claim is pending at a time.
	lockInFlight   bool
	settleInFlight bool
	// refundOnLock redirects a confirmed lock straight to refund: the
	// destination halted while the lock was in the mempool.
	refundOnLock bool
	refundReason error
}

// initTransfers validates the transfer table and indexes it.
func (f *Federation) initTransfers(specs []Transfer) error {
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if spec.ID == "" {
			return fmt.Errorf("%w: empty ID", ErrBadTransfer)
		}
		if seen[spec.ID] {
			return fmt.Errorf("%w: duplicate ID %q", ErrBadTransfer, spec.ID)
		}
		seen[spec.ID] = true
		from, to := f.byID[spec.FromChain], f.byID[spec.ToChain]
		if from == nil || to == nil {
			return fmt.Errorf("%w: %s references unknown chain (%q -> %q)",
				ErrBadTransfer, spec.ID, spec.FromChain, spec.ToChain)
		}
		if from == to {
			return fmt.Errorf("%w: %s transfers %q to itself", ErrBadTransfer, spec.ID, spec.FromChain)
		}
		if spec.User == "" || (spec.Amount0.IsZero() && spec.Amount1.IsZero()) {
			return fmt.Errorf("%w: %s needs a user and a nonzero amount", ErrBadTransfer, spec.ID)
		}
		if spec.SubmitAtEpoch == 0 {
			spec.SubmitAtEpoch = 1
		}
		f.transfers = append(f.transfers, &transferState{
			spec: spec,
			from: from,
			to:   to,
			rc: &chain.TransferReceipt{
				ID:        spec.ID,
				FromChain: spec.FromChain,
				ToChain:   spec.ToChain,
				ToPool:    "", // default pools on both sides
				User:      spec.User,
				Amount0:   spec.Amount0,
				Amount1:   spec.Amount1,
				Status:    chain.TransferInitiated,
			},
		})
	}
	return nil
}

// onEpochStart initiates due transfers: the origin chain debits the
// user's deposit inside the epoch that just opened, so the withdrawal
// rides that epoch's summary and sync.
func (f *Federation) onEpochStart(origin *Node, epoch uint64) {
	for _, t := range f.transfers {
		if t.from != origin || t.rc.Status != chain.TransferInitiated || t.spec.SubmitAtEpoch > epoch {
			continue
		}
		t.rc.InitiatedAt = f.sim.Now()
		rc, err := origin.Sys.SubmitWithdraw("", t.spec.User, t.spec.Amount0, t.spec.Amount1)
		if err != nil {
			f.abort(t, err)
			continue
		}
		t.rc.FromPool = rc.PoolID
		if rc.Status != chain.StatusExecuted {
			f.abort(t, rc.Err)
			continue
		}
		t.rc.Status = chain.TransferWithdrawn
		t.rc.WithdrawEpoch = rc.Epoch
		t.rc.WithdrawnAt = f.sim.Now()
	}
}

// onSyncConfirmed advances transfers whose on-chain prerequisite just
// finalized: the origin's withdraw epoch (→ escrow lock) or the
// destination's deposit epoch (→ escrow release). All transfers made
// ready by the same (node, epoch) confirmation coalesce into ONE batched
// escrow transaction per direction — a member pays one mainchain call
// per epoch for its whole cross-chain flow, not one per transfer.
func (f *Federation) onSyncConfirmed(node *Node, epoch uint64) {
	var locks, releases []*transferState
	for _, t := range f.transfers {
		switch {
		case t.from == node && t.rc.Status == chain.TransferWithdrawn && !t.lockInFlight &&
			t.rc.WithdrawEpoch <= epoch:
			// The withdraw is now part of the origin's synced state: the
			// debit is final on the mainchain, so custody can open. (An
			// origin sync revert before this point halts the origin and
			// aborts the transfer instead — no escrow is ever funded.)
			locks = append(locks, t)
		case t.to == node && t.rc.Status == chain.TransferDeposited && !t.settleInFlight &&
			t.depositRC != nil && t.depositRC.Status == chain.StatusExecuted &&
			t.depositRC.Epoch <= epoch:
			// The destination credit is synced: release custody.
			releases = append(releases, t)
		}
	}
	if len(locks) > 0 {
		f.submitLocks(node, epoch, locks)
	}
	if len(releases) > 0 {
		f.submitReleases(node, epoch, releases)
	}
}

// onHalted unwinds transfers an endpoint's halt interrupted.
func (f *Federation) onHalted(node *Node) {
	for _, t := range f.transfers {
		if t.rc.Status.Terminal() {
			continue
		}
		switch {
		case t.from == node && (t.rc.Status == chain.TransferInitiated || t.rc.Status == chain.TransferWithdrawn):
			// No custody yet. Initiated: nothing happened. Withdrawn: the
			// debit lived only in the origin's (now halted, untrusted)
			// epoch state and never synced — atomicity holds because the
			// escrow lock waits for the sync confirmation that will now
			// never come.
			if !t.lockInFlight {
				f.abort(t, fmt.Errorf("federation: origin %s halted before escrow lock", node.ID))
			}
		case t.to == node && t.rc.Status == chain.TransferWithdrawn && t.lockInFlight:
			// Destination died while the lock was in the mempool: let the
			// lock confirm, then bounce it straight back.
			t.refundOnLock = true
			t.refundReason = fmt.Errorf("federation: destination %s halted mid-transfer", node.ID)
		case t.to == node && (t.rc.Status == chain.TransferEscrowed || t.rc.Status == chain.TransferDeposited):
			if !t.settleInFlight {
				f.submitRefund(t, fmt.Errorf("federation: destination %s halted mid-transfer", node.ID))
			}
		}
		// An origin halt AFTER custody opened (Escrowed/Deposited) does
		// not touch the transfer: the withdraw synced before the halt, so
		// the funds legitimately left the origin and the destination can
		// still complete. A later refund simply parks the balance in the
		// escrow's claimable ledger (the origin cannot re-credit).
	}
}

// escrowTxID names the escrow transaction for one phase of ts: a
// transfer that travels alone keeps its own xfer-<id>-<phase> ID, and a
// batch is named after the (chain, epoch) confirmation that made it ready.
func escrowTxID(node *Node, epoch uint64, ts []*transferState, phase string) string {
	if len(ts) == 1 {
		return "xfer-" + ts[0].spec.ID + "-" + phase
	}
	return fmt.Sprintf("xfer-batch-%s-e%d-%s", node.ID, epoch, phase)
}

// submitLocks opens custody for every transfer the same (origin, epoch)
// sync confirmation made ready, in one atomic mainchain call. The lock
// settles all-or-nothing on-chain (Escrow.lock validates every item
// before opening any entry), so a revert aborts the whole set.
func (f *Federation) submitLocks(node *Node, epoch uint64, ts []*transferState) {
	items := make([]mainchain.EscrowLockArgs, len(ts))
	for i, t := range ts {
		t.lockInFlight = true
		f.escrowInFlight++
		items[i] = mainchain.EscrowLockArgs{
			ID:        t.spec.ID,
			FromChain: t.spec.FromChain,
			ToChain:   t.spec.ToChain,
			User:      t.spec.User,
			Amount0:   t.spec.Amount0,
			Amount1:   t.spec.Amount1,
		}
	}
	tx := &mainchain.Tx{
		ID: escrowTxID(node, epoch, ts, "lock"), From: "fed-bridge",
		To: mainchain.EscrowAddress, Method: "lock", Size: 60 + 200*len(ts),
		Args: &mainchain.EscrowBatchLockArgs{Items: items},
	}
	tx.OnConfirmed = func(tx *mainchain.Tx) {
		for _, t := range ts {
			t.lockInFlight = false
			f.escrowInFlight--
		}
		if tx.Status != mainchain.TxConfirmed {
			for _, t := range ts {
				f.abort(t, fmt.Errorf("federation: escrow lock reverted: %w", tx.Err))
			}
			f.maybeStop()
			return
		}
		for _, t := range ts {
			t.rc.Status = chain.TransferEscrowed
			t.rc.EscrowedAt = f.sim.Now()
			if t.refundOnLock {
				f.submitRefund(t, t.refundReason)
				continue
			}
			f.creditDestination(t)
		}
		f.maybeStop()
	}
	f.mc.Submit(tx)
}

// submitReleases ends custody for every transfer the same (destination,
// epoch) sync confirmation completed, in one atomic mainchain call.
func (f *Federation) submitReleases(node *Node, epoch uint64, ts []*transferState) {
	ids := make([]string, len(ts))
	for i, t := range ts {
		t.settleInFlight = true
		f.escrowInFlight++
		ids[i] = t.spec.ID
	}
	tx := &mainchain.Tx{
		ID: escrowTxID(node, epoch, ts, "release"), From: "fed-bridge",
		To: mainchain.EscrowAddress, Method: "release", Size: 60 + 40*len(ts),
		Args: &mainchain.EscrowBatchSettleArgs{IDs: ids},
	}
	tx.OnConfirmed = func(tx *mainchain.Tx) {
		for _, t := range ts {
			t.settleInFlight = false
			f.escrowInFlight--
		}
		if tx.Status != mainchain.TxConfirmed {
			for _, t := range ts {
				f.abort(t, fmt.Errorf("federation: escrow release reverted: %w", tx.Err))
			}
		} else {
			for _, t := range ts {
				t.rc.Status = chain.TransferCompleted
				t.rc.SettledAt = f.sim.Now()
				t.rc.DepositEpoch = t.depositRC.Epoch
			}
		}
		f.maybeStop()
	}
	f.mc.Submit(tx)
}

// creditDestination runs the deposit half on chain B, or refunds when B
// can no longer accept one.
func (f *Federation) creditDestination(t *transferState) {
	dest := t.to
	if dest.halted || dest.finished {
		f.submitRefund(t, fmt.Errorf("federation: destination %s cannot accept the deposit", dest.ID))
		return
	}
	rc, err := dest.Sys.SubmitDeposit(t.spec.User, dest.Sys.Epoch(), t.spec.Amount0, t.spec.Amount1)
	if err != nil {
		f.submitRefund(t, fmt.Errorf("federation: destination deposit refused: %w", err))
		return
	}
	t.depositRC = rc
	t.rc.ToPool = rc.PoolID
	t.rc.Status = chain.TransferDeposited
	t.rc.DepositedAt = f.sim.Now()
	if rc.Status == chain.StatusExecuted {
		t.rc.DepositEpoch = rc.Epoch
	}
	// Finalization waits for the destination's sync covering the deposit
	// epoch (onSyncConfirmed); a deposit still pending when the
	// destination quiesces refunds in maybeStop's sweep instead.
}

// submitRefund bounces custody back toward the origin chain: a one-item
// refund list.
func (f *Federation) submitRefund(t *transferState, reason error) {
	t.settleInFlight = true
	f.escrowInFlight++
	tx := &mainchain.Tx{
		ID: "xfer-" + t.spec.ID + "-refund", From: "fed-bridge", To: mainchain.EscrowAddress,
		Method: "refund", Size: 60 + 40, Args: &mainchain.EscrowBatchSettleArgs{IDs: []string{t.spec.ID}},
	}
	tx.OnConfirmed = func(tx *mainchain.Tx) {
		t.settleInFlight = false
		f.escrowInFlight--
		if tx.Status != mainchain.TxConfirmed {
			f.abort(t, fmt.Errorf("federation: escrow refund reverted: %w", tx.Err))
			f.maybeStop()
			return
		}
		t.rc.Status = chain.TransferRefunded
		t.rc.SettledAt = f.sim.Now()
		t.rc.Err = reason
		// Re-credit the user on the origin: claim the refunded balance
		// off the escrow's ledger and deposit it back. A halted or
		// finished origin leaves the balance claimable on-chain —
		// accounted, never stranded.
		f.toOrigin(t, func() { f.submitClaim(t) })
		f.maybeStop()
	}
	f.mc.Submit(tx)
}

// submitClaim consumes a refunded transfer's claimable balance and
// re-credits the user's deposit on the origin chain.
func (f *Federation) submitClaim(t *transferState) {
	f.escrowInFlight++
	tx := &mainchain.Tx{
		ID: "xfer-" + t.spec.ID + "-claim", From: "fed-bridge", To: mainchain.EscrowAddress,
		Method: "claim", Size: 130,
		Args: &mainchain.EscrowClaimArgs{
			Chain:   t.spec.FromChain,
			User:    t.spec.User,
			Amount0: t.spec.Amount0,
			Amount1: t.spec.Amount1,
		},
	}
	tx.OnConfirmed = func(tx *mainchain.Tx) {
		f.escrowInFlight--
		if tx.Status == mainchain.TxConfirmed {
			// Applied to the running epoch now, or at the origin's next
			// BeginEpoch when the claim lands between epochs.
			f.toOrigin(t, func() {
				_, _ = t.from.Sys.SubmitDeposit(t.spec.User, t.from.Sys.Epoch(), t.spec.Amount0, t.spec.Amount1)
			})
		}
		f.maybeStop()
	}
	f.mc.Submit(tx)
}

// toOrigin runs pay against t's origin: at once while it runs, from
// revive while it is killed, and never once it halted or finished.
func (f *Federation) toOrigin(t *transferState, pay func()) {
	switch from := t.from; {
	case from.down():
		from.owed = append(from.owed, pay)
	case !from.halted && !from.finished:
		pay()
	}
}

// abort terminally fails a transfer that never reached (or lost) custody.
func (f *Federation) abort(t *transferState, err error) {
	if t.rc.Status.Terminal() {
		return
	}
	t.rc.Status = chain.TransferAborted
	t.rc.SettledAt = f.sim.Now()
	if err == nil {
		err = errors.New("federation: transfer aborted")
	}
	t.rc.Err = err
}
