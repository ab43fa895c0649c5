package summary

import (
	"errors"
	"fmt"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/u256"
)

// Execution errors. A failing transaction is rejected (not included in a
// meta-block); the sidechain only records valid transactions.
var (
	ErrInsufficientDeposit = errors.New("summary: deposit does not cover transaction")
	ErrUnknownUser         = errors.New("summary: user has no deposit")
	ErrDeadlineExceeded    = errors.New("summary: transaction deadline passed")
	ErrSlippage            = errors.New("summary: slippage bound violated")
	ErrUnsupportedKind     = errors.New("summary: unsupported transaction kind on sidechain")
	ErrZeroLiquidity       = errors.New("summary: computed liquidity is zero")
	ErrDepositOverflow     = errors.New("summary: deposit credit overflows 2^256")
)

// Executor processes sidechain transactions for one epoch against the pool
// snapshot retrieved from TokenBank at epoch start (SnapshotBank), evolving
// user deposits per the Fig. 4 rules. At epoch end, Summary() folds the
// result into the Sync payload.
//
// The executor uses the identical amm.Pool engine the mainchain baseline
// uses — the paper's "same logic" requirement — which makes cross-layer
// state parity a testable invariant.
type Executor struct {
	Pool     *amm.Pool
	Deposits map[string]*Deposit

	epoch uint64
	// touched tracks positions explicitly modified this epoch (mints,
	// burns, collects).
	touched map[string]bool
	// deleted tracks positions fully withdrawn during the epoch.
	deleted map[string]PositionEntry
	// src is the pool the executor snapshotted, frozen at the epoch-start
	// state until Settle reads it: a position whose fee growth inside its
	// range moved from src's (its liquidity filled a swap) is swept into
	// the summary per Fig. 4.
	src *amm.Pool
	// settled is the summary inclusion set computed by Settle (nil until
	// the epoch is settled); after Settle the executor never mutates the
	// pool again.
	settled map[string]bool

	// Rejected counts the transactions Apply refused.
	Rejected int
}

// NewExecutor snapshots the pool and deposits for an epoch. The pool is
// cloned (copy-on-write, amm.Pool.Clone): the caller's copy (TokenBank's
// view) stays frozen, per the paper's pool-snapshot-based trading, and
// the caller must not write it before Settle, which compares against it.
func NewExecutor(epoch uint64, pool *amm.Pool, deposits map[string]Deposit) *Executor {
	deps := make(map[string]*Deposit, len(deposits))
	for user, d := range deposits {
		deps[user] = &d
	}
	return &Executor{
		Pool:     pool.Clone(),
		Deposits: deps,
		epoch:    epoch,
		touched:  make(map[string]bool),
		deleted:  make(map[string]PositionEntry),
		src:      pool,
	}
}

// Credit returns d plus (a0, a1); when either balance would pass
// 2^256-1 it returns d unchanged and ErrDepositOverflow.
func (d Deposit) Credit(a0, a1 u256.Int) (Deposit, error) {
	s0, over0 := u256.AddOverflow(d.Amount0, a0)
	s1, over1 := u256.AddOverflow(d.Amount1, a1)
	if over0 || over1 {
		return d, fmt.Errorf("%w: %s/%s onto %s/%s", ErrDepositOverflow, a0, a1, d.Amount0, d.Amount1)
	}
	return Deposit{Amount0: s0, Amount1: s1}, nil
}

// AddDeposit credits a user's epoch deposit as the committee observes it
// on-chain; a credit that would overflow fails with ErrDepositOverflow.
func (e *Executor) AddDeposit(user string, amount0, amount1 u256.Int) (err error) {
	d := e.Deposits[user]
	if d == nil {
		d = &Deposit{}
		e.Deposits[user] = d
	}
	*d, err = d.Credit(amount0, amount1)
	return err
}

// WithdrawDeposit debits a user's epoch deposit — the origin-chain half
// of a cross-chain transfer. It fails with ErrInsufficientDeposit (no
// state change) when the remaining deposit does not cover the amounts,
// and ErrUnknownUser when the user never deposited.
func (e *Executor) WithdrawDeposit(user string, amount0, amount1 u256.Int) error {
	d := e.Deposits[user]
	if d == nil {
		return fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	r0, under0 := u256.SubUnderflow(d.Amount0, amount0)
	r1, under1 := u256.SubUnderflow(d.Amount1, amount1)
	if under0 || under1 {
		return fmt.Errorf("%w: withdraw (%s,%s) exceeds deposit (%s,%s)",
			ErrInsufficientDeposit, amount0, amount1, d.Amount0, d.Amount1)
	}
	d.Amount0, d.Amount1 = r0, r1
	return nil
}

// Apply validates and executes one transaction at the given sidechain
// round. On error the transaction is rejected with no state change.
func (e *Executor) Apply(tx *Tx, round uint64) error {
	if tx.DeadlineRound != 0 && round > tx.DeadlineRound {
		e.Rejected++
		return ErrDeadlineExceeded
	}
	var err error
	switch tx.Kind {
	case gasmodel.KindSwap:
		err = e.applySwap(tx)
	case gasmodel.KindMint:
		err = e.applyMint(tx)
	case gasmodel.KindBurn:
		err = e.applyBurn(tx)
	case gasmodel.KindCollect:
		err = e.applyCollect(tx)
	default:
		err = ErrUnsupportedKind
	}
	if err != nil {
		e.Rejected++
	}
	return err
}

func (e *Executor) deposit(user string) (*Deposit, error) {
	d := e.Deposits[user]
	if d == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	return d, nil
}

func (e *Executor) applySwap(tx *Tx) error {
	d, err := e.deposit(tx.User)
	if err != nil {
		return err
	}
	// The deposit must cover the input side; exact-out learns its input
	// from the swap and checks it there.
	inBal := d.Amount0
	if !tx.ZeroForOne {
		inBal = d.Amount1
	}
	if tx.ExactIn && inBal.Lt(tx.Amount) {
		return fmt.Errorf("%w: swap input %s exceeds deposit %s", ErrInsufficientDeposit, tx.Amount, inBal)
	}
	// Post-conditions on the computed result; the pool commits only if met.
	// Fig. 4: Deposits[user].amnt[in] -= amountIn; amnt[out] += amountOut.
	var after Deposit
	_, err = e.Pool.SwapIf(tx.ZeroForOne, tx.ExactIn, tx.Amount, tx.SqrtPriceLimit, func(res amm.SwapResult) (err error) {
		switch {
		case tx.ExactIn && !tx.OutBound.IsZero() && res.AmountOut.Lt(tx.OutBound):
			return fmt.Errorf("%w: out %s < min %s", ErrSlippage, res.AmountOut, tx.OutBound)
		case !tx.ExactIn && !tx.OutBound.IsZero() && res.AmountIn.Gt(tx.OutBound):
			return fmt.Errorf("%w: in %s > max %s", ErrSlippage, res.AmountIn, tx.OutBound)
		case !tx.ExactIn && inBal.Lt(res.AmountIn):
			return fmt.Errorf("%w: swap input %s exceeds deposit %s", ErrInsufficientDeposit, res.AmountIn, inBal)
		case tx.ZeroForOne:
			after, err = Deposit{Amount0: u256.Sub(d.Amount0, res.AmountIn), Amount1: d.Amount1}.Credit(u256.Zero, res.AmountOut)
		default:
			after, err = Deposit{Amount0: d.Amount0, Amount1: u256.Sub(d.Amount1, res.AmountIn)}.Credit(res.AmountOut, u256.Zero)
		}
		return err
	})
	if err != nil {
		return err
	}
	*d = after
	// Fee growth touched every in-range position; they are swept into the
	// summary at epoch end via the pool's fee accounting, so no explicit
	// touch set is needed here beyond positions later poked.
	return nil
}

func (e *Executor) applyMint(tx *Tx) error {
	d, err := e.deposit(tx.User)
	if err != nil {
		return err
	}
	// SqrtRatioAtTick panics outside the tick range; a hostile tick must
	// be a rejection, never a crash on a shard goroutine.
	if min(tx.TickLower, tx.TickUpper) < amm.MinTick || max(tx.TickLower, tx.TickUpper) > amm.MaxTick {
		return fmt.Errorf("%w: [%d, %d]", amm.ErrInvalidTickRange, tx.TickLower, tx.TickUpper)
	}
	sqrtA := amm.SqrtRatioAtTick(tx.TickLower)
	sqrtB := amm.SqrtRatioAtTick(tx.TickUpper)
	liquidity := amm.LiquidityForAmounts(e.Pool.SqrtPriceX96, sqrtA, sqrtB, tx.Amount0Desired, tx.Amount1Desired)
	if liquidity.IsZero() {
		return ErrZeroLiquidity
	}
	// Check deposit coverage before touching the pool, using the exact
	// funding math Mint applies. The former check-after-mint unwind
	// (burn + collect) leaked rounding dust into the reserves — mint
	// rounds amounts up, burn rounds down — leaving phantom reserve units
	// with no token backing on every rejected mint.
	need0, need1, err := amm.AmountsForLiquidity(e.Pool.SqrtPriceX96, sqrtA, sqrtB, liquidity, true)
	if err != nil {
		return err
	}
	if d.Amount0.Lt(need0) || d.Amount1.Lt(need1) {
		return fmt.Errorf("%w: mint needs %s/%s, deposit has %s/%s",
			ErrInsufficientDeposit, need0, need1, d.Amount0, d.Amount1)
	}
	posID := tx.PosID
	if posID == "" {
		posID = DerivePositionID(tx.ID, tx.User)
	}
	res, err := e.Pool.Mint(posID, tx.User, tx.TickLower, tx.TickUpper, liquidity)
	if err != nil {
		return err
	}
	d.Amount0 = u256.Sub(d.Amount0, res.Amount0)
	d.Amount1 = u256.Sub(d.Amount1, res.Amount1)
	e.touched[posID] = true
	delete(e.deleted, posID)
	return nil
}

func (e *Executor) applyBurn(tx *Tx) error {
	d, err := e.deposit(tx.User)
	if err != nil {
		return err
	}
	pos := e.Pool.Position(tx.PosID)
	if pos == nil {
		return amm.ErrPositionNotFound
	}
	// No payout exceeds the reserves: with room for them, the credit below
	// cannot overflow, and a refusal here leaves the pool untouched.
	if _, err := d.Credit(e.Pool.Reserve0, e.Pool.Reserve1); err != nil {
		return err
	}
	lower, upper := pos.TickLower, pos.TickUpper
	burnAmt := tx.Liquidity
	if tx.BurnFractionBps > 0 {
		bps := tx.BurnFractionBps
		if bps > 10_000 {
			bps = 10_000
		}
		burnAmt, _ = u256.MulDiv(pos.Liquidity, u256.FromUint64(uint64(bps)), u256.FromUint64(10_000))
	}
	res, err := e.Pool.Burn(tx.PosID, tx.User, burnAmt)
	if err != nil {
		return err
	}
	// Withdraw the released principal — plus all remaining fees if the
	// position is now empty (full withdrawal deletes the position and
	// pays everything owed, per the paper's burn semantics). The burn
	// wrote the pool, so pos may be the snapshot's copy: read it again.
	req0, req1 := res.Amount0, res.Amount1
	if e.Pool.Position(tx.PosID).Liquidity.IsZero() {
		req0, req1 = u256.Max, u256.Max
	}
	paid0, paid1, err := e.Pool.Collect(tx.PosID, tx.User, req0, req1)
	if err != nil {
		return err
	}
	*d, _ = d.Credit(paid0, paid1)
	if e.Pool.Position(tx.PosID) == nil {
		delete(e.touched, tx.PosID)
		e.deleted[tx.PosID] = PositionEntry{
			ID: tx.PosID, Owner: tx.User,
			TickLower: lower, TickUpper: upper, Deleted: true,
		}
	} else {
		e.touched[tx.PosID] = true
	}
	return nil
}

func (e *Executor) applyCollect(tx *Tx) error {
	d, err := e.deposit(tx.User)
	if err != nil {
		return err
	}
	if _, err := d.Credit(e.Pool.Reserve0, e.Pool.Reserve1); err != nil {
		return err // as in applyBurn
	}
	paid0, paid1, err := e.Pool.Collect(tx.PosID, tx.User, tx.Collect0, tx.Collect1)
	if err != nil {
		return err
	}
	*d, _ = d.Credit(paid0, paid1)
	if e.Pool.Position(tx.PosID) == nil {
		delete(e.touched, tx.PosID)
		e.deleted[tx.PosID] = PositionEntry{ID: tx.PosID, Owner: tx.User, Deleted: true}
	} else {
		e.touched[tx.PosID] = true
	}
	return nil
}

// Summary folds the epoch into the Sync payload per Fig. 4:
// sumPayouts = Deposits (every participating user's updated balance), and
// sumPositions = the touched/deleted liquidity positions with their final
// liquidity and fee balances. Pool reserves carry the updated pool balance
// TokenBank stores.
func (e *Executor) Summary(nextGroupKey []byte) *SyncPayload {
	e.Settle()
	p := &SyncPayload{
		Epoch:        e.epoch,
		PoolReserve0: e.Pool.Reserve0,
		PoolReserve1: e.Pool.Reserve1,
		NextGroupKey: nextGroupKey,
	}
	for user, d := range e.Deposits {
		p.Payouts = append(p.Payouts, PayoutEntry{User: user, Amount0: d.Amount0, Amount1: d.Amount1})
	}
	for posID := range e.settled {
		pos := e.Pool.Position(posID)
		if pos == nil {
			continue
		}
		p.Positions = append(p.Positions, PositionEntry{
			ID:        pos.ID,
			Owner:     pos.Owner,
			TickLower: pos.TickLower,
			TickUpper: pos.TickUpper,
			Liquidity: pos.Liquidity,
			Fees0:     pos.TokensOwed0,
			Fees1:     pos.TokensOwed1,
		})
	}
	for _, del := range e.deleted {
		p.Positions = append(p.Positions, del)
	}
	p.SortEntries()
	return p
}

// Settle ends the epoch's state evolution: it decides which positions
// the summary will include (explicitly touched, plus Fig. 4's positions
// whose liquidity filled a swap and therefore have moved fee balances)
// and pokes each one — a zero burn folding pending fee growth into
// TokensOwed. Settle is the executor's last pool mutation; Summary is a
// pure read afterwards. The pipelined lifecycle relies on that split: a
// sealed epoch is settled on the run-loop goroutine before its pool
// becomes the next epoch's snapshot source, and the payload build runs
// on the node's commit lane against the then-frozen state. Idempotent;
// Summary calls it implicitly for unpipelined callers. Settle is the
// last read of the source pool, which the executor then releases.
func (e *Executor) Settle() {
	if e.settled != nil {
		return
	}
	include := make(map[string]bool, len(e.touched))
	for posID := range e.touched {
		include[posID] = true
	}
	for _, pos := range e.Pool.Positions() {
		if include[pos.ID] {
			continue
		}
		if e.src.Position(pos.ID) == nil {
			include[pos.ID] = true
			continue
		}
		fg0, fg1 := e.Pool.FeeGrowthInside(pos.TickLower, pos.TickUpper)
		if start0, start1 := e.src.FeeGrowthInside(pos.TickLower, pos.TickUpper); !start0.Eq(fg0) || !start1.Eq(fg1) {
			include[pos.ID] = true
		}
	}
	for posID := range include {
		if pos := e.Pool.Position(posID); pos != nil {
			// Poke to fold pending fee growth into TokensOwed.
			_, _ = e.Pool.Burn(posID, pos.Owner, u256.Zero)
		}
	}
	e.settled = include
	e.src = nil
}

// TotalDeposits sums all deposit balances (conservation checks).
func (e *Executor) TotalDeposits() (t0, t1 u256.Int) {
	for _, d := range e.Deposits {
		t0 = u256.Add(t0, d.Amount0)
		t1 = u256.Add(t1, d.Amount1)
	}
	return t0, t1
}
