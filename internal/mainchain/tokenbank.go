package mainchain

import (
	"errors"
	"fmt"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// TokenBank errors.
var (
	ErrUnknownEpochKey  = errors.New("tokenbank: no committee key registered for epoch")
	ErrBadSyncSignature = errors.New("tokenbank: sync signature rejected")
	ErrEpochAlreadySync = errors.New("tokenbank: epoch already synced")
	ErrNoPool           = errors.New("tokenbank: pool not created")
	ErrFlashNotRepaid   = errors.New("tokenbank: flash loan not repaid with fee")
	ErrPayoutUncovered  = errors.New("tokenbank: sync payouts exceed the bank's token balance")
)

// BankAddress is the on-chain account holding deposits and pool reserves.
const BankAddress = "tokenbank"

// TokenBank is the base AMM smart contract on the mainchain (Fig. 3) over
// one pool: the ERC20 custody — user deposits, payout transfers and flash
// loans (the one operation that must stay on the mainchain) — on top of
// the MultiBank that stores the pool's reserves and positions and
// verifies every TSQC-signed Sync part (applySync).
type TokenBank struct {
	*MultiBank
	token0 *ERC20
	token1 *ERC20
	// pool is the one pool's ID in the embedded MultiBank.
	pool string

	poolCreated bool
	FeePips     uint32

	// Deposits[epoch][user] = two-token deposit backing that epoch's
	// sidechain activity.
	Deposits map[uint64]map[string]summary.Deposit
}

// NewTokenBank deploys the bank over the two pool tokens and the pool
// poolID. The genesis committee key (epoch 1) is registered at
// deployment, as the paper's system setup prescribes.
func NewTokenBank(t0, t1 *ERC20, poolID string, genesisKey tsig.GroupKey) *TokenBank {
	b := &TokenBank{
		MultiBank: NewMultiBank([]string{poolID}, genesisKey).WithAddress(BankAddress),
		token0:    t0,
		token1:    t1,
		pool:      poolID,
		Deposits:  make(map[uint64]map[string]summary.Deposit),
	}
	b.custody = b
	return b
}

// CreatePoolArgs configures the managed pool.
type CreatePoolArgs struct {
	FeePips uint32
}

// DepositArgs funds a user's activity for an upcoming epoch. The user must
// have approved TokenBank on the corresponding ERC20 beforehand.
type DepositArgs struct {
	Epoch   uint64
	Amount0 u256.Int
	Amount1 u256.Int
}

// FlashArgs requests a flash loan served by the callback within the same
// transaction.
type FlashArgs struct {
	Amount0  u256.Int
	Amount1  u256.Int
	Callback func(amount0, amount1 u256.Int) (repay0, repay1 u256.Int)
}

// Execute implements Contract.
func (b *TokenBank) Execute(env *Env, method string, args any) error {
	switch method {
	case "createPool":
		a, ok := args.(CreatePoolArgs)
		if !ok {
			return ErrBadArgs
		}
		if err := env.Gas.Charge(gasmodel.TxBaseGas + gasmodel.PoolBalanceWords*gasmodel.SstoreWordGas); err != nil {
			return err
		}
		b.poolCreated = true
		b.FeePips = a.FeePips
		return nil
	case "deposit":
		a, ok := args.(DepositArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.deposit(env, a)
	case "flash":
		a, ok := args.(FlashArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.flash(env, a)
	default:
		return b.MultiBank.Execute(env, method, args)
	}
}

func (b *TokenBank) deposit(env *Env, a DepositArgs) error {
	// A full two-token deposit costs the measured Table II total; a
	// single-token leg costs half, so the split four-transaction deposit
	// flow sums to the same figure.
	legs := uint64(0)
	if !a.Amount0.IsZero() {
		legs++
	}
	if !a.Amount1.IsZero() {
		legs++
	}
	if legs == 0 {
		return fmt.Errorf("%w: empty deposit", ErrBadArgs)
	}
	if err := env.Gas.Charge(gasmodel.DepositTwoTokensGas / 2 * legs); err != nil {
		return err
	}
	if !a.Amount0.IsZero() {
		if err := b.token0.internalTransferFrom(BankAddress, env.Caller, BankAddress, a.Amount0); err != nil {
			return err
		}
	}
	if !a.Amount1.IsZero() {
		if err := b.token1.internalTransferFrom(BankAddress, env.Caller, BankAddress, a.Amount1); err != nil {
			return err
		}
	}
	return b.CreditDeposit(a.Epoch, env.Caller, a.Amount0, a.Amount1)
}

// CreditDeposit adds to user's deposit for epoch, failing with
// summary.ErrDepositOverflow (and crediting nothing) if it would wrap.
func (b *TokenBank) CreditDeposit(epoch uint64, user string, amount0, amount1 u256.Int) error {
	bucket := b.Deposits[epoch]
	if bucket == nil {
		bucket = make(map[string]summary.Deposit)
		b.Deposits[epoch] = bucket
	}
	d, err := bucket[user].Credit(amount0, amount1)
	bucket[user] = d
	return err
}

// EpochDeposits returns a copy of the deposit map for an epoch
// (SnapshotBank: the committee retrieves deposits at epoch start).
func (b *TokenBank) EpochDeposits(epoch uint64) map[string]summary.Deposit {
	out := make(map[string]summary.Deposit, len(b.Deposits[epoch]))
	for user, d := range b.Deposits[epoch] {
		out[user] = d
	}
	return out
}

// cover refuses a part whose payouts, summed per token, exceed the bank's
// token balances: applySync asks before it writes anything, so a part
// the bank cannot pay out leaves no trace.
func (b *TokenBank) cover(a *MultiSyncArgs) error {
	var sum0, sum1 u256.Int
	var over0, over1 bool
	for _, p := range a.Payloads {
		for _, e := range p.Payouts {
			var o0, o1 bool
			sum0, o0 = u256.AddOverflow(sum0, e.Amount0)
			sum1, o1 = u256.AddOverflow(sum1, e.Amount1)
			over0, over1 = over0 || o0, over1 || o1
		}
	}
	bal0, bal1 := b.token0.Ledger.BalanceOf(BankAddress), b.token1.Ledger.BalanceOf(BankAddress)
	if over0 || over1 || sum0.Gt(bal0) || sum1.Gt(bal1) {
		return fmt.Errorf("%w: epoch %d part %d pays %s/%s, bank holds %s/%s",
			ErrPayoutUncovered, a.Epoch, a.Part, sum0, sum1, bal0, bal1)
	}
	return nil
}

// pay transfers an applied part's payouts — each user's updated deposit
// balance — out of the bank and clears the epoch's deposit bucket. cover
// checked the sums, so no transfer fails.
func (b *TokenBank) pay(a *MultiSyncArgs) {
	for _, p := range a.Payloads {
		for _, e := range p.Payouts {
			if !e.Amount0.IsZero() {
				_ = b.token0.internalTransfer(BankAddress, e.User, e.Amount0)
			}
			if !e.Amount1.IsZero() {
				_ = b.token1.internalTransfer(BankAddress, e.User, e.Amount1)
			}
		}
	}
	delete(b.Deposits, a.Epoch)
}

func (b *TokenBank) flash(env *Env, a FlashArgs) error {
	if !b.poolCreated {
		return ErrNoPool
	}
	res := b.Reserves[b.pool]
	if a.Amount0.Gt(res.Reserve0) || a.Amount1.Gt(res.Reserve1) {
		return fmt.Errorf("tokenbank: flash exceeds pool reserves")
	}
	// Flash = two transfers out, callback, two transfers back, fee check.
	if err := env.Gas.Charge(gasmodel.TxBaseGas + 4*gasmodel.SstoreWordGas + gasmodel.KeccakGas(64)); err != nil {
		return err
	}
	// The fee is ceil(amount·fee/1e6) over the full 512-bit product: a
	// 256-bit product would wrap for large amounts.
	fee0, _ := u256.MulDivRoundingUp(a.Amount0, u256.FromUint64(uint64(b.FeePips)), u256.FromUint64(1_000_000))
	fee1, _ := u256.MulDivRoundingUp(a.Amount1, u256.FromUint64(uint64(b.FeePips)), u256.FromUint64(1_000_000))
	if !a.Amount0.IsZero() {
		if err := b.token0.internalTransfer(BankAddress, env.Caller, a.Amount0); err != nil {
			return err
		}
	}
	if !a.Amount1.IsZero() {
		if err := b.token1.internalTransfer(BankAddress, env.Caller, a.Amount1); err != nil {
			return err
		}
	}
	repay0, repay1 := a.Callback(a.Amount0, a.Amount1)
	if repay0.Lt(u256.Add(a.Amount0, fee0)) || repay1.Lt(u256.Add(a.Amount1, fee1)) {
		// Loan inverted: claw the principal back (single-transaction
		// atomicity on the real chain).
		if !a.Amount0.IsZero() {
			_ = b.token0.internalTransfer(env.Caller, BankAddress, a.Amount0)
		}
		if !a.Amount1.IsZero() {
			_ = b.token1.internalTransfer(env.Caller, BankAddress, a.Amount1)
		}
		return ErrFlashNotRepaid
	}
	if !repay0.IsZero() {
		if err := b.token0.internalTransfer(env.Caller, BankAddress, repay0); err != nil {
			return err
		}
	}
	if !repay1.IsZero() {
		if err := b.token1.internalTransfer(env.Caller, BankAddress, repay1); err != nil {
			return err
		}
	}
	b.Reserves[b.pool] = PoolReserves{Reserve0: u256.Add(res.Reserve0, fee0), Reserve1: u256.Add(res.Reserve1, fee1)}
	return nil
}
