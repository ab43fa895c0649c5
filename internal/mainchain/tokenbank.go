package mainchain

import (
	"bytes"
	"crypto/sha256"
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
	ErrNextKeyMismatch  = errors.New("tokenbank: next committee key differs from the signed payload's")
)

// BankAddress is the on-chain account holding deposits and pool reserves.
const BankAddress = "tokenbank"

// TokenBank is the base AMM smart contract on the mainchain (Fig. 3): it
// tracks token pools, user deposits, and liquidity positions, accepts
// TSQC-authenticated Sync calls from sidechain committees, and serves flash
// loans (the one operation that must stay on the mainchain).
type TokenBank struct {
	token0 *ERC20
	token1 *ERC20

	// Pool bookkeeping (balances only; trading happens on the sidechain).
	poolCreated  bool
	FeePips      uint32
	PoolReserve0 u256.Int
	PoolReserve1 u256.Int

	// Deposits[epoch][user] = two-token deposit backing that epoch's
	// sidechain activity.
	Deposits map[uint64]map[string]summary.Deposit

	// Positions is the stored liquidity-position list, updated per sync.
	Positions map[string]summary.PositionEntry

	// groupKeys[e] authenticates the Sync issued by epoch e's committee.
	groupKeys map[uint64]tsig.GroupKey
	synced    map[uint64]bool
	// LastSyncedEpoch is the highest epoch whose summary was applied.
	LastSyncedEpoch uint64
}

// NewTokenBank deploys the bank over the two pool tokens. The genesis
// committee key (epoch 1) is registered at deployment, as the paper's
// system setup prescribes.
func NewTokenBank(t0, t1 *ERC20, genesisKey tsig.GroupKey) *TokenBank {
	return &TokenBank{
		token0:    t0,
		token1:    t1,
		Deposits:  make(map[uint64]map[string]summary.Deposit),
		Positions: make(map[string]summary.PositionEntry),
		groupKeys: map[uint64]tsig.GroupKey{1: genesisKey},
		synced:    make(map[uint64]bool),
	}
}

// Name implements Contract.
func (b *TokenBank) Name() string { return BankAddress }

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

// SyncArgs carries one or more epoch summaries (more than one when the new
// committee mass-syncs after an interruption) plus the TSQC signature of
// the issuing committee and the next committee's verification key.
type SyncArgs struct {
	// Epoch identifies the issuing committee (whose key verifies Sig).
	Epoch    uint64
	Payloads []*summary.SyncPayload
	Sig      tsig.Point
	NextKey  tsig.GroupKey
}

// SignedDigest is the digest Sig must verify against: the payload's own
// digest for a single epoch, and the digest over every payload's digest,
// in order, for a mass-sync.
func (a *SyncArgs) SignedDigest() [32]byte { return combinedDigest(a.Payloads) }

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
	case "sync":
		a, ok := args.(*SyncArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.sync(env, a)
	case "flash":
		a, ok := args.(FlashArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.flash(env, a)
	default:
		return fmt.Errorf("%w: tokenbank has no method %q", ErrBadArgs, method)
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

// GroupKeyFor returns the registered committee key for an epoch.
func (b *TokenBank) GroupKeyFor(epoch uint64) (tsig.GroupKey, bool) {
	k, ok := b.groupKeys[epoch]
	return k, ok
}

func (b *TokenBank) sync(env *Env, a *SyncArgs) error {
	key, ok := b.groupKeys[a.Epoch]
	if !ok {
		return fmt.Errorf("%w: epoch %d", ErrUnknownEpochKey, a.Epoch)
	}
	if len(a.Payloads) == 0 {
		return fmt.Errorf("%w: empty sync", ErrBadArgs)
	}
	// TSQC verification: hash-to-point over the summaries plus the
	// pairing check, charged at the BN256 precompile prices.
	digest := a.SignedDigest()
	sumBytes := 0
	for _, p := range a.Payloads {
		sumBytes += p.MainchainBytes()
	}
	if err := env.Gas.Charge(gasmodel.TxBaseGas + gasmodel.SyncAuthGas(sumBytes)); err != nil {
		return err
	}
	if err := tsig.Verify(key, digest[:], a.Sig); err != nil {
		return ErrBadSyncSignature
	}
	// NextKey rides outside the signature; the last payload's NextGroupKey
	// is the signed copy of the whole key it registers (point, threshold
	// and committee size, tsig.GroupKey.Bytes).
	if last := a.Payloads[len(a.Payloads)-1]; !bytes.Equal(a.NextKey.Bytes(), last.NextGroupKey) {
		return fmt.Errorf("%w: epoch %d", ErrNextKeyMismatch, a.Epoch+uint64(len(a.Payloads)))
	}
	for _, p := range a.Payloads {
		if b.synced[p.Epoch] {
			// Mass-sync overlap: already-applied epochs are skipped,
			// making recovery idempotent.
			continue
		}
		if err := b.applyPayload(env, p); err != nil {
			return err
		}
		b.synced[p.Epoch] = true
		if p.Epoch > b.LastSyncedEpoch {
			b.LastSyncedEpoch = p.Epoch
		}
	}
	// Register the next committee's key (vk_c), enabling epoch e+1's Sync.
	if err := env.Gas.Charge(gasmodel.SstoreGas(gasmodel.ABIGroupKeyBytes)); err != nil {
		return err
	}
	b.groupKeys[a.Epoch+uint64(len(a.Payloads))] = a.NextKey
	return nil
}

func (b *TokenBank) applyPayload(env *Env, p *summary.SyncPayload) error {
	// Payouts: each entry costs the measured constant and transfers the
	// user's updated deposit balance out of the bank.
	for _, e := range p.Payouts {
		if err := env.Gas.Charge(gasmodel.PayoutEntryGas); err != nil {
			return err
		}
		if !e.Amount0.IsZero() {
			if err := b.token0.internalTransfer(BankAddress, e.User, e.Amount0); err != nil {
				return fmt.Errorf("payout token0 to %s: %w", e.User, err)
			}
		}
		if !e.Amount1.IsZero() {
			if err := b.token1.internalTransfer(BankAddress, e.User, e.Amount1); err != nil {
				return fmt.Errorf("payout token1 to %s: %w", e.User, err)
			}
		}
	}
	delete(b.Deposits, p.Epoch)
	// Positions: create/adjust entries (192 B = 6 words each); deletions
	// are storage clears, which the EVM refunds down to a small net cost.
	for _, e := range p.Positions {
		if e.Deleted {
			if err := env.Gas.Charge(gasmodel.SstoreClearGas); err != nil {
				return err
			}
			delete(b.Positions, e.ID)
			continue
		}
		if err := env.Gas.Charge(uint64(gasmodel.PositionEntryWords) * gasmodel.SstoreWordGas); err != nil {
			return err
		}
		b.Positions[e.ID] = e
	}
	// Pool balance update.
	if err := env.Gas.Charge(uint64(gasmodel.PoolBalanceWords) * gasmodel.SstoreWordGas); err != nil {
		return err
	}
	b.PoolReserve0 = p.PoolReserve0
	b.PoolReserve1 = p.PoolReserve1
	return nil
}

func combinedDigest(payloads []*summary.SyncPayload) [32]byte {
	if len(payloads) == 1 {
		return payloads[0].Digest()
	}
	var acc []byte
	for _, p := range payloads {
		d := p.Digest()
		acc = append(acc, d[:]...)
	}
	return sha256.Sum256(acc)
}

func (b *TokenBank) flash(env *Env, a FlashArgs) error {
	if !b.poolCreated {
		return ErrNoPool
	}
	if a.Amount0.Gt(b.PoolReserve0) || a.Amount1.Gt(b.PoolReserve1) {
		return fmt.Errorf("tokenbank: flash exceeds pool reserves")
	}
	// Flash = two transfers out, callback, two transfers back, fee check.
	if err := env.Gas.Charge(gasmodel.TxBaseGas + 4*gasmodel.SstoreWordGas + gasmodel.KeccakGas(64)); err != nil {
		return err
	}
	// The fee is ceil(amount·fee/1e6) over the full 512-bit product, as in
	// amm.Pool.Flash: a 256-bit product would wrap for large amounts.
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
	b.PoolReserve0 = u256.Add(b.PoolReserve0, fee0)
	b.PoolReserve1 = u256.Add(b.PoolReserve1, fee1)
	return nil
}
