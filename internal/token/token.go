// Package token implements an ERC20-style fungible token ledger: balances,
// allowances, transfers, and minting by an authorized minter. TokenBank
// and the baseline Uniswap deployment move funds through this ledger.
package token

import (
	"errors"
	"fmt"

	"ammboost/internal/u256"
)

// Ledger errors.
var (
	ErrInsufficientBalance   = errors.New("token: insufficient balance")
	ErrInsufficientAllowance = errors.New("token: insufficient allowance")
	ErrNotMinter             = errors.New("token: caller is not the minter")
)

// Ledger is the balance book for a single token. It is not safe for
// concurrent use; the chain runtime serializes contract execution.
type Ledger struct {
	Symbol   string
	minter   string
	balances map[string]u256.Int
	// allowances[owner][spender] = remaining approved amount.
	allowances map[string]map[string]u256.Int
	supply     u256.Int
}

// NewLedger creates an empty ledger whose minter may create supply.
func NewLedger(symbol, minter string) *Ledger {
	return &Ledger{
		Symbol:     symbol,
		minter:     minter,
		balances:   make(map[string]u256.Int),
		allowances: make(map[string]map[string]u256.Int),
	}
}

// BalanceOf returns the balance of account.
func (l *Ledger) BalanceOf(account string) u256.Int { return l.balances[account] }

// TotalSupply returns the total minted supply.
func (l *Ledger) TotalSupply() u256.Int { return l.supply }

// Mint creates amount new tokens for account. Only the minter may call.
func (l *Ledger) Mint(caller, account string, amount u256.Int) error {
	if caller != l.minter {
		return ErrNotMinter
	}
	l.balances[account] = u256.Add(l.balances[account], amount)
	l.supply = u256.Add(l.supply, amount)
	return nil
}

// Transfer moves amount from caller to recipient.
func (l *Ledger) Transfer(caller, to string, amount u256.Int) error {
	bal := l.balances[caller]
	if bal.Lt(amount) {
		return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance, caller, bal, amount)
	}
	l.balances[caller] = u256.Sub(bal, amount)
	l.balances[to] = u256.Add(l.balances[to], amount)
	return nil
}

// Approve sets spender's allowance over caller's tokens.
func (l *Ledger) Approve(caller, spender string, amount u256.Int) {
	m := l.allowances[caller]
	if m == nil {
		m = make(map[string]u256.Int)
		l.allowances[caller] = m
	}
	m[spender] = amount
}

// Allowance returns the remaining amount spender may move from owner.
func (l *Ledger) Allowance(owner, spender string) u256.Int {
	return l.allowances[owner][spender]
}

// TransferFrom moves amount from owner to recipient, drawing down caller's
// allowance.
func (l *Ledger) TransferFrom(caller, owner, to string, amount u256.Int) error {
	allowed := l.Allowance(owner, caller)
	if allowed.Lt(amount) {
		return fmt.Errorf("%w: %s allowed %s of %s's tokens, needs %s",
			ErrInsufficientAllowance, caller, allowed, owner, amount)
	}
	if err := l.Transfer(owner, to, amount); err != nil {
		return err
	}
	l.allowances[owner][caller] = u256.Sub(allowed, amount)
	return nil
}
