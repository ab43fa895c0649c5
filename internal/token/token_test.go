package token

import (
	"errors"
	"testing"

	"ammboost/internal/u256"
)

func amt(v uint64) u256.Int { return u256.FromUint64(v) }

func newFunded(t *testing.T) *Ledger {
	t.Helper()
	l := NewLedger("TOK", "minter")
	if err := l.Mint("minter", "alice", amt(1000)); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMintOnlyByMinter(t *testing.T) {
	l := NewLedger("TOK", "minter")
	if err := l.Mint("mallory", "mallory", amt(100)); !errors.Is(err, ErrNotMinter) {
		t.Errorf("want ErrNotMinter, got %v", err)
	}
	if err := l.Mint("minter", "alice", amt(100)); err != nil {
		t.Fatal(err)
	}
	if got := l.TotalSupply(); !got.Eq(amt(100)) {
		t.Errorf("supply = %s", got)
	}
}

func TestTransfer(t *testing.T) {
	l := newFunded(t)
	if err := l.Transfer("alice", "bob", amt(300)); err != nil {
		t.Fatal(err)
	}
	if !l.BalanceOf("alice").Eq(amt(700)) || !l.BalanceOf("bob").Eq(amt(300)) {
		t.Errorf("balances: %s / %s", l.BalanceOf("alice"), l.BalanceOf("bob"))
	}
	if err := l.Transfer("alice", "bob", amt(701)); !errors.Is(err, ErrInsufficientBalance) {
		t.Errorf("want ErrInsufficientBalance, got %v", err)
	}
}

func TestApproveTransferFrom(t *testing.T) {
	l := newFunded(t)
	l.Approve("alice", "spender", amt(500))
	if err := l.TransferFrom("spender", "alice", "carol", amt(200)); err != nil {
		t.Fatal(err)
	}
	if !l.Allowance("alice", "spender").Eq(amt(300)) {
		t.Errorf("allowance = %s", l.Allowance("alice", "spender"))
	}
	if err := l.TransferFrom("spender", "alice", "carol", amt(400)); !errors.Is(err, ErrInsufficientAllowance) {
		t.Errorf("want ErrInsufficientAllowance, got %v", err)
	}
	// Allowance present but balance insufficient.
	l.Approve("alice", "spender", amt(10_000))
	if err := l.TransferFrom("spender", "alice", "carol", amt(900)); !errors.Is(err, ErrInsufficientBalance) {
		t.Errorf("want ErrInsufficientBalance, got %v", err)
	}
}

func TestConservationUnderTransfers(t *testing.T) {
	l := newFunded(t)
	if err := l.Mint("minter", "bob", amt(500)); err != nil {
		t.Fatal(err)
	}
	start := l.TotalSupply()
	moves := []struct {
		from, to string
		v        uint64
	}{
		{"alice", "bob", 10}, {"bob", "carol", 400}, {"carol", "alice", 399}, {"alice", "alice", 50},
	}
	for _, m := range moves {
		if err := l.Transfer(m.from, m.to, amt(m.v)); err != nil {
			t.Fatal(err)
		}
	}
	var sum u256.Int
	for _, who := range []string{"alice", "bob", "carol"} {
		sum = u256.Add(sum, l.BalanceOf(who))
	}
	if !sum.Eq(start) {
		t.Errorf("balances sum %s != supply %s", sum, start)
	}
}
