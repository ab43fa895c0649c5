package mainchain

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// tbPool is the fixture bank's one pool.
const tbPool = "pool-0"

// bankFixture wires a chain with two tokens, a TokenBank, and a committee.
type bankFixture struct {
	sim    *sim.Simulator
	chain  *Chain
	t0, t1 *ERC20
	bank   *TokenBank
	// committee key material: it signs every epoch, and each sync
	// registers its key again as the next epoch's.
	members []tsig.DKGResult
}

func newBankFixture(t *testing.T) *bankFixture {
	t.Helper()
	s := sim.New()
	c := New(s, DefaultConfig())
	t0 := NewERC20("A", "faucet")
	t1 := NewERC20("B", "faucet")
	c.Deploy(t0)
	c.Deploy(t1)
	members, err := tsig.RunDKG(rand.New(rand.NewSource(42)), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	bank := NewTokenBank(t0, t1, tbPool, members[0].Group)
	c.Deploy(bank)
	// Fund users and pre-approve the bank (the approval transactions are
	// exercised in chain_test; here we focus on bank semantics).
	for _, u := range []string{"alice", "bob", "lp"} {
		if err := t0.Ledger.Mint("faucet", u, u256.FromUint64(1_000_000)); err != nil {
			t.Fatal(err)
		}
		if err := t1.Ledger.Mint("faucet", u, u256.FromUint64(1_000_000)); err != nil {
			t.Fatal(err)
		}
		t0.Ledger.Approve(u, BankAddress, u256.Max)
		t1.Ledger.Approve(u, BankAddress, u256.Max)
	}
	return &bankFixture{sim: s, chain: c, t0: t0, t1: t1, bank: bank, members: members}
}

// sign is the committee's TSQC signature over digest.
func (f *bankFixture) sign(members []tsig.DKGResult, digest [32]byte) tsig.Point {
	partials := make([]tsig.PartialSig, 4)
	for i := 0; i < 4; i++ {
		partials[i] = tsig.PartialSign(members[i].Share, digest[:])
	}
	sig, err := tsig.Combine(members[0].Group, partials)
	if err != nil {
		panic(err)
	}
	return sig
}

// syncPart is epoch's Sync as one part over payloads, signed by the
// fixture committee, registering that committee's key for epoch+1.
func (f *bankFixture) syncPart(epoch uint64, payloads ...*summary.SyncPayload) *MultiSyncArgs {
	a := &MultiSyncArgs{Epoch: epoch, Part: 1, NumParts: 1, Payloads: payloads,
		SummaryRoot: [32]byte{0xaa, byte(epoch)}, NextKey: f.members[0].Group}
	a.Sig = f.sign(f.members, BindSyncParts([]*MultiSyncArgs{a}, nil))
	return a
}

// syncTx wraps a part in the transaction that declares its gas, as the
// node's uplink does.
func syncTx(id string, a *MultiSyncArgs) *Tx {
	gas := a.Gas()
	return &Tx{ID: id, From: "committee", To: BankAddress, Method: "sync",
		Size: 32 + gas.Calldata(), Args: a, GasLimit: gas.Declared()}
}

func (f *bankFixture) submitAndRun(t *testing.T, tx *Tx, until time.Duration) {
	t.Helper()
	f.sim.After(time.Second, func() { f.chain.Submit(tx) })
	f.sim.RunUntil(until)
}

// deposit confirms alice's 500/700 deposit for epoch 1.
func (f *bankFixture) deposit(t *testing.T) {
	t.Helper()
	dep := &Tx{ID: "d1", From: "alice", To: BankAddress, Method: "deposit",
		Args: DepositArgs{Epoch: 1, Amount0: u256.FromUint64(500), Amount1: u256.FromUint64(700)}}
	f.submitAndRun(t, dep, 20*time.Second)
	if dep.Status != TxConfirmed {
		t.Fatalf("deposit: %v", dep.Err)
	}
}

func TestDepositPullsTokens(t *testing.T) {
	f := newBankFixture(t)
	tx := &Tx{ID: "d1", From: "alice", To: BankAddress, Method: "deposit",
		Args: DepositArgs{Epoch: 1, Amount0: u256.FromUint64(500), Amount1: u256.FromUint64(700)}}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxConfirmed {
		t.Fatalf("deposit failed: %v", tx.Err)
	}
	if got := f.t0.Ledger.BalanceOf(BankAddress); !got.Eq(u256.FromUint64(500)) {
		t.Errorf("bank token0 = %s", got)
	}
	deps := f.bank.EpochDeposits(1)
	if d := deps["alice"]; !d.Amount0.Eq(u256.FromUint64(500)) || !d.Amount1.Eq(u256.FromUint64(700)) {
		t.Errorf("recorded deposit = %+v", d)
	}
	if tx.GasUsed < gasmodel.DepositTwoTokensGas {
		t.Errorf("deposit gas = %d, want >= %d", tx.GasUsed, gasmodel.DepositTwoTokensGas)
	}
}

func TestDepositWithoutFundsReverts(t *testing.T) {
	f := newBankFixture(t)
	tx := &Tx{ID: "d1", From: "alice", To: BankAddress, Method: "deposit",
		Args: DepositArgs{Epoch: 1, Amount0: u256.FromUint64(10_000_000)}}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed {
		t.Fatal("over-balance deposit should revert")
	}
	if len(f.bank.EpochDeposits(1)) != 0 {
		t.Error("failed deposit must not be recorded")
	}
}

func validPayload(epoch uint64) *summary.SyncPayload {
	p := &summary.SyncPayload{
		Epoch:  epoch,
		PoolID: tbPool,
		Payouts: []summary.PayoutEntry{
			{User: "alice", Amount0: u256.FromUint64(300), Amount1: u256.FromUint64(700)},
		},
		Positions: []summary.PositionEntry{
			{ID: "pos1", Owner: "lp", TickLower: -60, TickUpper: 60, Liquidity: u256.FromUint64(1000)},
		},
		PoolReserve0: u256.FromUint64(200),
		PoolReserve1: u256.Zero,
	}
	p.SortEntries()
	return p
}

func TestSyncHappyPath(t *testing.T) {
	f := newBankFixture(t)
	// Alice deposits 500/700; the epoch's trading turned that into
	// 300/700 with 200 of token0 moving into the pool.
	f.deposit(t)
	p := validPayload(1)
	syncTx := syncTx("s1", f.syncPart(1, p))
	f.submitAndRun(t, syncTx, 40*time.Second)
	f.chain.Stop()
	if syncTx.Status != TxConfirmed {
		t.Fatalf("sync failed: %v", syncTx.Err)
	}
	// Alice got her payout: original 1M - 500 deposit + 300 payout.
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_800)) {
		t.Errorf("alice token0 = %s, want 999800", got)
	}
	if got := f.t1.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(1_000_000)) {
		t.Errorf("alice token1 = %s, want 1000000 (full refund)", got)
	}
	// Bank retains exactly the pool reserves.
	if got := f.t0.Ledger.BalanceOf(BankAddress); !got.Eq(u256.FromUint64(200)) {
		t.Errorf("bank token0 = %s, want 200", got)
	}
	// Position and reserves stored; deposits cleared; epoch-2 key registered.
	if _, ok := f.bank.Positions[tbPool]["pos1"]; !ok {
		t.Error("position not stored")
	}
	if got := f.bank.Reserves[tbPool].Reserve0; !got.Eq(u256.FromUint64(200)) {
		t.Errorf("stored reserve0 = %s, want 200", got)
	}
	if len(f.bank.EpochDeposits(1)) != 0 {
		t.Error("epoch deposits should be cleared after sync")
	}
	if _, ok := f.bank.groupKeys[2]; !ok {
		t.Error("next committee key not registered")
	}
	if f.bank.LastSyncedEpoch != 1 {
		t.Errorf("LastSyncedEpoch = %d", f.bank.LastSyncedEpoch)
	}
	// Gas: the itemized model (1 payout, 1 position, auth, pool balance)
	// plus the summary-root word and the next key's registration.
	wantGas := gasmodel.SyncGas(1, 1, p.MainchainBytes()) + gasmodel.SstoreGas(32) + gasmodel.SstoreGas(gasmodel.ABIGroupKeyBytes)
	if syncTx.GasUsed != wantGas {
		t.Errorf("sync gas = %d, want %d", syncTx.GasUsed, wantGas)
	}
}

// TestSyncPayoutUncoveredLeavesBankUnchanged: a signed part whose payouts
// exceed the bank's token balance reverts whole. The payout the bank
// could have covered is not made, and the token balances, reserves,
// positions, deposits and registered keys stay as they were.
func TestSyncPayoutUncoveredLeavesBankUnchanged(t *testing.T) {
	f := newBankFixture(t)
	f.deposit(t)
	p := validPayload(1)
	p.Payouts = append(p.Payouts, summary.PayoutEntry{User: "bob", Amount0: u256.FromUint64(1_000)})
	p.SortEntries()
	accounts := []string{BankAddress, "alice", "bob"}
	balances := func() []u256.Int {
		var out []u256.Int
		for _, a := range accounts {
			out = append(out, f.t0.Ledger.BalanceOf(a), f.t1.Ledger.BalanceOf(a))
		}
		return out
	}
	before, state := balances(), f.bank.EncodeState()
	tx := syncTx("s1", f.syncPart(1, p))
	f.submitAndRun(t, tx, 40*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrPayoutUncovered) {
		t.Fatalf("uncovered sync: status=%v err=%v, want ErrPayoutUncovered", tx.Status, tx.Err)
	}
	if after := balances(); !slices.Equal(after, before) {
		t.Errorf("token balances of %v moved: %v, want %v", accounts, after, before)
	}
	if !bytes.Equal(f.bank.EncodeState(), state) {
		t.Error("reserves, positions or registered keys changed")
	}
	if _, ok := f.bank.groupKeys[2]; ok {
		t.Error("the reverted part registered the next key")
	}
	if len(f.bank.EpochDeposits(1)) != 1 {
		t.Error("the reverted part cleared the epoch's deposits")
	}
}

func TestSyncRejectsForgedSignature(t *testing.T) {
	f := newBankFixture(t)
	// A different committee signs: must be rejected.
	mallory, err := tsig.RunDKG(rand.New(rand.NewSource(666)), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := f.syncPart(1, validPayload(1))
	a.Sig = f.sign(mallory, BindSyncParts([]*MultiSyncArgs{a}, nil))
	tx := syncTx("s1", a)
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrBadSyncSignature) {
		t.Fatalf("forged sync: status=%v err=%v", tx.Status, tx.Err)
	}
	if len(f.bank.Positions[tbPool]) != 0 {
		t.Error("forged sync must not change state")
	}
}

func TestSyncRejectsUnknownEpoch(t *testing.T) {
	f := newBankFixture(t)
	tx := syncTx("s1", f.syncPart(7, validPayload(7)))
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrUnknownEpochKey) {
		t.Fatalf("unknown epoch: status=%v err=%v", tx.Status, tx.Err)
	}
}

func TestSyncTamperedPayloadRejected(t *testing.T) {
	f := newBankFixture(t)
	p := validPayload(1)
	a := f.syncPart(1, p)
	// Tamper after signing.
	p.Payouts[0].Amount0 = u256.FromUint64(999_999)
	tx := syncTx("s1", a)
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrBadSyncSignature) {
		t.Fatalf("tampered sync: status=%v err=%v", tx.Status, tx.Err)
	}
}

// TestSyncRejectsUnsignedNextKey: the next committee key is under the
// epoch's signature, so a sync whose NextKey was swapped after signing is
// refused before it pays out, stores a position or registers any key.
func TestSyncRejectsUnsignedNextKey(t *testing.T) {
	f := newBankFixture(t)
	mallory, err := tsig.RunDKG(rand.New(rand.NewSource(666)), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := f.syncPart(1, validPayload(1))
	a.NextKey = mallory[0].Group
	tx := syncTx("s1", a)
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrBadSyncSignature) {
		t.Fatalf("swapped next key: status=%v err=%v, want ErrBadSyncSignature", tx.Status, tx.Err)
	}
	if _, ok := f.bank.groupKeys[2]; ok || len(f.bank.Positions[tbPool]) != 0 || f.bank.LastSyncedEpoch != 0 {
		t.Errorf("refused sync left state: key registered %v, %d positions, synced to %d",
			ok, len(f.bank.Positions[tbPool]), f.bank.LastSyncedEpoch)
	}
}

// TestSyncRejectsUnsignedKeyGeometry: the signed epoch digest carries the
// next key's point, threshold and committee size, so a Sync that
// registers the right point under a different threshold or committee size
// is refused and registers nothing.
func TestSyncRejectsUnsignedKeyGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*tsig.GroupKey)
	}{
		{"threshold", func(k *tsig.GroupKey) { k.Threshold = 1 }},
		{"size", func(k *tsig.GroupKey) { k.N = 100 }},
	} {
		f := newBankFixture(t)
		a := f.syncPart(1, validPayload(1))
		tc.edit(&a.NextKey)
		tx := syncTx("s1", a)
		f.submitAndRun(t, tx, 20*time.Second)
		f.chain.Stop()
		if tx.Status != TxFailed || !errors.Is(tx.Err, ErrBadSyncSignature) {
			t.Fatalf("%s swapped: status=%v err=%v, want ErrBadSyncSignature", tc.name, tx.Status, tx.Err)
		}
		if _, ok := f.bank.groupKeys[2]; ok {
			t.Errorf("%s swapped: a key was registered for epoch 2", tc.name)
		}
	}
}

// TestMassSyncAppliesMultipleEpochs: a mass-sync is the held Sync of a
// skipped epoch followed by the next epoch's, each signed by its own
// committee; the second depends on the first, so the key chain accepts
// both and both epochs pay out.
func TestMassSyncAppliesMultipleEpochs(t *testing.T) {
	f := newBankFixture(t)
	dep := &Tx{ID: "d1", From: "alice", To: BankAddress, Method: "deposit",
		Args: DepositArgs{Epoch: 1, Amount0: u256.FromUint64(500), Amount1: u256.Zero}}
	dep2 := &Tx{ID: "d2", From: "bob", To: BankAddress, Method: "deposit",
		Args: DepositArgs{Epoch: 2, Amount0: u256.FromUint64(400), Amount1: u256.Zero}}
	f.sim.After(time.Second, func() { f.chain.Submit(dep); f.chain.Submit(dep2) })
	f.sim.RunUntil(20 * time.Second)

	p1 := &summary.SyncPayload{Epoch: 1, PoolID: tbPool,
		Payouts:      []summary.PayoutEntry{{User: "alice", Amount0: u256.FromUint64(450)}},
		PoolReserve0: u256.FromUint64(50)}
	p2 := &summary.SyncPayload{Epoch: 2, PoolID: tbPool,
		Payouts:      []summary.PayoutEntry{{User: "bob", Amount0: u256.FromUint64(380)}},
		PoolReserve0: u256.FromUint64(70)}
	held, next := syncTx("ms-e1", f.syncPart(1, p1)), syncTx("ms-e2", f.syncPart(2, p2))
	next.DependsOn = []string{held.ID}
	f.sim.After(time.Second, func() { f.chain.Submit(next); f.chain.Submit(held) })
	f.sim.RunUntil(60 * time.Second)
	f.chain.Stop()
	if held.Status != TxConfirmed || next.Status != TxConfirmed {
		t.Fatalf("mass-sync failed: %v / %v", held.Err, next.Err)
	}
	if f.bank.LastSyncedEpoch != 2 {
		t.Errorf("LastSyncedEpoch = %d, want 2", f.bank.LastSyncedEpoch)
	}
	if got := f.t0.Ledger.BalanceOf(BankAddress); !got.Eq(u256.FromUint64(70)) {
		t.Errorf("bank retains %s, want final pool reserve 70", got)
	}
	if _, ok := f.bank.groupKeys[3]; !ok {
		t.Error("mass-sync should register the key for epoch 3")
	}
}

// TestSyncIdempotentPerEpoch: a second Sync of an applied epoch is
// refused, so nobody is paid twice.
func TestSyncIdempotentPerEpoch(t *testing.T) {
	f := newBankFixture(t)
	f.deposit(t)
	p := validPayload(1)
	tx1, tx2 := syncTx("s1", f.syncPart(1, p)), syncTx("s2", f.syncPart(1, p))
	f.sim.After(time.Second, func() { f.chain.Submit(tx1); f.chain.Submit(tx2) })
	f.sim.RunUntil(40 * time.Second)
	f.chain.Stop()
	if tx1.Status != TxConfirmed || tx2.Status != TxFailed || !errors.Is(tx2.Err, ErrEpochAlreadySync) {
		t.Fatalf("sync statuses: %v / %v (%v / %v), want the duplicate refused", tx1.Status, tx2.Status, tx1.Err, tx2.Err)
	}
	// The duplicate must not pay alice twice: 1M - 500 + 300.
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_800)) {
		t.Errorf("alice token0 = %s after duplicate sync", got)
	}
}

func TestFlashLoanOnBank(t *testing.T) {
	f := newBankFixture(t)
	// Seed the bank with pool reserves.
	if err := f.t0.Ledger.Mint("faucet", BankAddress, u256.FromUint64(100_000)); err != nil {
		t.Fatal(err)
	}
	f.bank.poolCreated = true
	f.bank.FeePips = 3000
	f.bank.Reserves[tbPool] = PoolReserves{Reserve0: u256.FromUint64(100_000)}

	var received u256.Int
	tx := &Tx{ID: "f1", From: "alice", To: BankAddress, Method: "flash",
		Args: FlashArgs{Amount0: u256.FromUint64(10_000),
			Callback: func(a0, a1 u256.Int) (u256.Int, u256.Int) {
				received = a0
				// Repay principal + 0.3% fee.
				return u256.FromUint64(10_030), u256.Zero
			}}}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxConfirmed {
		t.Fatalf("flash failed: %v", tx.Err)
	}
	if !received.Eq(u256.FromUint64(10_000)) {
		t.Errorf("callback received %s", received)
	}
	if got := f.bank.Reserves[tbPool].Reserve0; !got.Eq(u256.FromUint64(100_030)) {
		t.Errorf("pool reserve after flash = %s", got)
	}
	// alice paid the 30-token fee.
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_970)) {
		t.Errorf("alice balance = %s", got)
	}
}

func TestFlashLoanNotRepaidReverts(t *testing.T) {
	f := newBankFixture(t)
	if err := f.t0.Ledger.Mint("faucet", BankAddress, u256.FromUint64(100_000)); err != nil {
		t.Fatal(err)
	}
	f.bank.poolCreated = true
	f.bank.FeePips = 3000
	f.bank.Reserves[tbPool] = PoolReserves{Reserve0: u256.FromUint64(100_000)}
	tx := &Tx{ID: "f1", From: "alice", To: BankAddress, Method: "flash",
		Args: FlashArgs{Amount0: u256.FromUint64(10_000),
			Callback: func(a0, a1 u256.Int) (u256.Int, u256.Int) {
				return a0, u256.Zero // principal only, no fee
			}}}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrFlashNotRepaid) {
		t.Fatalf("status=%v err=%v", tx.Status, tx.Err)
	}
	if got := f.t0.Ledger.BalanceOf(BankAddress); !got.Eq(u256.FromUint64(100_000)) {
		t.Errorf("bank balance after inverted flash = %s", got)
	}
}

// TestFlashLoanLargeAmountFee pins the flash fee to the full-width product:
// at 2^250 and 3000 pips, amount·fee wraps modulo 2^256, and a repayment of
// principal plus that wrapped fee must still revert.
func TestFlashLoanLargeAmountFee(t *testing.T) {
	f := newBankFixture(t)
	amount := u256.Shl(u256.One, 250)
	pips := u256.FromUint64(3000)
	wrappedFee := u256.DivRoundingUp(u256.Mul(amount, pips), u256.FromUint64(1_000_000))
	if err := f.t0.Ledger.Mint("faucet", BankAddress, amount); err != nil {
		t.Fatal(err)
	}
	if err := f.t0.Ledger.Mint("faucet", "alice", wrappedFee); err != nil {
		t.Fatal(err)
	}
	f.bank.poolCreated = true
	f.bank.FeePips = 3000
	f.bank.Reserves[tbPool] = PoolReserves{Reserve0: amount}
	tx := &Tx{ID: "f1", From: "alice", To: BankAddress, Method: "flash",
		Args: FlashArgs{Amount0: amount,
			Callback: func(a0, a1 u256.Int) (u256.Int, u256.Int) {
				return u256.Add(a0, wrappedFee), u256.Zero
			}}}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrFlashNotRepaid) {
		t.Fatalf("status=%v err=%v, want ErrFlashNotRepaid", tx.Status, tx.Err)
	}
	if got := f.t0.Ledger.BalanceOf(BankAddress); !got.Eq(amount) {
		t.Errorf("bank balance after inverted flash = %s", got)
	}
}
