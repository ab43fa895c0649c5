package mainchain

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/sim"
	"ammboost/internal/u256"
)

// counter is a minimal contract for chain-machinery tests.
type counter struct {
	count int
	fail  bool
}

func (c *counter) Name() string { return "counter" }
func (c *counter) Execute(env *Env, method string, args any) error {
	if err := env.Gas.Charge(gasmodel.TxBaseGas); err != nil {
		return err
	}
	if c.fail {
		return errors.New("boom")
	}
	c.count++
	return nil
}

func newTestChain(t *testing.T) (*sim.Simulator, *Chain) {
	t.Helper()
	s := sim.New()
	c := New(s, DefaultConfig())
	return s, c
}

func TestBlockCadence(t *testing.T) {
	s, c := newTestChain(t)
	s.RunUntil(61 * time.Second)
	if got := c.Height(); got != 5 {
		t.Errorf("height after 61s = %d, want 5 (12s blocks)", got)
	}
	c.Stop()
}

func TestTxInclusionAndConfirmation(t *testing.T) {
	s, c := newTestChain(t)
	cnt := &counter{}
	c.Deploy(cnt)
	var confirmedAt time.Duration
	tx := &Tx{ID: "t1", From: "alice", To: "counter", Method: "inc", Size: 100,
		OnConfirmed: func(tx *Tx) { confirmedAt = s.Now() }}
	s.After(time.Second, func() { c.Submit(tx) })
	s.RunUntil(30 * time.Second)
	c.Stop()
	if tx.Status != TxConfirmed {
		t.Fatalf("status = %v, err %v", tx.Status, tx.Err)
	}
	if cnt.count != 1 {
		t.Errorf("contract executed %d times", cnt.count)
	}
	// Submitted at 1s, propagated by 2.5s, included in the block mined at
	// 12s, receipt at 13.5s.
	if tx.BlockNum != 1 {
		t.Errorf("block = %d", tx.BlockNum)
	}
	if confirmedAt != 13500*time.Millisecond {
		t.Errorf("confirmed at %s", confirmedAt)
	}
	if tx.ConfirmedAt != confirmedAt {
		t.Errorf("ConfirmedAt %s != callback time %s", tx.ConfirmedAt, confirmedAt)
	}
}

func TestPropagationPushesToNextBlock(t *testing.T) {
	s, c := newTestChain(t)
	c.Deploy(&counter{})
	tx := &Tx{ID: "t1", From: "a", To: "counter", Method: "inc"}
	// Submitted 0.2s before the boundary: not yet propagated, so it lands
	// in block 2.
	s.After(11800*time.Millisecond, func() { c.Submit(tx) })
	s.RunUntil(30 * time.Second)
	c.Stop()
	if tx.BlockNum != 2 {
		t.Errorf("block = %d, want 2", tx.BlockNum)
	}
}

func TestDependencyOrdering(t *testing.T) {
	s, c := newTestChain(t)
	c.Deploy(&counter{})
	t1 := &Tx{ID: "t1", From: "a", To: "counter", Method: "inc"}
	t2 := &Tx{ID: "t2", From: "a", To: "counter", Method: "inc", DependsOn: []string{"t1"}}
	t3 := &Tx{ID: "t3", From: "a", To: "counter", Method: "inc", DependsOn: []string{"t2"}}
	s.After(time.Second, func() {
		// Submitted together; dependencies force one block between them.
		c.Submit(t3)
		c.Submit(t2)
		c.Submit(t1)
	})
	s.RunUntil(80 * time.Second)
	c.Stop()
	if t1.BlockNum >= t2.BlockNum || t2.BlockNum >= t3.BlockNum {
		t.Errorf("blocks: t1=%d t2=%d t3=%d, want strictly increasing", t1.BlockNum, t2.BlockNum, t3.BlockNum)
	}
}

func TestFailedTxIncludedWithError(t *testing.T) {
	s, c := newTestChain(t)
	c.Deploy(&counter{fail: true})
	tx := &Tx{ID: "t1", From: "a", To: "counter", Method: "inc"}
	s.After(time.Second, func() { c.Submit(tx) })
	s.RunUntil(20 * time.Second)
	c.Stop()
	if tx.Status != TxFailed || tx.Err == nil {
		t.Errorf("status=%v err=%v", tx.Status, tx.Err)
	}
	if tx.GasUsed == 0 {
		t.Error("reverted tx still consumes gas")
	}
}

func TestUnknownContract(t *testing.T) {
	s, c := newTestChain(t)
	tx := &Tx{ID: "t1", From: "a", To: "ghost", Method: "x"}
	s.After(time.Second, func() { c.Submit(tx) })
	s.RunUntil(20 * time.Second)
	c.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrUnknownContract) {
		t.Errorf("status=%v err=%v", tx.Status, tx.Err)
	}
}

func TestGasLimitDefersTxs(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	cfg.GasLimit = 50_000 // fits two 21k txs per block
	c := New(s, cfg)
	c.Deploy(&counter{})
	var txs []*Tx
	s.After(time.Second, func() {
		for i := 0; i < 5; i++ {
			tx := &Tx{ID: fmt.Sprintf("t%d", i), From: "a", To: "counter", Method: "inc"}
			txs = append(txs, tx)
			c.Submit(tx)
		}
	})
	s.RunUntil(60 * time.Second)
	c.Stop()
	perBlock := map[uint64]int{}
	for _, tx := range txs {
		if tx.Status != TxConfirmed {
			t.Fatalf("%s not confirmed", tx.ID)
		}
		perBlock[tx.BlockNum]++
	}
	for b, n := range perBlock {
		if n > 3 {
			t.Errorf("block %d has %d txs; gas limit should cap at 3 (2 full + 1 boundary)", b, n)
		}
	}
	if len(perBlock) < 2 {
		t.Errorf("txs should spill across blocks, got %v", perBlock)
	}
}

// gasBurner is a contract that charges exactly the gas it is asked to and
// counts how often it ran.
type gasBurner struct{ calls int }

func (b *gasBurner) Name() string { return "burner" }
func (b *gasBurner) Execute(env *Env, _ string, args any) error {
	b.calls++
	return env.Gas.Charge(args.(uint64))
}

// TestDeclaredTxWaitsUnexecuted: a transaction whose declared gas exceeds
// what the block has left is not run — the contract is never called — and
// lands in the next block with room, while a smaller one behind it still
// fills the gap.
func TestDeclaredTxWaitsUnexecuted(t *testing.T) {
	s, c := newTestChain(t)
	burner := &gasBurner{}
	c.Deploy(burner)
	var callsAfterBlock []int
	c.OnBlock = append(c.OnBlock, func(*Block) { callsAfterBlock = append(callsAfterBlock, burner.calls) })
	filler := &Tx{ID: "filler", From: "a", To: "burner", Args: uint64(20_000_000)}
	big := &Tx{ID: "big", From: "a", To: "burner", Args: uint64(12_000_000), GasLimit: 15_000_000}
	small := &Tx{ID: "small", From: "a", To: "burner", Args: uint64(5_000_000), GasLimit: 5_000_000}
	s.After(time.Second, func() {
		c.Submit(filler)
		c.Submit(big)
		c.Submit(small)
	})
	s.RunUntil(30 * time.Second)
	c.Stop()
	if len(callsAfterBlock) != 2 || callsAfterBlock[0] != 2 || callsAfterBlock[1] != 3 {
		t.Fatalf("contract calls after each block = %v, want [2 3]: the waiting transaction must not execute", callsAfterBlock)
	}
	for _, want := range []struct {
		tx    *Tx
		block uint64
		gas   uint64
	}{{filler, 1, 20_000_000}, {small, 1, 5_000_000}, {big, 2, 12_000_000}} {
		if tx := want.tx; tx.Status != TxConfirmed || tx.BlockNum != want.block || tx.GasUsed != want.gas {
			t.Errorf("%s: status %v block %d gas %d (err %v), want confirmed in block %d using %d",
				tx.ID, tx.Status, tx.BlockNum, tx.GasUsed, tx.Err, want.block, want.gas)
		}
	}
}

// TestUnderDeclaredTxRevertsOnce: running out of one's own declared gas is
// a final revert the first time the transaction runs — even in a
// non-empty block, where an undeclared transaction would be retried — and
// the transaction is never queued again.
func TestUnderDeclaredTxRevertsOnce(t *testing.T) {
	s, c := newTestChain(t)
	burner := &gasBurner{}
	c.Deploy(burner)
	tx := &Tx{ID: "short", From: "a", To: "burner", Args: uint64(3_000_000), GasLimit: 2_000_000}
	s.After(time.Second, func() {
		c.Submit(&Tx{ID: "filler", From: "a", To: "burner", Args: uint64(1_000_000)})
		c.Submit(tx)
	})
	s.RunUntil(40 * time.Second)
	c.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrOutOfGas) || tx.BlockNum != 1 {
		t.Fatalf("status %v err %v block %d, want an out-of-gas revert in block 1", tx.Status, tx.Err, tx.BlockNum)
	}
	if burner.calls != 2 || c.PendingTxs() != 0 {
		t.Errorf("%d contract calls over 3 blocks, %d pending: the reverted transaction ran again", burner.calls, c.PendingTxs())
	}
}

// TestReorgKeepsDeclaredGas: a reorged transaction returns to the mempool
// with its declared limit and is packed and metered by it again.
func TestReorgKeepsDeclaredGas(t *testing.T) {
	s, c := newTestChain(t)
	c.Deploy(&gasBurner{})
	tx := &Tx{ID: "t1", From: "a", To: "burner", Args: uint64(4_000_000), GasLimit: 5_000_000}
	s.After(time.Second, func() { c.Submit(tx) })
	s.After(20*time.Second, func() {
		// Queued ahead of the returning transaction: the re-mined block 1
		// has no room left for a declared 5M.
		c.Submit(&Tx{ID: "filler", From: "a", To: "burner", Args: uint64(26_000_000)})
		if err := c.Reorg(1); err != nil {
			t.Errorf("Reorg: %v", err)
		}
		if tx.Status != TxPending || tx.GasLimit != 5_000_000 {
			t.Errorf("after reorg: status %v, declared gas %d", tx.Status, tx.GasLimit)
		}
	})
	s.RunUntil(50 * time.Second)
	c.Stop()
	if tx.Status != TxConfirmed || tx.BlockNum != 2 || tx.GasUsed != 4_000_000 {
		t.Errorf("status %v block %d gas %d, want re-confirmed in block 2 (block 1 had no room for the declared 5M)",
			tx.Status, tx.BlockNum, tx.GasUsed)
	}
}

func TestChainGrowthAccounting(t *testing.T) {
	s, c := newTestChain(t)
	c.Deploy(&counter{})
	s.After(time.Second, func() {
		c.Submit(&Tx{ID: "t1", From: "a", To: "counter", Method: "inc", Size: 500})
	})
	s.RunUntil(25 * time.Second)
	c.Stop()
	// Two blocks of header bytes plus the tx.
	want := 2*c.Config().BlockHeaderBytes + 500
	if c.TotalBytes != want {
		t.Errorf("TotalBytes = %d, want %d", c.TotalBytes, want)
	}
	if c.TotalGas == 0 {
		t.Error("TotalGas should account executed gas")
	}
}

func TestReorgReturnsTxsToMempool(t *testing.T) {
	s, c := newTestChain(t)
	cnt := &counter{}
	c.Deploy(cnt)
	tx := &Tx{ID: "t1", From: "a", To: "counter", Method: "inc", Size: 100}
	s.After(time.Second, func() { c.Submit(tx) })
	s.After(20*time.Second, func() {
		if err := c.Reorg(1); err != nil {
			t.Errorf("Reorg: %v", err)
		}
	})
	s.RunUntil(40 * time.Second)
	c.Stop()
	// The tx was re-included after the reorg (heights restart at the cut,
	// as on a real chain re-mining the abandoned heights).
	if tx.Status != TxConfirmed {
		t.Fatalf("tx not re-confirmed after reorg: %v", tx.Status)
	}
	if tx.ConfirmedAt <= 20*time.Second {
		t.Errorf("re-confirmation at %s should postdate the reorg", tx.ConfirmedAt)
	}
	if err := c.Reorg(1000); !errors.Is(err, ErrReorgTooDeep) {
		t.Errorf("deep reorg: %v", err)
	}
}

func TestERC20Contract(t *testing.T) {
	s, c := newTestChain(t)
	tok := NewERC20("A", "faucet")
	c.Deploy(tok)
	if err := tok.Ledger.Mint("faucet", "alice", u256.FromUint64(1000)); err != nil {
		t.Fatal(err)
	}
	approve := &Tx{ID: "ap", From: "alice", To: "A", Method: "approve",
		Args: ApproveArgs{Spender: "bob", Amount: u256.FromUint64(600)}}
	xfer := &Tx{ID: "tf", From: "bob", To: "A", Method: "transferFrom", DependsOn: []string{"ap"},
		Args: TransferArgs{Owner: "alice", To: "bob", Amount: u256.FromUint64(500)}}
	s.After(time.Second, func() { c.Submit(approve); c.Submit(xfer) })
	s.RunUntil(60 * time.Second)
	c.Stop()
	if xfer.Status != TxConfirmed {
		t.Fatalf("transferFrom failed: %v", xfer.Err)
	}
	if got := tok.Ledger.BalanceOf("bob"); !got.Eq(u256.FromUint64(500)) {
		t.Errorf("bob balance = %s", got)
	}
	if got := tok.Ledger.Allowance("alice", "bob"); !got.Eq(u256.FromUint64(100)) {
		t.Errorf("allowance = %s", got)
	}
	// Over-allowance transfer must revert.
	xfer2 := &Tx{ID: "tf2", From: "bob", To: "A", Method: "transferFrom",
		Args: TransferArgs{Owner: "alice", To: "bob", Amount: u256.FromUint64(200)}}
	s.After(time.Second, func() { c.Submit(xfer2) })
	// Note: chain stopped; resubmit on a fresh chain segment instead.
	if err := tok.Ledger.TransferFrom("bob", "alice", "bob", u256.FromUint64(200)); err == nil {
		t.Error("over-allowance should fail")
	}
}

func TestViewCall(t *testing.T) {
	_, c := newTestChain(t)
	cnt := &counter{}
	c.Deploy(cnt)
	if err := c.Call("counter", "inc", nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := c.Call("ghost", "x", nil); !errors.Is(err, ErrUnknownContract) {
		t.Errorf("unknown contract: %v", err)
	}
	c.Stop()
}
