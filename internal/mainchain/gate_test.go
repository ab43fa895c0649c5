package mainchain

import (
	"errors"
	"testing"
	"time"
)

// gateRun submits three transactions — the second depends on the first
// — at fixed virtual instants and runs the chain for a minute. gate, when
// set, is installed on every transaction. It returns the transactions
// and the virtual instant each OnConfirmed fired at (-1 if it never did).
func gateRun(t *testing.T, gate func(*Tx) func() error) ([]*Tx, []time.Duration) {
	t.Helper()
	s, c := newTestChain(t)
	c.Deploy(&counter{})
	txs := []*Tx{
		{ID: "a", From: "alice", To: "counter", Method: "inc", Size: 100},
		{ID: "b", From: "alice", To: "counter", Method: "inc", Size: 100, DependsOn: []string{"a"}},
		{ID: "c", From: "bob", To: "counter", Method: "inc", Size: 100},
	}
	fired := make([]time.Duration, len(txs))
	for i, tx := range txs {
		fired[i] = -1
		tx.OnConfirmed = func(*Tx) { fired[i] = s.Now() }
		if gate != nil {
			tx.Gate = gate(tx)
		}
		s.After(time.Duration(i+1)*5*time.Second, func() { c.Submit(tx) })
	}
	s.RunUntil(60 * time.Second)
	c.Stop()
	return txs, fired
}

// TestGatedTxLandsLikeUngated: a gate that holds a transaction's
// inclusion in wall-clock time — released from another goroutine — moves
// nothing virtual: every gated transaction lands in the same block, at
// the same virtual time, and confirms at the same instant as without the
// gate. Each gate runs once, at the block that includes its transaction.
func TestGatedTxLandsLikeUngated(t *testing.T) {
	plain, plainFired := gateRun(t, nil)
	calls := map[string]int{}
	gated, gatedFired := gateRun(t, func(tx *Tx) func() error {
		released := make(chan struct{})
		return func() error {
			calls[tx.ID]++
			go func() {
				time.Sleep(10 * time.Millisecond)
				close(released)
			}()
			<-released
			return nil
		}
	})
	for i, tx := range gated {
		want := plain[i]
		if tx.Status != TxConfirmed || want.Status != TxConfirmed {
			t.Fatalf("tx %s: status %v gated, %v ungated", tx.ID, tx.Status, want.Status)
		}
		if tx.BlockNum != want.BlockNum || tx.ConfirmedAt != want.ConfirmedAt || gatedFired[i] != plainFired[i] {
			t.Errorf("tx %s: gated block %d confirmed %v (fired %v), ungated block %d confirmed %v (fired %v)",
				tx.ID, tx.BlockNum, tx.ConfirmedAt, gatedFired[i], want.BlockNum, want.ConfirmedAt, plainFired[i])
		}
		if calls[tx.ID] != 1 || tx.Gate != nil {
			t.Errorf("tx %s: gate called %d times, cleared %v; want once, then cleared", tx.ID, calls[tx.ID], tx.Gate == nil)
		}
	}
}

// TestFailedGateKeepsTxOffChain: a gate that fails keeps its transaction
// off the chain for good — never included, OnConfirmed never fired, the
// error on Err — and a transaction depending on it never becomes
// eligible. An ungated transaction is untouched.
func TestFailedGateKeepsTxOffChain(t *testing.T) {
	errWrite := errors.New("write failed")
	txs, fired := gateRun(t, func(tx *Tx) func() error {
		if tx.ID != "a" {
			return nil
		}
		return func() error { return errWrite }
	})
	a, b, c := txs[0], txs[1], txs[2]
	if a.Status != TxPending || a.BlockNum != 0 || fired[0] >= 0 || !errors.Is(a.Err, errWrite) {
		t.Errorf("failed-gate tx: status %v block %d fired %v err %v; want pending, unincluded, unfired, the gate's error",
			a.Status, a.BlockNum, fired[0], a.Err)
	}
	if b.Status != TxPending || fired[1] >= 0 {
		t.Errorf("dependent tx: status %v fired %v; want it never eligible", b.Status, fired[1])
	}
	if c.Status != TxConfirmed || fired[2] < 0 {
		t.Errorf("independent tx: status %v fired %v; want confirmed", c.Status, fired[2])
	}
}
