package sidechain

import (
	"errors"
	"fmt"
	"testing"

	"ammboost/internal/crypto/merkle"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

func mkTxs(n int, prefix string) []*summary.Tx {
	txs := make([]*summary.Tx, n)
	for i := range txs {
		txs[i] = &summary.Tx{
			ID: fmt.Sprintf("%s-%d", prefix, i), Kind: gasmodel.KindSwap,
			User: "alice", Amount: u256.FromUint64(uint64(i + 1)),
		}
	}
	return txs
}

// newMeta builds a meta-block with the reference transaction root.
func newMeta(epoch, round uint64, proposer string, parent [32]byte, txs []*summary.Tx) *MetaBlock {
	return NewMetaBlock(epoch, round, proposer, parent, txs, TxRoot(txs))
}

func TestMetaBlockSize(t *testing.T) {
	txs := mkTxs(3, "a")
	b := newMeta(1, 1, "leader", [32]byte{}, txs)
	want := metaBlockHeaderBytes + 3*gasmodel.MainnetSwapTxBytes
	if b.SizeBytes != want {
		t.Errorf("size = %d, want %d", b.SizeBytes, want)
	}
	if b.TxRoot == [32]byte{} {
		t.Error("tx root not computed")
	}
}

func TestLedgerChaining(t *testing.T) {
	l := NewLedger([32]byte{0xaa})
	b1 := newMeta(1, 1, "leader", l.TipHash(), mkTxs(2, "a"))
	if err := l.AppendMeta(b1); err != nil {
		t.Fatal(err)
	}
	// A block not referencing the tip is rejected.
	bad := newMeta(1, 2, "leader", [32]byte{0xbb}, mkTxs(1, "b"))
	if err := l.AppendMeta(bad); !errors.Is(err, ErrNotChained) {
		t.Errorf("want ErrNotChained, got %v", err)
	}
	b2 := newMeta(1, 2, "leader", l.TipHash(), mkTxs(1, "b"))
	if err := l.AppendMeta(b2); err != nil {
		t.Fatal(err)
	}
	// Epoch going backwards is rejected.
	old := newMeta(0, 3, "leader", l.TipHash(), nil)
	if err := l.AppendMeta(old); !errors.Is(err, ErrEpochMismatch) {
		t.Errorf("want ErrEpochMismatch, got %v", err)
	}
	if len(l.MetaBlocks(1)) != 2 || l.TotalTxs() != 3 {
		t.Errorf("blocks=%d txs=%d", len(l.MetaBlocks(1)), l.TotalTxs())
	}
}

func TestPruningReclaimsBytes(t *testing.T) {
	l := NewLedger([32]byte{})
	var epochBytes int
	for r := uint64(1); r <= 5; r++ {
		b := newMeta(1, r, "leader", l.TipHash(), mkTxs(10, fmt.Sprintf("r%d", r)))
		epochBytes += b.SizeBytes
		if err := l.AppendMeta(b); err != nil {
			t.Fatal(err)
		}
	}
	payload := &summary.SyncPayload{Epoch: 1, Payouts: []summary.PayoutEntry{{User: "alice"}}}
	sb := NewSummaryBlocks(1, []*summary.SyncPayload{payload}, l.MetaBlocks(1))[0]
	l.AppendSummary(sb)

	if got := l.SizeBytes(); got != epochBytes+sb.SizeBytes {
		t.Errorf("pre-prune size = %d, want %d", got, epochBytes+sb.SizeBytes)
	}
	// Pruning before the sync confirms is refused (public verifiability).
	if err := l.Prune(1, false); !errors.Is(err, ErrSyncNotAnchored) {
		t.Errorf("want ErrSyncNotAnchored, got %v", err)
	}
	if err := l.Prune(1, true); err != nil {
		t.Fatal(err)
	}
	if got := l.SizeBytes(); got != sb.SizeBytes {
		t.Errorf("post-prune size = %d, want only the summary %d", got, sb.SizeBytes)
	}
	if l.PrunedBytes() != epochBytes {
		t.Errorf("pruned bytes = %d, want %d", l.PrunedBytes(), epochBytes)
	}
	if l.UnprunedBytes() != epochBytes+sb.SizeBytes {
		t.Errorf("unpruned baseline = %d", l.UnprunedBytes())
	}
	// Double prune is an error.
	if err := l.Prune(1, true); !errors.Is(err, ErrAlreadyPruned) {
		t.Errorf("want ErrAlreadyPruned, got %v", err)
	}
	// Summaries survive pruning.
	if len(l.Summaries()) != 1 {
		t.Error("summary pruned")
	}
}

func TestVerifyTxInclusion(t *testing.T) {
	l := NewLedger([32]byte{})
	txs := mkTxs(7, "x")
	b := newMeta(1, 1, "leader", l.TipHash(), txs)
	if err := l.AppendMeta(b); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyTxInEpoch(txs[3], 1); err != nil {
		t.Errorf("inclusion proof failed: %v", err)
	}
	ghost := &summary.Tx{ID: "ghost", Kind: gasmodel.KindSwap, User: "bob"}
	if err := l.VerifyTxInEpoch(ghost, 1); !errors.Is(err, ErrUnknownEpoch) {
		t.Errorf("ghost tx: %v", err)
	}
}

func TestPeakTracksMaximum(t *testing.T) {
	l := NewLedger([32]byte{})
	for e := uint64(1); e <= 3; e++ {
		for r := uint64(1); r <= 3; r++ {
			b := newMeta(e, r, "leader", l.TipHash(), mkTxs(5, fmt.Sprintf("e%dr%d", e, r)))
			if err := l.AppendMeta(b); err != nil {
				t.Fatal(err)
			}
		}
		payload := &summary.SyncPayload{Epoch: e}
		l.AppendSummary(NewSummaryBlocks(e, []*summary.SyncPayload{payload}, l.MetaBlocks(e))[0])
		if err := l.Prune(e, true); err != nil {
			t.Fatal(err)
		}
	}
	if l.PeakBytes() <= l.SizeBytes() {
		t.Errorf("peak %d should exceed post-prune size %d", l.PeakBytes(), l.SizeBytes())
	}
	if l.SizeBytes() != 3*l.Summaries()[0].SizeBytes {
		t.Errorf("retained = %d, want 3 empty summaries", l.SizeBytes())
	}
}

func TestSummaryBlockCommitsToMetas(t *testing.T) {
	l := NewLedger([32]byte{})
	b1 := newMeta(1, 1, "leader", l.TipHash(), mkTxs(2, "a"))
	_ = l.AppendMeta(b1)
	b2 := newMeta(1, 2, "leader", l.TipHash(), mkTxs(2, "b"))
	_ = l.AppendMeta(b2)
	payloads := []*summary.SyncPayload{{Epoch: 1, PoolID: "p0"}, {Epoch: 1, PoolID: "p1"}}
	sbs := NewSummaryBlocks(1, payloads, l.MetaBlocks(1))
	sb, sb2 := sbs[0], NewSummaryBlocks(1, payloads, l.MetaBlocks(1)[:1])[0]
	if sbs[1].MetaRoot != sb.MetaRoot || sbs[1].Payload != payloads[1] {
		t.Error("an epoch's summary-blocks must share the MetaRoot, one per payload")
	}
	if sb.MetaRoot == sb2.MetaRoot {
		t.Error("summary must commit to the exact meta-block set")
	}
	if sb.NumMeta != 2 {
		t.Errorf("NumMeta = %d", sb.NumMeta)
	}
}

// refTxRoot returns the root of the proof path's tree: merkle.New over
// the transaction hashes. TxRoot and the engine's fold must equal it.
func refTxRoot(txs []*summary.Tx) [32]byte {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		h := tx.Hash()
		leaves[i] = h[:]
	}
	return merkle.New(leaves).Root()
}

// swapHotTxs generates n transactions of swap-hot's traffic: the Table
// VII mix over 8 Zipf-weighted pools.
func swapHotTxs(n int) []*summary.Tx {
	gen := workload.NewMulti(workload.DefaultMultiConfig(1, 8))
	txs := make([]*summary.Tx, n)
	for i := range txs {
		txs[i] = gen.Next()
	}
	return txs
}

// TestTxRootMatchesTree pins TxRoot to the proof path's tree at every
// shape of the odd-node promotion, and to one scratch allocation.
func TestTxRootMatchesTree(t *testing.T) {
	txs := swapHotTxs(1025)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1023, 1024, 1025} {
		if got, want := TxRoot(txs[:n]), refTxRoot(txs[:n]); got != want {
			t.Errorf("n=%d: TxRoot %x, tree root %x", n, got[:8], want[:8])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { TxRoot(txs[:1024]) }); allocs > 1 {
		t.Errorf("TxRoot over 1024 txs: %.1f allocs, want <= 1", allocs)
	}
}

// BenchmarkTxRoot times the reference meta-block root over one 1024-tx
// round of swap-hot traffic.
func BenchmarkTxRoot(b *testing.B) {
	txs := swapHotTxs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TxRoot(txs)
	}
}
