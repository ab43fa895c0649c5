package engine

import (
	"bytes"
	"fmt"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// sealRun drives one engine through epochs of identical Zipf traffic. In
// pipelined mode each epoch is sealed and finalized on a separate
// goroutine while the next epoch begins executing against the advanced
// canonical state — exactly the overlap the lifecycle pipeline creates —
// with the previous epoch's Finalize joined only when the next epoch
// ends (a depth-2 window). Returns the per-epoch summary roots.
func sealRun(t *testing.T, pipelined bool, seed int64, pools, shards, epochs, rounds, txPerRound int) [][32]byte {
	t.Helper()
	eng, err := New(Config{Seed: seed, NumPools: pools, NumShards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wcfg := workload.DefaultMultiConfig(seed, pools)
	wcfg.PoolIDs = eng.PoolIDs()
	gen := workload.NewMulti(wcfg)
	dep := u256.FromUint64(1 << 40)

	roots := make([][32]byte, epochs)
	var pending *SealedEpoch
	var pendingIdx int
	resCh := make(chan *EpochResult, 1)
	joinPending := func() {
		if pending == nil {
			return
		}
		roots[pendingIdx] = (<-resCh).SummaryRoot
		pending = nil
	}
	for e := 1; e <= epochs; e++ {
		deps := UniformDeposits(eng.PoolIDs(), gen.Users(), dep, dep)
		if err := eng.BeginEpoch(uint64(e), deps); err != nil {
			t.Fatalf("BeginEpoch: %v", err)
		}
		for r := 1; r <= rounds; r++ {
			batch := make([]*summary.Tx, txPerRound)
			for i := range batch {
				batch[i] = gen.Next()
			}
			if _, err := eng.ExecuteRound(batch, uint64(r)); err != nil {
				t.Fatalf("ExecuteRound: %v", err)
			}
		}
		if !pipelined {
			roots[e-1] = closeEpoch(t, eng, []byte("next-key")).SummaryRoot
			continue
		}
		joinPending() // stage capacity 1: finalizations stay sequential
		sealed, err := eng.SealEpoch([]byte("next-key"))
		if err != nil {
			t.Fatalf("SealEpoch: %v", err)
		}
		pending, pendingIdx = sealed, e-1
		go func() { resCh <- sealed.Finalize() }()
	}
	joinPending()
	return roots
}

// TestSealFinalizeOverlapMatchesSequential pins the pipelined engine
// hand-off: finalizing sealed epochs concurrently with the next epoch's
// execution yields bit-identical summary roots to finalizing each one
// straight after its seal,
// across seeds and shard counts. Run with -race this also proves the
// sealed state is genuinely frozen (no writes race the finalizer).
func TestSealFinalizeOverlapMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		for _, shards := range []int{1, 4} {
			base := sealRun(t, false, seed, 24, shards, 3, 4, 300)
			over := sealRun(t, true, seed, 24, shards, 3, 4, 300)
			for e := range base {
				if base[e] != over[e] {
					t.Errorf("seed=%d shards=%d: epoch %d root diverged between sequential and overlapped Finalize",
						seed, shards, e+1)
				}
			}
		}
	}
}

// TestSealEpochAdvancesCanonicalState checks that sealing (without
// finalizing) already advances the canonical pools: the next epoch's
// lazily created executors must snapshot the sealed epoch's final,
// settled state.
func TestSealEpochAdvancesCanonicalState(t *testing.T) {
	eng, err := New(Config{Seed: 7, NumPools: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	pid := eng.PoolIDs()[0]
	before := eng.Pool(pid).Reserve0
	if err := eng.BeginEpoch(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddDeposit(pid, "u", u256.FromUint64(1<<40), u256.FromUint64(1<<40)); err != nil {
		t.Fatal(err)
	}
	tx := &summary.Tx{ID: "s1", Kind: gasmodel.KindSwap, User: "u", PoolID: pid,
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1_000_000)}
	if _, err := eng.ExecuteRound([]*summary.Tx{tx}, 1); err != nil {
		t.Fatal(err)
	}
	sealed, err := eng.SealEpoch([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pool(pid).Reserve0.Eq(before) {
		t.Error("canonical reserves unchanged after seal; want the epoch's trades applied")
	}
	sealedPool := eng.Pool(pid)
	sealedBytes := amm.AppendPool(nil, sealedPool)
	// Lifecycle guard: sealing twice is an error.
	if _, err := eng.SealEpoch([]byte("k")); err == nil {
		t.Error("second SealEpoch should fail (no epoch in progress)")
	}
	// The next epoch opens against the sealed state while the finalize
	// is still outstanding.
	if err := eng.BeginEpoch(2, nil); err != nil {
		t.Fatalf("BeginEpoch after seal: %v", err)
	}
	if err := eng.AddDeposit(pid, "u", u256.FromUint64(1<<40), u256.FromUint64(1<<40)); err != nil {
		t.Fatal(err)
	}
	next := *tx
	next.ID = "s2"
	if r, err := eng.ExecuteRound([]*summary.Tx{&next}, 1); err != nil || len(r.Included) != 1 {
		t.Fatalf("epoch 2 swap: included %v, err %v", r, err)
	}
	res := sealed.Finalize()
	// The next epoch trades on a clone: the sealed pool Finalize reads
	// is byte for byte the state the seal left.
	if !bytes.Equal(amm.AppendPool(nil, sealedPool), sealedBytes) {
		t.Error("the next epoch's execution wrote the sealed pool")
	}
	if res.Epoch != 1 || len(res.Payloads) != 2 {
		t.Fatalf("finalized epoch %d with %d payloads, want epoch 1 with 2", res.Epoch, len(res.Payloads))
	}
	closeEpoch(t, eng, []byte("k2"))
}

// TestShardStatsAccounting pins the traced execute path: the epoch's
// execute-shard spans cover every accepted transaction exactly once, gas
// follows the gas model, pool counts match active executors, and each
// shard that did work records exactly one span — while an untraced
// engine seals without recording anything.
func TestShardStatsAccounting(t *testing.T) {
	tr := trace.New(8)
	eng, err := New(Config{NumPools: 8, NumShards: 4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ids := eng.PoolIDs()
	dep := u256.FromUint64(1 << 40)
	deps := UniformDeposits(ids, []string{"trader"}, dep, dep)
	if err := eng.BeginEpoch(1, deps); err != nil {
		t.Fatal(err)
	}
	var batch []*summary.Tx
	for i := 0; i < 40; i++ {
		batch = append(batch, &summary.Tx{
			ID: fmt.Sprintf("swap-%02d", i), Kind: gasmodel.KindSwap, User: "trader",
			PoolID: ids[i%len(ids)], ZeroForOne: i%2 == 0, ExactIn: true,
			Amount: u256.FromUint64(5_000),
		})
	}
	res, err := eng.ExecuteRound(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := eng.SealEpoch(nil)
	if err != nil {
		t.Fatal(err)
	}
	totTxs, totPools := 0, 0
	var totGas uint64
	seen := make(map[int32]bool)
	for _, rec := range tr.Snapshot(0) {
		if rec.Stage != trace.StageExecute || rec.Epoch != 1 {
			continue
		}
		if seen[rec.Shard] || rec.Shard < 0 || rec.Shard >= 4 {
			t.Fatalf("unexpected or repeated span for shard %d", rec.Shard)
		}
		seen[rec.Shard] = true
		totTxs += rec.Txs
		totGas += rec.Gas
		totPools += rec.Pools
	}
	if totTxs != len(res.Included) {
		t.Fatalf("spans cover %d txs, engine accepted %d", totTxs, len(res.Included))
	}
	if want := uint64(totTxs) * gasmodel.UniswapOpGas(gasmodel.KindSwap); totGas != want {
		t.Fatalf("spans gas = %d, want %d", totGas, want)
	}
	if totPools != len(ids) {
		t.Fatalf("spans cover %d active pools, want %d", totPools, len(ids))
	}
	sealed.Finalize()

	// An untraced engine seals and finalizes with no tracer to feed.
	plain, err := New(Config{NumPools: 2, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.BeginEpoch(1, nil); err != nil {
		t.Fatal(err)
	}
	ps, err := plain.SealEpoch(nil)
	if err != nil {
		t.Fatal(err)
	}
	ps.Finalize()
}
