package engine

import (
	"testing"

	"ammboost/internal/crypto/merkle"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// checkTxRoot asserts a round's folded TxRoot against the proof path's
// reference: a full merkle.New tree over the included transactions'
// hashes in submission order. chain.Fingerprint does not cover meta-block
// roots, so this is the check that pins them.
func checkTxRoot(t *testing.T, round uint64, res RoundResult) {
	t.Helper()
	leaves := make([][]byte, len(res.Included))
	for i, tx := range res.Included {
		h := tx.Hash()
		leaves[i] = h[:]
	}
	if want := merkle.New(leaves).Root(); res.TxRoot != want {
		t.Fatalf("round %d: TxRoot %x, reference tree root %x", round, res.TxRoot[:8], want[:8])
	}
}

// closeEpoch seals the running epoch and finalizes it straight away.
func closeEpoch(t testing.TB, eng *Engine, nextGroupKey []byte) *EpochResult {
	t.Helper()
	sealed, err := eng.SealEpoch(nextGroupKey)
	if err != nil {
		t.Fatalf("SealEpoch: %v", err)
	}
	return sealed.Finalize()
}

// runEpochs drives an engine through epochs of multi-pool Zipf traffic
// and returns the per-epoch summary roots plus the final pool roots.
func runEpochs(t *testing.T, pools, shards, epochs, roundsPerEpoch, txPerRound int, seed int64) ([][32]byte, [][32]byte, int) {
	t.Helper()
	eng, err := New(Config{Seed: seed, NumPools: pools, NumShards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if eng.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", eng.NumShards(), shards)
	}
	wcfg := workload.DefaultMultiConfig(seed, pools)
	wcfg.PoolIDs = eng.PoolIDs()
	gen := workload.NewMulti(wcfg)
	dep := u256.FromUint64(1 << 40)

	var summaryRoots [][32]byte
	rejected := 0
	for e := uint64(1); e <= uint64(epochs); e++ {
		deps := UniformDeposits(eng.PoolIDs(), gen.Users(), dep, dep)
		if err := eng.BeginEpoch(e, deps); err != nil {
			t.Fatalf("BeginEpoch: %v", err)
		}
		for r := uint64(1); r <= uint64(roundsPerEpoch); r++ {
			batch := make([]*summary.Tx, txPerRound)
			for i := range batch {
				batch[i] = gen.Next()
			}
			res, err := eng.ExecuteRound(batch, r)
			if err != nil {
				t.Fatalf("ExecuteRound: %v", err)
			}
			rejected += res.Rejected
			checkTxRoot(t, r, res)
			if len(res.Included)+res.Rejected != len(batch) {
				t.Fatalf("round %d: included %d + rejected %d != batch %d",
					r, len(res.Included), res.Rejected, len(batch))
			}
		}
		res := closeEpoch(t, eng, []byte("next-key"))
		if len(res.Payloads) != pools || len(res.PoolRoots) != pools {
			t.Fatalf("epoch result covers %d payloads / %d roots, want %d",
				len(res.Payloads), len(res.PoolRoots), pools)
		}
		for i, p := range res.Payloads {
			if p.PoolID != res.PoolIDs[i] {
				t.Fatalf("payload %d tagged %q, want %q", i, p.PoolID, res.PoolIDs[i])
			}
		}
		summaryRoots = append(summaryRoots, res.SummaryRoot)
	}
	return summaryRoots, eng.StateRoots(), rejected
}

// TestDeterminismAcrossShardCounts is the acceptance check: 64 pools,
// fixed seed, shard counts {1, 4, 16} — bit-identical per-pool state
// roots and epoch summary roots.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	const pools, epochs, rounds, tpr = 64, 3, 5, 200
	baseSummary, basePools, baseRejected := runEpochs(t, pools, 1, epochs, rounds, tpr, 42)
	for _, shards := range []int{4, 16} {
		gotSummary, gotPools, gotRejected := runEpochs(t, pools, shards, epochs, rounds, tpr, 42)
		for e := range baseSummary {
			if gotSummary[e] != baseSummary[e] {
				t.Errorf("shards=%d: epoch %d summary root diverged", shards, e+1)
			}
		}
		for i := range basePools {
			if gotPools[i] != basePools[i] {
				t.Errorf("shards=%d: pool %d state root diverged", shards, i)
			}
		}
		if gotRejected != baseRejected {
			t.Errorf("shards=%d: rejected %d, want %d", shards, gotRejected, baseRejected)
		}
	}
}

// TestDifferentSeedsDiverge guards against a degenerate root function.
func TestDifferentSeedsDiverge(t *testing.T) {
	a, _, _ := runEpochs(t, 8, 2, 1, 3, 100, 1)
	b, _, _ := runEpochs(t, 8, 2, 1, 3, 100, 2)
	if a[0] == b[0] {
		t.Fatal("different seeds produced identical summary roots")
	}
}

// TestShardPartitionCoversAllPools: every pool lands on exactly one shard.
func TestShardPartitionCoversAllPools(t *testing.T) {
	eng, err := New(Config{NumPools: 64, NumShards: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for s, ids := range eng.shardPools {
		for _, id := range ids {
			seen[id]++
			if got := ShardOf(id, 7); got != s {
				t.Errorf("pool %s on shard %d, ShardOf says %d", id, s, got)
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("partition covers %d pools, want 64", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("pool %s assigned %d times", id, n)
		}
	}
}

// TestMidEpochDeposit: a user with no snapshot deposit is rejected until
// the mid-epoch credit lands on the right pool.
func TestMidEpochDeposit(t *testing.T) {
	eng, err := New(Config{NumPools: 2, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	pid := eng.PoolIDs()[0]
	if err := eng.BeginEpoch(1, nil); err != nil {
		t.Fatal(err)
	}
	tx := &summary.Tx{ID: "s1", Kind: gasmodel.KindSwap, User: "u", PoolID: pid,
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000)}
	res, err := eng.ExecuteRound([]*summary.Tx{tx}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 0 || res.Rejected != 1 {
		t.Fatalf("unfunded swap included=%d rejected=%d", len(res.Included), res.Rejected)
	}
	if err := eng.AddDeposit(pid, "u", u256.FromUint64(1<<20), u256.FromUint64(1<<20)); err != nil {
		t.Fatal(err)
	}
	tx2 := &summary.Tx{ID: "s2", Kind: gasmodel.KindSwap, User: "u", PoolID: pid,
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000)}
	res, err = eng.ExecuteRound([]*summary.Tx{tx2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 1 {
		t.Fatalf("funded swap rejected")
	}
	closeEpoch(t, eng, nil)
}

// TestUnknownPoolRejected: transactions routed to unregistered pools are
// counted as rejected, never executed, and leave no leaf in the round's
// TxRoot — whether the whole round is rejected or rejections interleave
// with accepted transactions on several pools and shards.
func TestUnknownPoolRejected(t *testing.T) {
	eng, err := New(Config{NumPools: 2, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := eng.PoolIDs()
	dep := u256.FromUint64(1 << 20)
	if err := eng.BeginEpoch(1, UniformDeposits(ids, []string{"u"}, dep, dep)); err != nil {
		t.Fatal(err)
	}
	swap := func(id, user, pool string) *summary.Tx {
		return &summary.Tx{ID: id, Kind: gasmodel.KindSwap, User: user, PoolID: pool,
			ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000)}
	}
	res, err := eng.ExecuteRound([]*summary.Tx{swap("x", "u", "pool-9999")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || len(res.Included) != 0 {
		t.Fatalf("unknown pool: included=%d rejected=%d", len(res.Included), res.Rejected)
	}
	checkTxRoot(t, 1, res)

	// Submission order interleaves the two pools, so a fold in pool order
	// or one that keeps a rejected transaction's leaf misses the reference.
	batch := []*summary.Tx{
		swap("a", "u", ids[1]),
		swap("b", "u", "pool-9999"),
		swap("c", "u", ids[0]),
		swap("d", "unfunded", ids[1]),
		swap("e", "u", ids[1]),
		swap("f", "unfunded", ids[0]),
		swap("g", "u", ids[0]),
	}
	res, err = eng.ExecuteRound(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 3 || len(res.Included) != 4 {
		t.Fatalf("interleaved round: included=%d rejected=%d, want 4 and 3", len(res.Included), res.Rejected)
	}
	for i, want := range []string{"a", "c", "e", "g"} {
		if res.Included[i].ID != want {
			t.Fatalf("included[%d] = %s, want %s", i, res.Included[i].ID, want)
		}
	}
	checkTxRoot(t, 2, res)
}

// TestLifecycleGuards: rounds need an epoch; double BeginEpoch fails.
func TestLifecycleGuards(t *testing.T) {
	eng, err := New(Config{NumPools: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteRound(nil, 1); err == nil {
		t.Error("ExecuteRound before BeginEpoch should fail")
	}
	if _, err := eng.SealEpoch(nil); err == nil {
		t.Error("SealEpoch before BeginEpoch should fail")
	}
	if err := eng.BeginEpoch(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.BeginEpoch(2, nil); err == nil {
		t.Error("double BeginEpoch should fail")
	}
}
