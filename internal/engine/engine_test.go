package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"ammboost/internal/crypto/merkle"
	"ammboost/internal/gasmodel"
	"ammboost/internal/sidechain"
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

// runRecord is everything a run must reproduce bit for bit on any
// worker count: per-epoch summary roots, on-chain payload digests and
// MetaRoots (over the epoch's meta-blocks, as the sidechain commits
// them), every round's TxRoot, the final pool roots and the rejections.
type runRecord struct {
	summaryRoots, digests, metaRoots, txRoots, poolRoots [][32]byte
	rejected                                             int
}

// runEpochs drives an engine through epochs of multi-pool Zipf traffic
// from wcfg, whose ranks land on wcfg.PoolIDs (every registered pool in
// canonical order when empty), and records the run.
func runEpochs(t *testing.T, wcfg workload.MultiConfig, pools, workers, epochs, roundsPerEpoch, txPerRound int) runRecord {
	t.Helper()
	eng, err := New(Config{Seed: wcfg.Seed, NumPools: pools, NumShards: workers})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if eng.NumShards() != workers {
		t.Fatalf("NumShards = %d, want %d", eng.NumShards(), workers)
	}
	if len(wcfg.PoolIDs) == 0 {
		wcfg.NumPools, wcfg.PoolIDs = pools, eng.PoolIDs()
	}
	gen := workload.NewMulti(wcfg)
	dep := u256.FromUint64(1 << 40)

	var rec runRecord
	for e := uint64(1); e <= uint64(epochs); e++ {
		deps := UniformDeposits(eng.PoolIDs(), gen.Users(), dep, dep)
		if err := eng.BeginEpoch(e, deps); err != nil {
			t.Fatalf("BeginEpoch: %v", err)
		}
		var metas []*sidechain.MetaBlock
		var parent [32]byte
		for r := uint64(1); r <= uint64(roundsPerEpoch); r++ {
			batch := make([]*summary.Tx, txPerRound)
			for i := range batch {
				batch[i] = gen.Next()
			}
			res, err := eng.ExecuteRound(batch, r)
			if err != nil {
				t.Fatalf("ExecuteRound: %v", err)
			}
			rec.rejected += res.Rejected
			checkTxRoot(t, r, res)
			if len(res.Included)+res.Rejected != len(batch) {
				t.Fatalf("round %d: included %d + rejected %d != batch %d",
					r, len(res.Included), res.Rejected, len(batch))
			}
			rec.txRoots = append(rec.txRoots, res.TxRoot)
			mb := sidechain.NewMetaBlock(e, r, "leader", parent, res.Included, res.TxRoot)
			parent = mb.Hash()
			metas = append(metas, mb)
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
		rec.summaryRoots = append(rec.summaryRoots, res.SummaryRoot)
		rec.digests = append(rec.digests, res.OnChainDigests...)
		rec.metaRoots = append(rec.metaRoots, sidechain.NewSummaryBlocks(e, res.Payloads, metas)[0].MetaRoot)
	}
	rec.poolRoots = eng.StateRoots()
	return rec
}

// TestDeterminismAcrossShardCounts is the acceptance check: fixed seed,
// workers {1, 2, 4, 16}, bit-identical summary roots, payload digests,
// MetaRoots, TxRoots and pool roots. Besides 64-pool Zipf traffic, it
// runs a batch whose heaviest pool is the last canonical one (the Zipf
// ranks reversed), so pulling heaviest-first reorders the pools, and
// traffic on 3 of 64 pools, fewer than the workers.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	const epochs, rounds, tpr = 3, 5, 200
	reversed := make([]string, 8)
	for i := range reversed {
		reversed[i] = PoolName(len(reversed) - 1 - i)
	}
	cases := []struct {
		name  string
		pools int
		wcfg  workload.MultiConfig
	}{
		{"zipf-64", 64, workload.DefaultMultiConfig(42, 64)},
		{"heaviest-last", 8, workload.MultiConfig{Config: workload.DefaultConfig(42), NumPools: 8, PoolIDs: reversed}},
		{"3-active-of-64", 64, workload.MultiConfig{Config: workload.DefaultConfig(42), NumPools: 3,
			PoolIDs: []string{PoolName(9), PoolName(33), PoolName(50)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runEpochs(t, c.wcfg, c.pools, 1, epochs, rounds, tpr)
			if len(base.digests) == 0 {
				t.Fatal("no on-chain payloads to compare")
			}
			for _, workers := range []int{2, 4, 16} {
				got := runEpochs(t, c.wcfg, c.pools, workers, epochs, rounds, tpr)
				for _, f := range []struct {
					name      string
					got, want [][32]byte
				}{
					{"summary root", got.summaryRoots, base.summaryRoots},
					{"payload digest", got.digests, base.digests},
					{"MetaRoot", got.metaRoots, base.metaRoots},
					{"TxRoot", got.txRoots, base.txRoots},
					{"pool root", got.poolRoots, base.poolRoots},
				} {
					if !slices.Equal(f.got, f.want) {
						t.Errorf("workers=%d: %s diverged from the 1-worker run", workers, f.name)
					}
				}
				if got.rejected != base.rejected {
					t.Errorf("workers=%d: rejected %d, want %d", workers, got.rejected, base.rejected)
				}
			}
		})
	}
}

// TestDifferentSeedsDiverge guards against a degenerate root function.
func TestDifferentSeedsDiverge(t *testing.T) {
	a := runEpochs(t, workload.DefaultMultiConfig(1, 8), 8, 2, 1, 3, 100)
	b := runEpochs(t, workload.DefaultMultiConfig(2, 8), 8, 2, 1, 3, 100)
	if a.summaryRoots[0] == b.summaryRoots[0] {
		t.Fatal("different seeds produced identical summary roots")
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

// TestQueueDepositMatchesAddDeposit: a credit QueueDeposit leaves on the
// pool's deposit ledger until the pool's worker opens its executor leaves
// every payload, pool root and summary root as AddDeposit before the
// round does. The rounds cover a credit onto an already open executor, a
// credit that overflows (AddDeposit refuses it, QueueDeposit drops it),
// and credits on a pool no round touches, which it pays out as an idle
// pool's deposits.
func TestQueueDepositMatchesAddDeposit(t *testing.T) {
	big := u256.FromUint64(1 << 40)
	type grant struct {
		pool, user string
		a0, a1     u256.Int
	}
	run := func(queue bool) []*EpochResult {
		eng, err := New(Config{NumPools: 4, NumShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.QueueDeposit(Ref{}, big, big); err != ErrNoEpoch {
			t.Fatalf("QueueDeposit between epochs: %v, want ErrNoEpoch", err)
		}
		var out []*EpochResult
		for epoch := uint64(1); epoch <= 2; epoch++ {
			if err := eng.BeginEpoch(epoch, nil); err != nil {
				t.Fatal(err)
			}
			if err := eng.QueueDeposit(Ref{Pool: 9999}, big, big); !errors.Is(err, ErrUnknownPool) {
				t.Fatalf("QueueDeposit on an unregistered pool: %v, want ErrUnknownPool", err)
			}
			if err := eng.QueueDeposit(Ref{User: 9999}, big, big); !errors.Is(err, summary.ErrUnknownUser) {
				t.Fatalf("QueueDeposit for a user the table lacks: %v, want ErrUnknownUser", err)
			}
			for round := uint64(1); round <= 3; round++ {
				grants := []grant{
					{PoolName(0), "u", big, big},
					{PoolName(1), fmt.Sprintf("v%d", round), big, big},
					{PoolName(3), "idle", u256.FromUint64(round), u256.Zero},
				}
				if round == 2 {
					grants = append(grants, grant{PoolName(0), "u", u256.Max, u256.Zero})
				}
				for _, c := range grants {
					if queue {
						ref := Ref{Pool: uint32(slices.Index(eng.PoolIDs(), c.pool)), User: eng.Users().Add(c.user)}
						if err := eng.QueueDeposit(ref, c.a0, c.a1); err != nil {
							t.Fatal(err)
						}
					} else {
						_ = eng.AddDeposit(c.pool, c.user, c.a0, c.a1)
					}
				}
				var txs []*summary.Tx
				for i, pool := range []string{PoolName(0), PoolName(1), PoolName(1)} {
					user := "u"
					if pool != PoolName(0) {
						user = fmt.Sprintf("v%d", round)
					}
					txs = append(txs, &summary.Tx{ID: fmt.Sprintf("e%dr%d-%d", epoch, round, i), Kind: gasmodel.KindSwap,
						User: user, PoolID: pool, ZeroForOne: i%2 == 0, ExactIn: true, Amount: u256.FromUint64(1 << 20)})
				}
				res, err := eng.ExecuteRound(txs, round)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rejected != 0 {
					t.Fatalf("queue=%v epoch %d round %d: %d funded swaps rejected", queue, epoch, round, res.Rejected)
				}
			}
			out = append(out, closeEpoch(t, eng, nil))
		}
		return out
	}
	want, got := run(false), run(true)
	for e := range want {
		if got[e].SummaryRoot != want[e].SummaryRoot || !slices.Equal(got[e].PoolRoots, want[e].PoolRoots) {
			t.Errorf("epoch %d: queued credits moved the roots", e+1)
		}
		for i := range want[e].Payloads {
			if got[e].Payloads[i].Digest() != want[e].Payloads[i].Digest() {
				t.Errorf("epoch %d: %s's payload differs with queued credits", e+1, want[e].PoolIDs[i])
			}
		}
		if len(got[e].OnChain) != len(want[e].OnChain) || len(want[e].OnChain) != 3 {
			t.Errorf("epoch %d: %d payloads on chain with queued credits, %d without; want 3", e+1, len(got[e].OnChain), len(want[e].OnChain))
		}
	}
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

// TestRejectedLeafNeverFolded: ExecuteRoundIndexed folds only the leaves
// of accepted transactions. Every rejected transaction (unregistered
// pool, unfunded user) comes with a garbage leaf, and the round's TxRoot
// must still equal sidechain.TxRoot over Included. A leaf count that
// does not match the batch is refused.
func TestRejectedLeafNeverFolded(t *testing.T) {
	eng, err := New(Config{NumPools: 3, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := eng.PoolIDs()
	dep := u256.FromUint64(1 << 20)
	if err := eng.BeginEpoch(1, UniformDeposits(ids, []string{"u"}, dep, dep)); err != nil {
		t.Fatal(err)
	}
	var batch []*summary.Tx
	var refs []Ref
	var leaves [][32]byte
	for i, c := range []struct{ user, pool string }{
		{"u", ids[2]}, {"u", "pool-9999"}, {"u", ids[0]}, {"unfunded", ids[2]},
		{"u", ids[2]}, {"unfunded", ""}, {"u", ""}, {"u", ids[1]},
	} {
		tx := &summary.Tx{ID: fmt.Sprintf("t%d", i), Kind: gasmodel.KindSwap, User: c.user, PoolID: c.pool,
			ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000)}
		leaf := sidechain.TxLeaf(tx)
		if c.user == "unfunded" || c.pool == "pool-9999" {
			leaf = [32]byte{0xde, 0xad}
		}
		batch, refs, leaves = append(batch, tx), append(refs, eng.Resolve(tx)), append(leaves, leaf)
	}
	if _, err := eng.ExecuteRoundIndexed(batch, refs, leaves[1:], 1); err == nil {
		t.Fatal("a short leaf slice was accepted")
	}
	if _, err := eng.ExecuteRoundIndexed(batch, refs[1:], leaves, 1); err == nil {
		t.Fatal("a short ref slice was accepted")
	}
	res, err := eng.ExecuteRoundIndexed(batch, refs, leaves, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 3 || len(res.Included) != 5 {
		t.Fatalf("included=%d rejected=%d, want 5 and 3", len(res.Included), res.Rejected)
	}
	if want := sidechain.TxRoot(res.Included); res.TxRoot != want {
		t.Fatalf("TxRoot %x, sidechain.TxRoot(Included) %x", res.TxRoot[:8], want[:8])
	}
	checkTxRoot(t, 1, res)
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
