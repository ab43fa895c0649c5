package engine

import (
	"fmt"
	"testing"

	"ammboost/internal/amm"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// diffDeposits is the deposit earmark of diffRun's epoch e: epoch 2
// carries none, and no transactions either.
func diffDeposits(e uint64, ids, users []string) map[string]map[string]summary.Deposit {
	if e == 2 {
		return nil
	}
	dep := u256.FromUint64(1 << 40)
	return UniformDeposits(ids, users, dep, dep)
}

// diffEpochs is the length of diffRun's schedule.
const diffEpochs = 4

// diffBatches returns the rounds of diffRun's epoch e: epochs 1 and 3
// split the batches, epoch 2 has none, and epoch 4 is crossingRound.
func diffBatches(e uint64, batches [][]*summary.Tx, users []string) [][]*summary.Tx {
	half := len(batches) / 2
	switch e {
	case 1:
		return batches[:half]
	case 3:
		return batches[half:]
	case 4:
		return [][]*summary.Tx{crossingRound(users[0])}
	}
	return nil
}

// crossingRound swaps each large pool's price down across its seeded
// ticks and back up past where it started: a swap adds and removes no
// leaf, so every tick it crosses changes value in place.
func crossingRound(user string) []*summary.Tx {
	var txs []*summary.Tx
	for i := 0; i < largePools; i++ {
		for j, amount := range []uint64{100_000_000_000, 200_000_000_000} {
			txs = append(txs, &summary.Tx{ID: fmt.Sprintf("cross-%d-%d", i, j), Kind: gasmodel.KindSwap,
				User: user, PoolID: PoolName(i), ZeroForOne: j == 0, ExactIn: true, Amount: u256.FromUint64(amount)})
		}
	}
	return txs
}

// largePools of diffRun's hottest pools start with largePoolPositions
// extra positions, so their roots fold trees of more than a hundred chunk
// leaves.
const largePools, largePoolPositions = 4, 80

// seedLargePools mints the extra positions into eng's genesis pools.
func seedLargePools(t *testing.T, eng *Engine) {
	t.Helper()
	for pi, id := range eng.PoolIDs()[:largePools] {
		for j := 0; j < largePoolPositions; j++ {
			lower := -60 * int32((pi+j*7)%40+1)
			upper := 60 * int32((pi+j*5)%40+1)
			if _, err := eng.Pool(id).Mint(fmt.Sprintf("seed-%02d", j), "lp", lower, upper, u256.FromUint64(2_000_000)); err != nil {
				t.Fatalf("seed %s: %v", id, err)
			}
		}
	}
}

// diffRun drives one engine through a fixed four-epoch schedule and
// returns everything the differential comparison needs: per-epoch summary
// roots, per-epoch payload digests and pool roots (canonical pool order),
// and the final per-pool state roots. Epoch 2 carries zero transactions
// and no deposits, so with lazy snapshots no pool is ever touched in it;
// epochs 1 and 3 run Zipf traffic, which leaves the cold tail of pools
// idle too; epoch 4 crosses ticks in the pools seeded large
// (seedLargePools).
func diffRun(t *testing.T, seed int64, pools, shards int, batches [][]*summary.Tx, users []string) (summaryRoots [][32]byte, digests, poolRoots [][][32]byte, final [][32]byte) {
	t.Helper()
	eng, err := New(Config{Seed: seed, NumPools: pools, NumShards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seedLargePools(t, eng)
	for e := uint64(1); e <= diffEpochs; e++ {
		if err := eng.BeginEpoch(e, diffDeposits(e, eng.PoolIDs(), users)); err != nil {
			t.Fatalf("BeginEpoch %d: %v", e, err)
		}
		for r, batch := range diffBatches(e, batches, users) {
			if _, err := eng.ExecuteRound(batch, uint64(r+1)); err != nil {
				t.Fatalf("ExecuteRound: %v", err)
			}
		}
		res := closeEpoch(t, eng, []byte("diff-next-key"))
		summaryRoots = append(summaryRoots, res.SummaryRoot)
		ds := make([][32]byte, len(res.Payloads))
		for i, p := range res.Payloads {
			ds[i] = p.Digest()
		}
		digests = append(digests, ds)
		poolRoots = append(poolRoots, res.PoolRoots)
	}
	return summaryRoots, digests, poolRoots, eng.StateRoots()
}

// referenceRun computes diffRun's results without the engine's epoch
// machinery: every epoch snapshots every pool into a summary.NewExecutor,
// applies each pool's transactions in submission order, and hashes the
// settled pool from scratch with StateRoot. It shares nothing with the
// lazy snapshots, the untouched-pool payloads or the root caches.
func referenceRun(t *testing.T, pools int, batches [][]*summary.Tx, users []string) (summaryRoots [][32]byte, digests, poolRoots [][][32]byte) {
	t.Helper()
	genesis, err := New(Config{NumPools: pools, NumShards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seedLargePools(t, genesis)
	ids := genesis.PoolIDs()
	state := make(map[string]*amm.Pool, len(ids))
	for _, id := range ids {
		state[id] = genesis.Pool(id)
	}
	for e := uint64(1); e <= diffEpochs; e++ {
		deps := diffDeposits(e, ids, users)
		execs := make(map[string]*summary.Executor, len(ids))
		for _, id := range ids {
			execs[id] = summary.NewExecutor(e, state[id], deps[id])
		}
		for r, batch := range diffBatches(e, batches, users) {
			for _, tx := range batch {
				if exec := execs[tx.PoolID]; exec != nil {
					_ = exec.Apply(tx, uint64(r+1))
				}
			}
		}
		ds := make([][32]byte, len(ids))
		roots := make([][32]byte, len(ids))
		for i, id := range ids {
			p := execs[id].Summary([]byte("diff-next-key"))
			p.PoolID = id
			ds[i] = p.Digest()
			state[id] = execs[id].Pool
			roots[i] = StateRoot(id, state[id])
		}
		summaryRoots = append(summaryRoots, FoldRoots(roots))
		digests = append(digests, ds)
		poolRoots = append(poolRoots, roots)
	}
	return summaryRoots, digests, poolRoots
}

// TestIncrementalMatchesFullReference is invariant 5's differential pin:
// for seeds {1, 42, 1337} × shard counts {1, 4, 16}, the engine's
// incremental path (lazy snapshots, untouched-pool payloads, and idle
// pools answering from their cached roots) must reproduce referenceRun
// bit for bit — every epoch's summary root, pool roots and sync payload
// digests, including the epoch with zero activity anywhere — and its
// final cached roots must equal StateRoot of the final pools.
func TestIncrementalMatchesFullReference(t *testing.T) {
	const pools = 32
	for _, seed := range []int64{1, 42, 1337} {
		wcfg := workload.DefaultMultiConfig(seed, pools)
		gen := workload.NewMulti(wcfg)
		batches := make([][]*summary.Tx, 6)
		for i := range batches {
			batch := make([]*summary.Tx, 150)
			for j := range batch {
				batch[j] = gen.Next()
			}
			batches[i] = batch
		}
		users := gen.Users()

		refSummary, refDigests, refRoots := referenceRun(t, pools, batches, users)
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				gotSummary, gotDigests, gotRoots, final := diffRun(t, seed, pools, shards, batches, users)
				for e := range refSummary {
					if gotSummary[e] != refSummary[e] {
						t.Errorf("epoch %d: incremental summary root diverged from full reference", e+1)
					}
					for i := range refDigests[e] {
						if gotDigests[e][i] != refDigests[e][i] {
							t.Errorf("epoch %d pool %d: payload digest diverged", e+1, i)
						}
						if gotRoots[e][i] != refRoots[e][i] {
							t.Errorf("epoch %d pool %d: state root diverged", e+1, i)
						}
					}
				}
				last := refRoots[len(refRoots)-1]
				for i := range last {
					if final[i] != last[i] {
						t.Errorf("pool %d: final state root diverged", i)
					}
				}
			})
		}
	}
}

// TestCachedRootsMatchScratchRecompute checks the cache against the
// stateless reference directly: after a run, every cached root equals
// StateRoot recomputed from the pool's live state.
func TestCachedRootsMatchScratchRecompute(t *testing.T) {
	const pools = 16
	eng, err := New(Config{Seed: 7, NumPools: pools, NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultMultiConfig(7, pools)
	wcfg.PoolIDs = eng.PoolIDs()
	gen := workload.NewMulti(wcfg)
	dep := u256.FromUint64(1 << 40)
	for e := uint64(1); e <= 3; e++ {
		if err := eng.BeginEpoch(e, UniformDeposits(eng.PoolIDs(), gen.Users(), dep, dep)); err != nil {
			t.Fatal(err)
		}
		for r := uint64(1); r <= 4; r++ {
			batch := make([]*summary.Tx, 100)
			for i := range batch {
				batch[i] = gen.Next()
			}
			if _, err := eng.ExecuteRound(batch, r); err != nil {
				t.Fatal(err)
			}
		}
		res := closeEpoch(t, eng, []byte("k"))
		for i, id := range res.PoolIDs {
			if want := StateRoot(id, eng.Pool(id)); res.PoolRoots[i] != want {
				t.Fatalf("epoch %d: cached root of %s diverged from scratch recompute", e, id)
			}
		}
	}
}

// TestUntouchedPoolKeepsCachedRoot pins the O(1) idle-pool property: a
// pool with no traffic across epochs reports the identical root without
// its state advancing.
func TestUntouchedPoolKeepsCachedRoot(t *testing.T) {
	eng, err := New(Config{NumPools: 4, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.StateRoots()
	active := eng.PoolIDs()[0]
	for e := uint64(1); e <= 3; e++ {
		if err := eng.BeginEpoch(e, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddDeposit(active, "u", u256.FromUint64(1<<30), u256.FromUint64(1<<30)); err != nil {
			t.Fatal(err)
		}
		tx := &summary.Tx{ID: fmt.Sprintf("s%d", e), Kind: gasmodel.KindSwap, User: "u", PoolID: active,
			ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000)}
		if _, err := eng.ExecuteRound([]*summary.Tx{tx}, 1); err != nil {
			t.Fatal(err)
		}
		res := closeEpoch(t, eng, nil)
		for i, id := range res.PoolIDs {
			if id == active {
				if res.PoolRoots[i] == before[i] {
					t.Errorf("epoch %d: active pool root did not change", e)
				}
				continue
			}
			if res.PoolRoots[i] != before[i] {
				t.Errorf("epoch %d: idle pool %s root changed", e, id)
			}
		}
	}
}
