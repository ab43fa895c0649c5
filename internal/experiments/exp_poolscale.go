package experiments

import (
	"fmt"
	"runtime"
	"time"

	"ammboost/internal/engine"
	"ammboost/internal/sidechain"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// --- poolscale: multi-pool sharded execution sweep ---

// poolScalePoint is one (pool count, shard count) configuration's
// measured execution performance.
type poolScalePoint struct {
	Pools       int
	Shards      int
	Txs         int
	Wall        time.Duration
	Throughput  float64 // executed tx/s of wall-clock time
	Speedup     float64 // vs the 1-shard run at the same pool count
	SummaryRoot [32]byte
	// EpochClose is the average time per epoch spent outside round
	// execution — BeginEpoch (snapshot) plus SealEpoch and Finalize
	// (summaries, state roots, fold) — the cost the incremental
	// commitment subsystem attacks.
	EpochClose time.Duration
}

// PoolScaleResult sweeps pool count × shard count over identical Zipf
// traffic, measuring wall-clock execution throughput of the sharded
// engine and verifying that every shard count reproduces bit-identical
// epoch summary roots, each equal to the fold of every pool's StateRoot
// rehashed from scratch.
type PoolScaleResult struct {
	Points []poolScalePoint
	// RootsIdentical confirms the determinism acceptance check.
	RootsIdentical bool
}

// poolScaleRounds/TxPerRound size one epoch of the sweep; the workload is
// pre-generated once per pool count so every shard count executes the
// exact same transaction stream.
const (
	poolScaleRounds     = 5
	poolScaleTxPerRound = 2000
)

// RunPoolScale reproduces the multi-pool scaling experiment: pool counts
// {16, 64} × shard counts {1, 2, 4, GOMAXPROCS}, o.Epochs epochs each.
func RunPoolScale(o Options) (*PoolScaleResult, error) {
	o = o.withDefaults()
	shardCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		shardCounts = append(shardCounts, p)
	}
	res := &PoolScaleResult{RootsIdentical: true}
	for _, pools := range []int{16, 64} {
		// Pre-generate the traffic: identical stream for every shard count,
		// each transaction's leaf hashed up front as the node's admission
		// does.
		wcfg := workload.DefaultMultiConfig(o.Seed, pools)
		gen := workload.NewMulti(wcfg)
		epochs := o.Epochs
		if epochs < 1 {
			epochs = 1
		}
		batches := make([][]*summary.Tx, epochs*poolScaleRounds)
		leaves := make([][][32]byte, len(batches))
		for i := range batches {
			batches[i] = make([]*summary.Tx, poolScaleTxPerRound)
			leaves[i] = make([][32]byte, poolScaleTxPerRound)
			for j := range batches[i] {
				batches[i][j] = gen.Next()
				leaves[i][j] = sidechain.TxLeaf(batches[i][j])
			}
		}
		users := gen.Users()

		var baseRoot [32]byte
		var baseWall time.Duration
		for si, shards := range shardCounts {
			root, wall, epochClose, txs, rehashed, err := runPoolScaleConfig(o.Seed, pools, shards, epochs, users, batches, leaves)
			if err != nil {
				return nil, err
			}
			if !rehashed {
				res.RootsIdentical = false
			}
			pt := poolScalePoint{
				Pools:       pools,
				Shards:      shards,
				Txs:         txs,
				Wall:        wall,
				Throughput:  float64(txs) / wall.Seconds(),
				SummaryRoot: root,
				EpochClose:  epochClose,
			}
			if si == 0 {
				baseRoot, baseWall = root, wall
				pt.Speedup = 1
			} else {
				pt.Speedup = float64(baseWall) / float64(wall)
				if root != baseRoot {
					res.RootsIdentical = false
				}
			}
			res.Points = append(res.Points, pt)
		}
	}
	if !res.RootsIdentical {
		return res, fmt.Errorf("experiments: poolscale summary roots diverged across shard counts")
	}
	return res, nil
}

// runPoolScaleConfig executes the pre-generated batches on a fresh
// engine and returns the final epoch's summary root, total wall-clock
// time, the average per-epoch close time (BeginEpoch + SealEpoch +
// Finalize), the executed transaction count, and whether every epoch's
// summary root equals the fold of every pool's StateRoot rehashed from
// scratch. The rehash is excluded from both timings.
func runPoolScaleConfig(seed int64, pools, shards, epochs int, users []string, batches [][]*summary.Tx, leaves [][][32]byte) ([32]byte, time.Duration, time.Duration, int, bool, error) {
	eng, err := engine.New(engine.Config{Seed: seed, NumPools: pools, NumShards: shards})
	if err != nil {
		return [32]byte{}, 0, 0, 0, false, err
	}
	rehashed := true
	roots := make([][32]byte, pools)
	dep := u256.FromUint64(1 << 40)
	txs := 0
	var lastRoot [32]byte
	var closeTime, rehashTime time.Duration
	start := time.Now()
	for e := 1; e <= epochs; e++ {
		deps := engine.UniformDeposits(eng.PoolIDs(), users, dep, dep)
		beginStart := time.Now()
		if err := eng.BeginEpoch(uint64(e), deps); err != nil {
			return [32]byte{}, 0, 0, 0, false, err
		}
		closeTime += time.Since(beginStart)
		for r := 1; r <= poolScaleRounds; r++ {
			b := (e-1)*poolScaleRounds + (r - 1)
			rr, err := eng.ExecuteRoundLeaves(batches[b], leaves[b], uint64(r))
			if err != nil {
				return [32]byte{}, 0, 0, 0, false, err
			}
			txs += len(rr.Included)
		}
		endStart := time.Now()
		sealed, err := eng.SealEpoch([]byte("poolscale-next-key"))
		if err != nil {
			return [32]byte{}, 0, 0, 0, false, err
		}
		er := sealed.Finalize()
		closeTime += time.Since(endStart)
		lastRoot = er.SummaryRoot
		rehashStart := time.Now()
		for i, id := range er.PoolIDs {
			roots[i] = engine.StateRoot(id, eng.Pool(id))
		}
		if engine.FoldRoots(roots) != lastRoot {
			rehashed = false
		}
		rehashTime += time.Since(rehashStart)
	}
	return lastRoot, time.Since(start) - rehashTime, closeTime / time.Duration(epochs), txs, rehashed, nil
}

// Render implements Result.
func (r *PoolScaleResult) Render() string {
	t := &table{
		title: "Poolscale: sharded multi-pool execution (Zipf traffic, fixed seed)",
		headers: []string{"Pools", "Shards", "Executed txs", "Wall (ms)",
			"Throughput (tx/s)", "Speedup vs 1 shard",
			"Epoch close (µs)"},
	}
	for _, p := range r.Points {
		t.add(
			fmt.Sprintf("%d", p.Pools),
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Txs),
			fmt.Sprintf("%.1f", float64(p.Wall.Microseconds())/1000),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%d", p.EpochClose.Microseconds()),
		)
	}
	s := t.String()
	if r.RootsIdentical {
		s += "epoch summary roots: bit-identical across all shard counts and vs full-rehash reference\n"
	} else {
		s += "epoch summary roots: DIVERGED (determinism violation)\n"
	}
	return s
}
