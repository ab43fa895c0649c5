package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/crypto/merkle"
	"ammboost/internal/gasmodel"
	"ammboost/internal/sidechain"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
)

// Engine errors.
var (
	ErrNoPools      = errors.New("engine: config needs at least one pool")
	ErrNoEpoch      = errors.New("engine: no epoch in progress (call BeginEpoch)")
	ErrEpochStarted = errors.New("engine: epoch already in progress")
)

// Config parameterizes the sharded engine. Zero values take defaults.
type Config struct {
	// Seed identifies the run for callers that derive stochastic inputs
	// (workload.MultiGenerator derives an independent per-pool RNG from
	// it). The engine's own execution path draws no randomness — results
	// depend only on pool genesis and the transaction streams — which is
	// what makes shard-count invariance possible.
	Seed int64
	// NumPools is the number of registered pools (default 1).
	NumPools int
	// NumShards is the worker-shard count (default GOMAXPROCS). Results
	// are bit-identical for any value.
	NumShards int
	// InitialLiquidity seeds each pool's genesis full-range position
	// (default amm.GenesisLiquidity).
	InitialLiquidity u256.Int
	// Tracer, when non-nil, accumulates per-shard execute timing (busy
	// wall-clock, tx count, gas) each epoch and records one execute-shard
	// span per active shard at seal time. Nil costs nothing on the
	// execute path and never changes computed state.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.NumPools == 0 {
		c.NumPools = 1
	}
	if c.NumShards <= 0 {
		c.NumShards = runtime.GOMAXPROCS(0)
	}
	if c.InitialLiquidity.IsZero() {
		c.InitialLiquidity = amm.GenesisLiquidity
	}
	return c
}

// Engine executes transactions for N registered pools across worker
// shards. Pools are partitioned by ShardOf; a pool's transactions always
// execute sequentially in submission order on its owning shard, so state
// evolution per pool is independent of the shard count. The engine is not
// safe for concurrent use by multiple callers; internally it fans out one
// goroutine per shard.
type Engine struct {
	reg       *Registry
	numShards int
	// shardPools[s] lists shard s's pools in canonical order.
	shardPools [][]string
	// poolIndex maps a pool ID to its canonical index.
	poolIndex map[string]int

	epoch   uint64
	running bool
	// execs[i] is pool i's epoch executor, created lazily on the pool's
	// first transaction (or deposit) of the epoch so SnapshotBank cost is
	// proportional to active pools, not registered pools. Slots are
	// written only by the owning shard (or between rounds on the caller's
	// goroutine), so no locking is needed.
	execs []*summary.Executor
	// epochDeposits holds BeginEpoch's per-pool deposit earmarks for
	// lazily created executors; read-only for the epoch's duration.
	epochDeposits map[string]map[string]summary.Deposit
	// commits[i] caches pool i's incremental state commitment.
	commits []*poolCommit

	// leaves is ExecuteRound's per-transaction meta-block leaf scratch,
	// reused across rounds (the root fold destroys its contents).
	leaves [][32]byte

	// Cumulative stats across all epochs.
	Accepted int
	Rejected int

	// Execute-shard tracing accumulators (allocated only when cfg.Tracer
	// is set; each shard writes its own slot, so no locking is needed).
	tr         *trace.Tracer
	shardBusy  []time.Duration // summed execute wall-clock this epoch
	shardTxs   []int           // accepted transactions this epoch
	shardGas   []uint64        // gas-model cost of accepted transactions
	shardFirst []time.Duration // tracer offset of the shard's first work
}

// GenesisPositionID names pool i's genesis full-range position.
func GenesisPositionID(poolID string) string { return poolID + "-genesis" }

// New builds the engine and registers cfg.NumPools pools, each seeded
// with a full-range genesis position at price 1.0.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.NumPools < 1 {
		return nil, ErrNoPools
	}
	e := &Engine{
		reg:       NewRegistry(),
		numShards: cfg.NumShards,
		poolIndex: make(map[string]int),
		tr:        cfg.Tracer,
	}
	if e.tr != nil {
		e.shardBusy = make([]time.Duration, cfg.NumShards)
		e.shardTxs = make([]int, cfg.NumShards)
		e.shardGas = make([]uint64, cfg.NumShards)
		e.shardFirst = make([]time.Duration, cfg.NumShards)
	}
	for i := 0; i < cfg.NumPools; i++ {
		id := PoolName(i)
		pool, _, err := amm.NewGenesisPool(GenesisPositionID(id), cfg.InitialLiquidity)
		if err != nil {
			return nil, err
		}
		if err := e.reg.Register(id, pool); err != nil {
			return nil, err
		}
	}
	e.buildShards()
	e.commits = make([]*poolCommit, cfg.NumPools)
	for i := range e.commits {
		e.commits[i] = newPoolCommit()
	}
	return e, nil
}

// buildShards partitions the canonical pool list across shards.
func (e *Engine) buildShards() {
	e.shardPools = make([][]string, e.numShards)
	for i, id := range e.reg.IDs() {
		e.poolIndex[id] = i
		s := ShardOf(id, e.numShards)
		e.shardPools[s] = append(e.shardPools[s], id)
	}
}

// NumShards returns the worker-shard count.
func (e *Engine) NumShards() int { return e.numShards }

// PoolIDs returns the registered pool IDs in canonical order.
func (e *Engine) PoolIDs() []string { return e.reg.IDs() }

// Pool returns the canonical (epoch-start) state of a pool.
func (e *Engine) Pool(id string) *amm.Pool { return e.reg.Get(id) }

// Epoch returns the epoch in progress (0 before the first BeginEpoch).
func (e *Engine) Epoch() uint64 { return e.epoch }

// runShards invokes fn once per shard, concurrently, and waits. Each fn
// call touches only its shard's pools, so no synchronization beyond the
// final barrier is needed.
func (e *Engine) runShards(fn func(shard int, poolIDs []string)) {
	runSharded(e.numShards, e.shardPools, fn)
}

// runSharded is the shard fan-out shared by the engine and by sealed
// epochs finalizing off the engine's goroutine.
func runSharded(numShards int, shardPools [][]string, fn func(shard int, poolIDs []string)) {
	if numShards == 1 {
		fn(0, shardPools[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(numShards)
	for s := 0; s < numShards; s++ {
		go func(s int) {
			defer wg.Done()
			fn(s, shardPools[s])
		}(s)
	}
	wg.Wait()
}

// BeginEpoch opens an epoch (SnapshotBank). deposits maps pool ID →
// user → the epoch deposit earmarked for that pool; pools absent from
// the map start with no deposits (their transactions are rejected until
// AddDeposit). Snapshots are lazy: a pool's state is cloned into a
// per-pool executor only when its first transaction or deposit of the
// epoch arrives, so epoch-open cost is proportional to the epoch's
// active pools instead of all registered pools. The deposits map is
// retained by reference until SealEpoch for lazy executor creation; the
// caller must not mutate it while the epoch runs.
func (e *Engine) BeginEpoch(epoch uint64, deposits map[string]map[string]summary.Deposit) error {
	if e.running {
		return ErrEpochStarted
	}
	ids := e.reg.IDs()
	e.execs = make([]*summary.Executor, len(ids))
	e.epochDeposits = deposits
	e.epoch = epoch
	e.running = true
	if e.tr != nil {
		for s := 0; s < e.numShards; s++ {
			e.shardBusy[s], e.shardTxs[s], e.shardGas[s], e.shardFirst[s] = 0, 0, 0, 0
		}
	}
	return nil
}

// execFor returns pool index i's executor, snapshotting the pool on
// first use. Safe only on the pool's owning shard or between rounds.
func (e *Engine) execFor(i int, id string) *summary.Executor {
	exec := e.execs[i]
	if exec == nil {
		exec = summary.NewExecutor(e.epoch, e.reg.Get(id), e.epochDeposits[id])
		e.execs[i] = exec
	}
	return exec
}

// AddDeposit credits a user's mid-epoch deposit on one pool (or fails
// with summary.ErrDepositOverflow).
func (e *Engine) AddDeposit(poolID, user string, amount0, amount1 u256.Int) error {
	if !e.running {
		return ErrNoEpoch
	}
	i, ok := e.poolIndex[poolID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPool, poolID)
	}
	return e.execFor(i, poolID).AddDeposit(user, amount0, amount1)
}

// WithdrawDeposit debits a user's mid-epoch deposit on one pool — the
// origin-chain half of a cross-chain transfer. The debit fails atomically
// (summary.ErrInsufficientDeposit) when the remaining deposit cannot
// cover it.
func (e *Engine) WithdrawDeposit(poolID, user string, amount0, amount1 u256.Int) error {
	if !e.running {
		return ErrNoEpoch
	}
	i, ok := e.poolIndex[poolID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPool, poolID)
	}
	return e.execFor(i, poolID).WithdrawDeposit(user, amount0, amount1)
}

// RoundResult reports one round's sharded execution.
type RoundResult struct {
	// Included lists the accepted transactions in submission order
	// (ready for meta-block packing).
	Included []*summary.Tx
	// TxRoot is the meta-block transaction root over Included,
	// bit-identical to sidechain.TxRoot(Included).
	TxRoot [32]byte
	// Rejected counts transactions that failed validation, including
	// those routed to unregistered pools.
	Rejected int
}

// ExecuteRound executes a batch against the epoch snapshots: the batch is
// partitioned per pool (preserving submission order within each pool) and
// shards execute their pools' slices concurrently. A transaction with an
// empty PoolID routes to the first registered pool. Each shard computes
// the meta-block leaf of every transaction it accepts, so the caller's
// goroutine only folds the leaves, in submission order, into TxRoot.
func (e *Engine) ExecuteRound(txs []*summary.Tx, round uint64) (RoundResult, error) {
	if !e.running {
		return RoundResult{}, ErrNoEpoch
	}
	defaultPool := e.reg.IDs()[0]
	// Partition: per-pool index lists in submission order.
	perPool := make(map[string][]int)
	accepted := make([]bool, len(txs))
	if cap(e.leaves) < len(txs) {
		e.leaves = make([][32]byte, len(txs))
	}
	leaves := e.leaves[:len(txs)]
	unknown := 0
	for i, tx := range txs {
		id := tx.PoolID
		if id == "" {
			id = defaultPool
		}
		if _, ok := e.poolIndex[id]; !ok {
			unknown++
			continue
		}
		perPool[id] = append(perPool[id], i)
	}
	rejectedPerShard := make([]int, e.numShards)
	e.runShards(func(shard int, poolIDs []string) {
		var roundStart time.Duration
		if e.tr != nil {
			roundStart = e.tr.Since()
		}
		for _, id := range poolIDs {
			idxs := perPool[id]
			if len(idxs) == 0 {
				continue
			}
			exec := e.execFor(e.poolIndex[id], id)
			for _, i := range idxs {
				if err := exec.Apply(txs[i], round); err != nil {
					rejectedPerShard[shard]++
					continue
				}
				accepted[i] = true
				leaves[i] = sidechain.TxLeaf(txs[i])
				if e.tr != nil {
					e.shardTxs[shard]++
					e.shardGas[shard] += gasmodel.UniswapOpGas(txs[i].Kind)
				}
			}
		}
		if e.tr != nil {
			if e.shardBusy[shard] == 0 {
				e.shardFirst[shard] = roundStart
			}
			e.shardBusy[shard] += e.tr.Since() - roundStart
		}
	})
	res := RoundResult{Rejected: unknown}
	for _, r := range rejectedPerShard {
		res.Rejected += r
	}
	res.Included = make([]*summary.Tx, 0, len(txs)-res.Rejected)
	for i, ok := range accepted {
		if ok {
			leaves[len(res.Included)] = leaves[i]
			res.Included = append(res.Included, txs[i])
		}
	}
	res.TxRoot = merkle.RootFromLeafHashes(leaves[:len(res.Included)])
	e.Accepted += len(res.Included)
	e.Rejected += res.Rejected
	return res, nil
}

// EpochResult is the epoch's folded outcome: per-pool sync payloads and
// state roots in canonical pool order, the single epoch summary root
// every shard layout agrees on, and the payloads the mainchain receives.
type EpochResult struct {
	Epoch   uint64
	PoolIDs []string
	// Payloads[i] summarizes PoolIDs[i]; PoolID is set on each payload.
	// Every pool has one, idle or not: the sidechain's summary blocks and
	// the store's payload digests cover them all.
	Payloads []*summary.SyncPayload
	// OnChain is the payloads the epoch's sync carries, in canonical
	// order: every touched pool's, and an untouched pool's only when it
	// has deposits to pay out. An idle pool's reserves and positions are
	// already in the bank, so it sends nothing.
	OnChain []*summary.SyncPayload
	// OnChainDigests[i] is OnChain[i].Digest(), computed in the sharded
	// fold.
	OnChainDigests [][32]byte
	// PoolRoots[i] is the end-of-epoch state root of PoolIDs[i].
	PoolRoots [][32]byte
	// SummaryRoot folds PoolRoots in canonical order: identical for any
	// shard count under the same seed and traffic.
	SummaryRoot [32]byte
}

// untouchedPayload is the sync payload of a pool with no executor this
// epoch: nothing traded, so the payout list is exactly the epoch's
// earmarked deposits and the position list is empty. It is bit-identical
// to the Summary of a summary.NewExecutor that ran no transactions, which
// the engine's tests compute as its reference.
func untouchedPayload(epoch uint64, p *amm.Pool, deposits map[string]summary.Deposit, nextGroupKey []byte) *summary.SyncPayload {
	sp := &summary.SyncPayload{
		Epoch:        epoch,
		PoolReserve0: p.Reserve0,
		PoolReserve1: p.Reserve1,
		NextGroupKey: nextGroupKey,
	}
	if len(deposits) > 0 {
		sp.Payouts = make([]summary.PayoutEntry, 0, len(deposits))
		for user, d := range deposits {
			sp.Payouts = append(sp.Payouts, summary.PayoutEntry{User: user, Amount0: d.Amount0, Amount1: d.Amount1})
		}
		sp.SortEntries()
	}
	return sp
}

// StateRoots returns the current canonical state root of every pool in
// canonical order (valid between epochs). Between epochs every pool is
// clean, so the incremental path answers entirely from cached roots.
//
// "Between epochs" includes the commit stage: StateRoots shares the
// per-pool commitment caches with SealedEpoch.Finalize, so it must not
// run while a sealed epoch is still finalizing (in a pipelined
// MultiSystem, epoch N's Finalize overlaps epoch N+1's execution — an
// OnEpochStart hook is NOT a safe place to call this; read roots from
// the epoch's EpochResult or the run report instead).
func (e *Engine) StateRoots() [][32]byte {
	ids := e.reg.IDs()
	roots := make([][32]byte, len(ids))
	e.runShards(func(_ int, poolIDs []string) {
		for _, id := range poolIDs {
			i := e.poolIndex[id]
			roots[i] = e.commits[i].Root(id, e.reg.Get(id))
		}
	})
	return roots
}

// RestorePools replaces the canonical state of the named pools with
// recovered snapshots (crash recovery, before any BeginEpoch). The
// incremental commitment caches for restored pools are reset, so the
// next epoch close rebuilds their commitments from the restored state —
// the recovered roots are therefore re-derived, never trusted from disk.
func (e *Engine) RestorePools(pools map[string]*amm.Pool) error {
	if e.running {
		return ErrEpochStarted
	}
	for id, p := range pools {
		i, ok := e.poolIndex[id]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownPool, id)
		}
		e.reg.replace(id, p)
		e.commits[i] = newPoolCommit()
	}
	return nil
}

// UniformDeposits earmarks the same two-token deposit for every (pool,
// user) pair — the multi-pool analogue of the paper's per-epoch deposit.
func UniformDeposits(poolIDs, users []string, amount0, amount1 u256.Int) map[string]map[string]summary.Deposit {
	out := make(map[string]map[string]summary.Deposit, len(poolIDs))
	for _, pid := range poolIDs {
		bucket := make(map[string]summary.Deposit, len(users))
		for _, u := range users {
			bucket[u] = summary.Deposit{Amount0: amount0, Amount1: amount1}
		}
		out[pid] = bucket
	}
	return out
}
