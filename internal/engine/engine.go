package engine

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// Config parameterizes the engine. Zero values take defaults.
type Config struct {
	// Seed identifies the run for callers that derive stochastic inputs
	// (workload.MultiGenerator derives an independent per-pool RNG from
	// it). The engine's own execution path draws no randomness — results
	// depend only on pool genesis and the transaction streams — which is
	// what makes worker-count invariance possible.
	Seed int64
	// NumPools is the number of registered pools (default 1).
	NumPools int
	// NumShards is the number of workers that pull pools in every round
	// and at seal, finalize and StateRoots (default GOMAXPROCS). Results
	// are bit-identical for any value.
	NumShards int
	// InitialLiquidity seeds each pool's genesis full-range position
	// (default amm.GenesisLiquidity).
	InitialLiquidity u256.Int
	// Tracer, when non-nil, accumulates per-worker execute timing (busy
	// wall-clock, pool batches, tx count, gas) each epoch and records one
	// execute-shard span per worker slot a round started, at seal time.
	// Nil costs nothing on the execute path and never changes computed
	// state.
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

// Engine executes transactions for N registered pools on NumShards
// workers that pull whole pools (see pull): a pool's transactions of a
// round always execute sequentially in submission order on one worker,
// so state evolution per pool is independent of the worker count. The
// engine is not safe for concurrent use by multiple callers.
type Engine struct {
	reg       *Registry
	numShards int
	// poolIndex maps a pool ID to its canonical index.
	poolIndex map[string]int

	epoch   uint64
	running bool
	// execs[i] is pool i's epoch executor, created lazily on the pool's
	// first transaction (or deposit) of the epoch so SnapshotBank cost is
	// proportional to active pools, not registered pools. Slots are
	// written only by the worker that pulled the pool (or between rounds
	// on the caller's goroutine), so no locking is needed.
	execs []*summary.Executor
	// queued[i] holds QueueDeposit's credits for pool i while it has no
	// executor; execFor applies them when it opens one. Same ownership
	// as execs.
	queued [][]credit
	// epochDeposits holds BeginEpoch's per-pool deposit earmarks for
	// lazily created executors; read-only for the epoch's duration.
	epochDeposits map[string]map[string]summary.Deposit
	// roots[i] caches pool i's state root as of its last computation.
	roots []rootCache

	// A round's scratch, reused across rounds: perPool[i] lists the batch
	// indices routed to pool i in submission order, active the pools with
	// work (heaviest first), accepted marks executed transactions, and
	// leaves gathers their leaves for the root fold, which destroys them.
	perPool  [][]int
	active   []int
	accepted []bool
	leaves   [][32]byte

	// Cumulative stats across all epochs.
	Accepted int
	Rejected int

	// tr is the tracer; stats[w] is worker w's execute accounting this
	// epoch (allocated only when traced; each worker writes its own slot).
	tr    *trace.Tracer
	stats []workerStats
}

// workerStats is one worker slot's execute accounting for the epoch:
// whether a round started it, the tracer offset of that first round,
// summed wall-clock over the pools it pulled, pool batches pulled,
// accepted transactions and their gas-model cost.
type workerStats struct {
	ran         bool
	first, busy time.Duration
	pools, txs  int
	gas         uint64
}

// credit is a deposit QueueDeposit holds until its pool's executor opens.
type credit struct {
	user             string
	amount0, amount1 u256.Int
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
		perPool:   make([][]int, cfg.NumPools),
		queued:    make([][]credit, cfg.NumPools),
		tr:        cfg.Tracer,
	}
	if e.tr != nil {
		e.stats = make([]workerStats, cfg.NumShards)
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
	for i, id := range e.reg.IDs() {
		e.poolIndex[id] = i
	}
	e.roots = make([]rootCache, cfg.NumPools)
	return e, nil
}

// NumShards returns the worker count.
func (e *Engine) NumShards() int { return e.numShards }

// PoolIDs returns the registered pool IDs in canonical order.
func (e *Engine) PoolIDs() []string { return e.reg.IDs() }

// Pool returns the canonical (epoch-start) state of a pool.
func (e *Engine) Pool(id string) *amm.Pool { return e.reg.Get(id) }

// Epoch returns the epoch in progress (0 before the first BeginEpoch).
func (e *Engine) Epoch() uint64 { return e.epoch }

// pull calls fn(w, k) once for every k in [0, n) on at most workers
// goroutines, each taking the next k from one shared counter, and waits.
// Callers list their items heaviest first, so this is Graham's
// longest-processing-time-first list scheduling: a heavy pool starts
// at once and the light ones fill the other workers around it. w is
// the worker's slot for per-worker accounting. With one worker or one
// item, fn runs on the caller's goroutine.
func pull(workers, n int, fn func(w, k int)) {
	if workers = min(workers, n); workers <= 1 {
		for k := 0; k < n; k++ {
			fn(0, k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				fn(w, k)
			}
		}()
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
	clear(e.stats)
	return nil
}

// execFor returns pool index i's executor, snapshotting the pool and
// applying its queued credits on first use. Safe only on the worker that
// pulled the pool or between rounds.
func (e *Engine) execFor(i int, id string) *summary.Executor {
	exec := e.execs[i]
	if exec == nil {
		exec = summary.NewExecutor(e.epoch, e.reg.Get(id), e.epochDeposits[id])
		for _, c := range e.queued[i] {
			_ = exec.AddDeposit(c.user, c.amount0, c.amount1) // QueueDeposit drops a failed credit
		}
		e.queued[i] = e.queued[i][:0]
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

// QueueDeposit is AddDeposit for a credit nobody waits on: it lands on
// the pool's open executor at once, or, when the pool has none yet, when
// the worker that pulls the pool opens one, before the pool's first
// transaction. Opening snapshots are thereby off the caller's goroutine.
// A credit that would overflow is dropped.
func (e *Engine) QueueDeposit(poolID, user string, amount0, amount1 u256.Int) error {
	if !e.running {
		return ErrNoEpoch
	}
	i, ok := e.poolIndex[poolID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPool, poolID)
	}
	if exec := e.execs[i]; exec != nil {
		_ = exec.AddDeposit(user, amount0, amount1)
		return nil
	}
	e.queued[i] = append(e.queued[i], credit{user, amount0, amount1})
	return nil
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

// RoundResult reports one round's execution.
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

// ExecuteRound is ExecuteRoundLeaves for a caller that has not hashed
// the batch: it computes sidechain.TxLeaf of each transaction first.
func (e *Engine) ExecuteRound(txs []*summary.Tx, round uint64) (RoundResult, error) {
	leaves := make([][32]byte, len(txs))
	for i, tx := range txs {
		leaves[i] = sidechain.TxLeaf(tx)
	}
	return e.ExecuteRoundLeaves(txs, leaves, round)
}

// ExecuteRoundLeaves executes a batch against the epoch snapshots, where
// leaves[i] is sidechain.TxLeaf(txs[i]) (the node hashes each transaction
// once, at admission). The batch is partitioned by canonical pool index,
// preserving submission order within each pool, and the workers pull the
// active pools heaviest first. A transaction with an empty PoolID routes
// to the first registered pool. The leaves of the accepted transactions
// fold, in submission order, into TxRoot; the engine hashes no
// transaction, and a rejected one's leaf is never read.
func (e *Engine) ExecuteRoundLeaves(txs []*summary.Tx, leaves [][32]byte, round uint64) (RoundResult, error) {
	if !e.running {
		return RoundResult{}, ErrNoEpoch
	}
	if len(leaves) != len(txs) {
		return RoundResult{}, fmt.Errorf("engine: %d leaves for %d transactions", len(leaves), len(txs))
	}
	e.active = e.active[:0]
	for i, tx := range txs {
		p, ok := 0, true
		if tx.PoolID != "" {
			p, ok = e.poolIndex[tx.PoolID]
		}
		if !ok {
			continue // unregistered pool: rejected
		}
		if len(e.perPool[p]) == 0 {
			e.active = append(e.active, p)
		}
		e.perPool[p] = append(e.perPool[p], i)
	}
	slices.SortFunc(e.active, func(a, b int) int {
		return cmp.Or(len(e.perPool[b])-len(e.perPool[a]), a-b)
	})
	if cap(e.accepted) < len(txs) {
		e.accepted = make([]bool, len(txs))
	}
	accepted := e.accepted[:len(txs)] // all false: the fold below resets it
	if e.tr != nil {
		// Every slot the round starts is marked, whether or not it wins a
		// pull, so the epoch's span count does not depend on timing.
		start := e.tr.Since()
		for w := range min(e.numShards, len(e.active)) {
			if st := &e.stats[w]; !st.ran {
				st.ran, st.first = true, start
			}
		}
	}
	ids := e.reg.IDs()
	pull(e.numShards, len(e.active), func(w, k int) {
		p := e.active[k]
		var start time.Duration
		if e.tr != nil {
			start = e.tr.Since()
		}
		exec := e.execFor(p, ids[p])
		n, gas := 0, uint64(0)
		for _, i := range e.perPool[p] {
			if exec.Apply(txs[i], round) != nil {
				continue
			}
			accepted[i] = true
			n++
			if e.tr != nil {
				gas += gasmodel.UniswapOpGas(txs[i].Kind)
			}
		}
		e.perPool[p] = e.perPool[p][:0]
		if e.tr != nil {
			st := &e.stats[w]
			st.pools, st.txs, st.gas, st.busy = st.pools+1, st.txs+n, st.gas+gas, st.busy+e.tr.Since()-start
		}
	})
	res := RoundResult{Included: make([]*summary.Tx, 0, len(txs))}
	folded := e.leaves[:0]
	for i, ok := range accepted {
		if ok {
			accepted[i] = false
			res.Included = append(res.Included, txs[i])
			folded = append(folded, leaves[i])
		}
	}
	e.leaves = folded
	res.TxRoot = merkle.RootFromLeafHashes(folded)
	res.Rejected = len(txs) - len(res.Included)
	e.Accepted += len(res.Included)
	e.Rejected += res.Rejected
	return res, nil
}

// EpochResult is the epoch's folded outcome: per-pool sync payloads and
// state roots in canonical pool order, the single epoch summary root
// every worker count agrees on, and the payloads the mainchain receives.
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
	// OnChainDigests[i] is OnChain[i].Digest(), computed in the parallel
	// fold.
	OnChainDigests [][32]byte
	// PoolRoots[i] is the end-of-epoch state root of PoolIDs[i].
	PoolRoots [][32]byte
	// SummaryRoot folds PoolRoots in canonical order: identical for any
	// worker count under the same seed and traffic.
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
// canonical order (valid between epochs). Between epochs every pool's
// cached root is its current root, so only a pool with no cached root
// (never committed, or restored since) is re-hashed.
//
// "Between epochs" includes the commit stage: StateRoots shares the
// per-pool root caches with SealedEpoch.Finalize, so it must not
// run while a sealed epoch is still finalizing (in a pipelined
// MultiSystem, epoch N's Finalize overlaps epoch N+1's execution — an
// OnEpochStart hook is NOT a safe place to call this; read roots from
// the epoch's EpochResult or the run report instead).
func (e *Engine) StateRoots() [][32]byte {
	ids := e.reg.IDs()
	roots := make([][32]byte, len(ids))
	pull(e.numShards, len(ids), func(_, i int) {
		roots[i] = e.roots[i].get(ids[i], e.reg.Get(ids[i]), false)
	})
	return roots
}

// RestorePools replaces the canonical state of the named pools with
// recovered snapshots (crash recovery, before any BeginEpoch). The
// cached roots of restored pools are dropped, so the next read re-hashes
// the restored state — the recovered roots are therefore re-derived,
// never trusted from disk.
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
		e.roots[i] = rootCache{}
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
