// Package engine is ammBoost's multi-pool parallel execution engine: a
// registry of independent AMM pools whose per-round transaction batches
// a fixed set of workers pull, heaviest pool first. Each pool's batch
// executes sequentially on one worker (per-pool order is submission
// order) while pools run concurrently, and the per-pool state roots fold
// — in canonical pool order, independent of which worker ran what — into
// a single epoch summary root via internal/crypto/merkle. A fixed seed
// therefore yields bit-identical pool roots and summary roots for any
// worker count.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
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
	ErrUnknownPool  = errors.New("engine: pool not registered")
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
	numShards int
	// ids are the registered pool IDs in canonical (sorted) order, pools[i]
	// is ids[i]'s canonical (epoch-start) state, and index maps an ID to
	// its canonical index.
	ids   []string
	pools []*amm.Pool
	index map[string]int
	// users numbers the users the engine serves. A node adds its whole
	// user set at construction, so its rounds resolve no names.
	users *summary.Users

	epoch   uint64
	running bool
	// execs[i] is pool i's epoch executor, created lazily on the pool's
	// first transaction (or deposit) of the epoch so SnapshotBank cost is
	// proportional to active pools, not registered pools. Slots are
	// written only by the worker that pulled the pool (or between rounds
	// on the caller's goroutine), so no locking is needed.
	execs []*summary.Executor
	// pending[i] is pool i's deposit ledger (BeginEpoch's earmarks, then
	// credits), on which its executor opens. Same ownership as execs.
	pending []summary.Ledger
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

// Ref is a transaction's pool and user as the engine numbers them: the
// pool's canonical index and the user's index in Users.
type Ref struct{ Pool, User uint32 }

// NoPool is Ref.Pool for a pool the engine does not register.
const NoPool uint32 = math.MaxUint32

// PoolName is the canonical identifier for the i-th pool of a deployment;
// workload generators and the engine must agree on it. The canonical
// order (sorted pool IDs) defines the leaf order of the epoch summary
// root.
func PoolName(i int) string { return fmt.Sprintf("pool-%04d", i) }

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
		numShards: cfg.NumShards,
		ids:       make([]string, cfg.NumPools),
		pools:     make([]*amm.Pool, cfg.NumPools),
		index:     make(map[string]int, cfg.NumPools),
		users:     summary.NewUsers(),
		perPool:   make([][]int, cfg.NumPools),
		roots:     make([]rootCache, cfg.NumPools),
		tr:        cfg.Tracer,
	}
	if e.tr != nil {
		e.stats = make([]workerStats, cfg.NumShards)
	}
	for i := range e.ids {
		e.ids[i] = PoolName(i)
	}
	slices.Sort(e.ids)
	for i, id := range e.ids {
		pool, _, err := amm.NewGenesisPool(GenesisPositionID(id), cfg.InitialLiquidity)
		if err != nil {
			return nil, err
		}
		e.pools[i], e.index[id] = pool, i
	}
	return e, nil
}

// NumShards returns the worker count.
func (e *Engine) NumShards() int { return e.numShards }

// PoolIDs returns the registered pool IDs in canonical order.
func (e *Engine) PoolIDs() []string { return e.ids }

// Pool returns the canonical (epoch-start) state of a pool, or nil.
func (e *Engine) Pool(id string) *amm.Pool {
	if i, ok := e.index[id]; ok {
		return e.pools[i]
	}
	return nil
}

// Users returns the engine's user table. Add a deployment's users before
// the first round: producers look names up concurrently.
func (e *Engine) Users() *summary.Users { return e.users }

// Resolve numbers tx's pool (the empty ID is the first pool) and user:
// NoPool and summary.NoUser, which a round rejects, for names the engine
// lacks. It only reads, so producers may resolve from any goroutine.
func (e *Engine) Resolve(tx *summary.Tx) Ref {
	ref := Ref{Pool: NoPool, User: e.users.Lookup(tx.User)}
	if i, ok := e.index[tx.PoolID]; ok || tx.PoolID == "" {
		ref.Pool = uint32(i)
	}
	return ref
}

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
// AddDeposit). Users the engine has not seen are numbered as they come,
// by pool, then name. Snapshots are lazy: a pool's state is cloned into
// a per-pool executor only when its first transaction or deposit of the
// epoch arrives, so epoch-open cost is proportional to the epoch's
// active pools instead of all registered pools.
func (e *Engine) BeginEpoch(epoch uint64, deposits map[string]map[string]summary.Deposit) error {
	if e.running {
		return ErrEpochStarted
	}
	e.pending = make([]summary.Ledger, len(e.ids))
	for i, id := range e.ids {
		if bucket := deposits[id]; len(bucket) > 0 {
			for _, user := range slices.Sorted(maps.Keys(bucket)) {
				_ = e.pending[i].Add(e.users.Add(user), bucket[user].Amount0, bucket[user].Amount1) // onto zero: cannot overflow
			}
		}
	}
	e.execs = make([]*summary.Executor, len(e.ids))
	e.epoch = epoch
	e.running = true
	clear(e.stats)
	return nil
}

// execFor returns pool i's executor, snapshotting the pool on first use.
// Safe only on the worker that pulled the pool or between rounds.
func (e *Engine) execFor(i int) *summary.Executor {
	if e.execs[i] == nil {
		e.execs[i] = summary.OpenExecutor(e.epoch, e.pools[i], e.users, &e.pending[i])
	}
	return e.execs[i]
}

// poolFor returns a registered pool's index while an epoch runs.
func (e *Engine) poolFor(poolID string) (int, error) {
	if !e.running {
		return 0, ErrNoEpoch
	}
	i, ok := e.index[poolID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownPool, poolID)
	}
	return i, nil
}

// AddDeposit credits a user's mid-epoch deposit on one pool (or fails
// with summary.ErrDepositOverflow).
func (e *Engine) AddDeposit(poolID, user string, amount0, amount1 u256.Int) error {
	i, err := e.poolFor(poolID)
	if err != nil {
		return err
	}
	return e.execFor(i).AddDeposit(user, amount0, amount1)
}

// QueueDeposit is AddDeposit, by index, for a credit nobody waits on: it
// lands on the pool's deposit ledger without opening an executor, so
// opening snapshots stay off the caller's goroutine, and a pool no round
// touches pays it out as an idle pool's earmark. A credit that would
// overflow is dropped.
func (e *Engine) QueueDeposit(ref Ref, amount0, amount1 u256.Int) error {
	if !e.running {
		return ErrNoEpoch
	}
	if ref.Pool >= uint32(len(e.ids)) {
		return fmt.Errorf("%w: index %d", ErrUnknownPool, ref.Pool)
	}
	if ref.User >= uint32(len(e.users.Names())) {
		return fmt.Errorf("%w: index %d", summary.ErrUnknownUser, ref.User)
	}
	_ = e.pending[ref.Pool].Add(ref.User, amount0, amount1)
	return nil
}

// WithdrawDeposit debits a user's mid-epoch deposit on one pool — the
// origin-chain half of a cross-chain transfer. The debit fails atomically
// (summary.ErrInsufficientDeposit) when the remaining deposit cannot
// cover it.
func (e *Engine) WithdrawDeposit(poolID, user string, amount0, amount1 u256.Int) error {
	i, err := e.poolFor(poolID)
	if err != nil {
		return err
	}
	return e.execFor(i).WithdrawDeposit(user, amount0, amount1)
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

// ExecuteRound is ExecuteRoundIndexed for a caller that has neither
// resolved nor hashed the batch: it resolves each transaction and
// computes its sidechain.TxLeaf first.
func (e *Engine) ExecuteRound(txs []*summary.Tx, round uint64) (RoundResult, error) {
	refs := make([]Ref, len(txs))
	leaves := make([][32]byte, len(txs))
	for i, tx := range txs {
		refs[i], leaves[i] = e.Resolve(tx), sidechain.TxLeaf(tx)
	}
	return e.ExecuteRoundIndexed(txs, refs, leaves, round)
}

// ExecuteRoundIndexed executes a batch against the epoch snapshots, where
// refs[i] is Resolve(txs[i]) and leaves[i] is sidechain.TxLeaf(txs[i])
// (the node does both once, at admission). The batch is partitioned by
// pool index, preserving submission order within each pool, and the
// workers pull the active pools heaviest first; each transaction applies
// as its user index. The leaves of the accepted transactions fold, in
// submission order, into TxRoot; the engine hashes no transaction, and a
// rejected one's leaf is never read.
func (e *Engine) ExecuteRoundIndexed(txs []*summary.Tx, refs []Ref, leaves [][32]byte, round uint64) (RoundResult, error) {
	if !e.running {
		return RoundResult{}, ErrNoEpoch
	}
	if len(refs) != len(txs) || len(leaves) != len(txs) {
		return RoundResult{}, fmt.Errorf("engine: %d refs and %d leaves for %d transactions", len(refs), len(leaves), len(txs))
	}
	e.active = e.active[:0]
	for i, ref := range refs {
		if ref.Pool >= uint32(len(e.ids)) {
			continue // unregistered pool: rejected
		}
		p := int(ref.Pool)
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
	pull(e.numShards, len(e.active), func(w, k int) {
		p := e.active[k]
		var start time.Duration
		if e.tr != nil {
			start = e.tr.Since()
		}
		exec := e.execFor(p)
		n, gas := 0, uint64(0)
		for _, i := range e.perPool[p] {
			if exec.ApplyIndexed(txs[i], refs[i].User, round) != nil {
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
	roots := make([][32]byte, len(e.ids))
	pull(e.numShards, len(e.ids), func(_, i int) {
		roots[i] = e.roots[i].get(e.ids[i], e.pools[i], false)
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
		i, ok := e.index[id]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownPool, id)
		}
		e.pools[i] = p
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
