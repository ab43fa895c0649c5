package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/gasmodel"
	"ammboost/internal/ingest"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// The isolated layer drives: each calls one module directly, outside the
// node, on the transactions the traced run recorded (or, for the pure
// math layers, on fixed operands), so a layer's own cost is a number that
// does not depend on what the rest of the lifecycle was doing. They run
// single-goroutine unless the metric name says otherwise.

var kindNames = map[gasmodel.TxKind]string{
	gasmodel.KindSwap: "swap", gasmodel.KindMint: "mint",
	gasmodel.KindBurn: "burn", gasmodel.KindCollect: "collect",
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// driveIngest measures ingest.Pool alone: admission of n entries in
// batches of submitBatch from one goroutine and from two, and the drain
// that merges them back into canonical order.
func driveIngest(n int, m map[string]float64) {
	entries := make([]ingest.Entry, n)
	tx, rc := &summary.Tx{}, &chain.Receipt{}
	for i := range entries {
		entries[i] = ingest.Entry{Tx: tx, Rc: rc}
	}
	ctx := context.Background()
	admit := func(pool *ingest.Pool, part []ingest.Entry) {
		for off := 0; off < len(part); off += submitBatch {
			pool.Admit(ctx, part[off:min(off+submitBatch, len(part))])
		}
	}
	pool := ingest.New(ingest.Policy{Capacity: n, MaxWait: -1})
	start := time.Now()
	admit(pool, entries)
	m["ingest.admit_ns_per_tx_1p"] = perOp(time.Since(start), n)
	start = time.Now()
	drained := len(pool.Drain())
	m["ingest.drain_ns_per_tx"] = perOp(time.Since(start), drained)

	pool = ingest.New(ingest.Policy{Capacity: n, MaxWait: -1})
	var wg sync.WaitGroup
	start = time.Now()
	for p := 0; p < numProducers; p++ {
		wg.Add(1)
		go func(part []ingest.Entry) {
			defer wg.Done()
			admit(pool, part)
		}(entries[p*n/numProducers : (p+1)*n/numProducers])
	}
	wg.Wait()
	m["ingest.admit_ns_per_tx_2p"] = perOp(time.Since(start), n)
}

// driveEngine replays the recorded arrival log through a single-shard
// engine directly — BeginEpoch, one ExecuteRound per drain boundary,
// SealEpoch, Finalize — with every (pool, user) pair funded up front, and
// folds the epoch's pool roots once more in isolation.
func driveEngine(w spec, cfg chain.Config, users []string, log *chain.ArrivalLog, m map[string]float64) error {
	eng, err := engine.New(engine.Config{Seed: cfg.Seed, NumPools: w.pools, NumShards: 1})
	if err != nil {
		return err
	}
	dep := u256.FromUint64(1 << 40)
	deposits := engine.UniformDeposits(eng.PoolIDs(), users, dep, dep)
	var execute, seal, finalize time.Duration
	txs, epochs := 0, 0
	var roots [][32]byte
	for k := 0; k < log.Boundaries(); {
		epochs++
		if err := eng.BeginEpoch(uint64(epochs), deposits); err != nil {
			return err
		}
		for r := 1; r <= w.epochRounds && k < log.Boundaries(); r, k = r+1, k+1 {
			batch := log.Txs(k)
			start := time.Now()
			res, err := eng.ExecuteRound(batch, uint64(r))
			execute += time.Since(start)
			if err != nil {
				return err
			}
			txs += len(res.Included)
		}
		start := time.Now()
		sealed, err := eng.SealEpoch(nil)
		seal += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		roots = sealed.Finalize().PoolRoots
		finalize += time.Since(start)
	}
	m["engine.replay_execute_ns_per_tx"] = perOp(execute, txs)
	m["engine.replay_seal_ms_per_epoch"] = ms(seal) / float64(max(epochs, 1))
	m["engine.replay_finalize_ms_per_epoch"] = ms(finalize) / float64(max(epochs, 1))

	const folds = 200
	start := time.Now()
	for i := 0; i < folds; i++ {
		sink32 = engine.FoldRoots(roots)
	}
	m["engine.fold_roots_us"] = perOp(time.Since(start), folds) / 1e3
	return nil
}

var sink32 [32]byte

// applyCap bounds the summary drive: enough operations of every kind for
// a stable mean on any of the workloads' mixes.
const applyCap = 40_000

// driveSummary applies the hottest pool's recorded transactions, in
// their recorded order, to a fresh summary.Executor: once timing every
// Apply by kind, and once more on a second executor counting the
// allocations of every same-kind run (ReadMemStats stops the world, so it
// stays out of the timed pass).
func driveSummary(cfg chain.Config, users []string, log *chain.ArrivalLog, m map[string]float64) error {
	// One pass over the log (Txs clones): count every pool's traffic and
	// keep each pool's first applyCap transactions until the hottest is
	// known.
	count := make(map[string]int)
	head := make(map[string][]*summary.Tx)
	hottest := ""
	for k := 0; k < log.Boundaries(); k++ {
		for _, tx := range log.Txs(k) {
			id := tx.PoolID
			if count[id]++; len(head[id]) < applyCap {
				head[id] = append(head[id], tx)
			}
			if n := count[id]; n > count[hottest] || (n == count[hottest] && id < hottest) {
				hottest = id
			}
		}
	}
	txs := head[hottest]
	newExec := func() (*summary.Executor, error) {
		pool, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
		if err != nil {
			return nil, err
		}
		if _, err := pool.Mint(engine.GenesisPositionID(hottest), "lp-genesis", -887220, 887220, cfg.WithDefaults().InitialLiquidity); err != nil {
			return nil, err
		}
		deps := make(map[string]summary.Deposit, len(users))
		for _, u := range users {
			deps[u] = summary.Deposit{Amount0: u256.FromUint64(1 << 50), Amount1: u256.FromUint64(1 << 50)}
		}
		return summary.NewExecutor(1, pool, deps), nil
	}

	timed, err := newExec()
	if err != nil {
		return err
	}
	busy := make(map[gasmodel.TxKind]time.Duration)
	applied := make(map[gasmodel.TxKind]int)
	for _, tx := range txs {
		start := time.Now()
		err := timed.Apply(tx, 1)
		d := time.Since(start)
		if err == nil {
			busy[tx.Kind] += d
			applied[tx.Kind]++
		}
	}
	counted, err := newExec()
	if err != nil {
		return err
	}
	allocs := make(map[gasmodel.TxKind]uint64)
	for i := 0; i < len(txs); {
		kind := txs[i].Kind
		before := mallocCount()
		for ; i < len(txs) && txs[i].Kind == kind; i++ {
			// Same state and order as the timed pass, so the same
			// outcomes; applied[kind] from that pass is the divisor.
			_ = counted.Apply(txs[i], 1)
		}
		allocs[kind] += mallocCount() - before
	}
	for kind, name := range kindNames {
		m["summary.apply_ns_per_tx."+name] = perOp(busy[kind], applied[kind])
		m["summary.apply_allocs_per_tx."+name] = float64(allocs[kind]) / float64(max(applied[kind], 1))
	}
	return nil
}

// driveMath measures amm.Pool.Swap on a one-position pool (alternating
// direction, so the price stays near 1.0 and no tick is crossed) and
// u256.MulDiv on Q96-scale operands — the two pure layers under every
// swap.
func driveMath(m map[string]float64) error {
	pool, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		return err
	}
	if _, err := pool.Mint("genesis", "lp", -887220, 887220, u256.MustFromDecimal("10000000000000")); err != nil {
		return err
	}
	const swaps = 20_000
	amount := u256.FromUint64(1_000_000)
	start := time.Now()
	for i := 0; i < swaps; i++ {
		if _, err := pool.Swap(i%2 == 0, true, amount, u256.Zero); err != nil {
			return fmt.Errorf("amm swap drive: %w", err)
		}
	}
	m["amm.swap_ns_per_op"] = perOp(time.Since(start), swaps)

	const muls = 200_000
	x := u256.Add(u256.Q96, u256.FromUint64(12345))
	y := u256.FromUint64(1_000_003)
	before := mallocCount()
	start = time.Now()
	for i := 0; i < muls; i++ {
		sinkInt, _ = u256.MulDiv(x, y, u256.Q96)
	}
	d := time.Since(start)
	m["u256.muldiv_ns_per_op"] = perOp(d, muls)
	m["u256.muldiv_allocs_per_op"] = float64(mallocCount()-before) / muls
	return nil
}

var sinkInt u256.Int

// driveTsig measures the threshold-signature layer at the workload's
// committee size: dealing one committee's keys (done once per epoch in
// the node, untraced there), signing one sync part (threshold partial
// signatures plus the combine) and verifying it.
func driveTsig(committee int, m map[string]float64) error {
	_, threshold := pbft.Quorum(pbft.FaultBudget(committee))
	threshold = min(threshold, committee)
	const deals, parts = 3, 6
	var dealing *tsig.Dealing
	start := time.Now()
	for i := 0; i < deals; i++ {
		var err error
		if dealing, err = tsig.Deal(rand.Reader, threshold, committee); err != nil {
			return err
		}
	}
	m["tsig.deal_ms_per_epoch"] = ms(time.Since(start)) / deals
	group := tsig.GroupKey{PK: dealing.Commitments[0], Threshold: threshold, N: committee}
	var sign, verify time.Duration
	for i := 0; i < parts; i++ {
		digest := [32]byte{byte(i)}
		start = time.Now()
		partials := make([]tsig.PartialSig, threshold)
		for j := range partials {
			partials[j] = tsig.PartialSign(dealing.Shares[j], digest[:])
		}
		sig, err := tsig.Combine(group, partials)
		sign += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		err = tsig.Verify(group, digest[:], sig)
		verify += time.Since(start)
		if err != nil {
			return err
		}
	}
	m["tsig.sign_ms_per_part"] = ms(sign) / parts
	m["tsig.verify_ms_per_part"] = ms(verify) / parts
	return nil
}

// driveLayers runs every isolated drive for the workload.
func driveLayers(w spec, t *trial, m map[string]float64) error {
	runtime.GC()
	driveIngest(200_000, m)
	if err := driveEngine(w, t.cfg, t.users, t.arrivals, m); err != nil {
		return fmt.Errorf("engine drive: %w", err)
	}
	if err := driveSummary(t.cfg, t.users, t.arrivals, m); err != nil {
		return fmt.Errorf("summary drive: %w", err)
	}
	if err := driveMath(m); err != nil {
		return err
	}
	if err := driveTsig(w.committee, m); err != nil {
		return fmt.Errorf("tsig drive: %w", err)
	}
	return nil
}
