package engine

import (
	"ammboost/internal/amm"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
)

// SealedEpoch is the frozen hand-off between an epoch's execution and its
// commitment build, the unit of work the pipelined lifecycle moves off
// the run loop. SealEpoch captures everything Finalize needs — the final
// per-pool states, the epoch's executors and the per-pool root caches —
// and leaves the engine ready for the next BeginEpoch. Finalize may then
// run on any goroutine: the captured pools are read-only from the
// engine's perspective (the next epoch's executors clone them but never
// mutate them), so the only writers of the captured structures are
// Finalize's own workers.
//
// Hand-off discipline for the caller:
//   - At most one Finalize may run at a time across the SealedEpochs of
//     one engine (they share the per-pool root caches), and sealed
//     epochs must finalize in seal order — an idle pool answers from the
//     root its last touched epoch stored.
//   - Finalize must be called exactly once per sealed epoch; skipping one
//     would leave the root caches behind the canonical state.
type SealedEpoch struct {
	epoch uint64
	ids   []string
	// pools[i] is ids[i]'s end-of-epoch state (canonical since the seal).
	pools []*amm.Pool
	// execs[i] is the epoch executor, nil for pools untouched this epoch;
	// an untouched pool pays out its pending deposits, named from users, a
	// view of the engine's table frozen at the seal.
	execs        []*summary.Executor
	pending      []summary.Ledger
	users        *summary.Users
	roots        []rootCache
	nextGroupKey []byte

	numShards int
	// order lists the pool indices the workers pull: the epoch's active
	// pools first, then the idle ones, each in canonical order.
	order []int
}

// ActiveSnapshots returns the sealed epoch's per-pool final states for
// the pools touched during the epoch (those with executors), in
// canonical order. The returned pools are the frozen end-of-epoch
// states — read-only by the SealedEpoch contract — which is exactly what
// the durable store encodes into the epoch's snapshot record (untouched
// pools carry forward from earlier snapshots or genesis).
func (se *SealedEpoch) ActiveSnapshots() (ids []string, pools []*amm.Pool) {
	for i, id := range se.ids {
		if se.execs[i] != nil {
			ids = append(ids, id)
			pools = append(pools, se.pools[i])
		}
	}
	return ids, pools
}

// SealEpoch closes the running epoch without building its commitment:
// canonical pool states advance to the epoch's final states and the
// frozen hand-off is captured, after which BeginEpoch may open the next
// epoch immediately. The heavy fold — per-pool sync payloads, state
// roots, the summary root — is deferred to SealedEpoch.Finalize, which
// the caller runs straight away or overlaps with the next epoch.
func (e *Engine) SealEpoch(nextGroupKey []byte) (*SealedEpoch, error) {
	if !e.running {
		return nil, ErrNoEpoch
	}
	se := &SealedEpoch{
		epoch:        e.epoch,
		ids:          append([]string(nil), e.ids...),
		pools:        make([]*amm.Pool, len(e.ids)),
		execs:        e.execs,
		pending:      e.pending,
		users:        e.users.Frozen(),
		roots:        e.roots,
		nextGroupKey: nextGroupKey,
		numShards:    e.numShards,
		order:        make([]int, 0, len(e.ids)),
	}
	for _, active := range []bool{true, false} {
		for i, exec := range e.execs {
			if (exec != nil) == active {
				se.order = append(se.order, i)
			}
		}
	}
	// Settle every active executor — the epoch's final pool mutation
	// (fee-growth pokes for summary-included positions). Settling is
	// pool-local, so the workers pull the pools; after this pass the
	// sealed pools are never mutated again and Finalize may read them
	// from any goroutine.
	pull(e.numShards, len(se.order), func(_, k int) {
		i := se.order[k]
		p := e.pools[i]
		if exec := e.execs[i]; exec != nil {
			exec.Settle()
			p = exec.Pool
		}
		se.pools[i] = p
	})
	// Emit one execute-shard span per worker slot a round started — busy
	// time, pool batches pulled, txs and gas.
	for w, st := range e.stats {
		if st.ran {
			e.tr.Record(trace.SpanRecord{
				Stage: trace.StageExecute, Shard: int32(w), Epoch: e.epoch,
				Start: st.first, Dur: st.busy, Pools: st.pools, Txs: st.txs, Gas: st.gas,
			})
		}
	}
	// Advance canonical states. Untouched pools keep theirs.
	copy(e.pools, se.pools)
	e.execs = nil
	e.pending = nil
	e.running = false
	return se, nil
}

// Finalize builds the sealed epoch's folded outcome: per-pool sync
// payloads and state roots in canonical pool order, the summary root,
// and the subset of payloads that go on-chain with their digests. The
// engine's workers pull the pools, active ones first, so commitment and
// digest hashing parallelize the same way execution does. Safe to call
// off the engine's goroutine under the hand-off discipline documented on
// SealedEpoch.
func (se *SealedEpoch) Finalize() *EpochResult {
	// An idle pool — no executor and no deposit to pay out — has nothing
	// the bank does not already hold, so it stays off the mainchain.
	onChain := func(i int, p *summary.SyncPayload) bool {
		return se.execs[i] != nil || len(p.Payouts) > 0
	}
	payloads := make([]*summary.SyncPayload, len(se.ids))
	digests := make([][32]byte, len(se.ids)) // on-chain payloads' only
	roots := make([][32]byte, len(se.ids))
	pull(se.numShards, len(se.order), func(_, k int) {
		i := se.order[k]
		id, pool := se.ids[i], se.pools[i]
		var p *summary.SyncPayload
		if exec := se.execs[i]; exec != nil {
			p = exec.Summary(se.nextGroupKey)
		} else {
			// An untouched pool pays out its pending deposits, bit-identical
			// to the Summary of a summary.NewExecutor that ran nothing.
			p = &summary.SyncPayload{Epoch: se.epoch, Payouts: se.pending[i].Payouts(se.users),
				PoolReserve0: pool.Reserve0, PoolReserve1: pool.Reserve1, NextGroupKey: se.nextGroupKey}
		}
		p.PoolID = id
		payloads[i] = p
		if onChain(i, p) {
			digests[i] = p.Digest()
		}
		roots[i] = se.roots[i].get(id, pool, se.execs[i] != nil)
	})
	res := &EpochResult{
		Epoch:       se.epoch,
		PoolIDs:     se.ids,
		Payloads:    payloads,
		PoolRoots:   roots,
		SummaryRoot: FoldRoots(roots),
	}
	for i, p := range payloads {
		if onChain(i, p) {
			res.OnChain = append(res.OnChain, p)
			res.OnChainDigests = append(res.OnChainDigests, digests[i])
		}
	}
	return res
}
