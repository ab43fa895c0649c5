package core

import (
	"errors"
	"fmt"

	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/metrics"
	"ammboost/internal/netsim"
	"ammboost/internal/sim"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
)

const (
	// SyncUplinkDst is the mainchain's endpoint name on a node's sync
	// uplink; fault schedules address the chain side of the link with it.
	SyncUplinkDst = "mainchain"
	// syncRetryBudget is how many sends a sync part gets before the node
	// halts with chain.ErrSyncUnreachable.
	syncRetryBudget = 8
)

// syncUplink is the only code that moves an epoch's signed sync parts
// to the mainchain. It names, orders, holds, submits, retries and
// accounts them, and replays a node's logged parts on reopen; the commit
// stage shapes and signs them (chunkPayloads and signSyncParts). Its node
// sees one callback, epochSynced.
type syncUplink struct {
	node uplinkNode
	sim  *sim.Simulator
	mc   *mainchain.Chain
	bank *mainchain.MultiBank
	bus  *chain.Bus
	col  *metrics.Collector
	tr   *trace.Tracer

	// idPrefix, from and src are the part tx-ID prefix, the From address
	// and this end of the link, all scoped by the chain ID.
	idPrefix, from, src string
	// net is the SyncFaults link (nil = parts go to the chain directly).
	net *netsim.Network
	// prev are the previous sync's part IDs, the next parts' DependsOn.
	prev []string
	// held are the signed parts of skipped epochs, in epoch
	// order, waiting for the next submit.
	held []heldSync
}

// heldSync is one epoch's signed parts kept off the mainchain.
type heldSync struct {
	epoch uint64
	txs   []*mainchain.Tx
}

// uplinkNode is the node side of the uplink: the watchdog goes quiet on
// a Halted node, a reverted or unreachable part goes to fail, and
// epochSynced gets the EventSyncConfirmed of an epoch whose last part
// confirmed (its parts, bytes and gas summed).
type uplinkNode interface {
	Halted() bool
	fail(err error)
	epochSynced(ev chain.Event)
}

func newSyncUplink(node uplinkNode, sm *sim.Simulator, mc *mainchain.Chain, bank *mainchain.MultiBank,
	chainID string, faults *netsim.FaultSchedule, bus *chain.Bus, col *metrics.Collector, tr *trace.Tracer) *syncUplink {
	u := &syncUplink{node: node, sim: sm, mc: mc, bank: bank, bus: bus, col: col, tr: tr,
		from: "sc-committee", src: "sc-node"}
	// Federation members share one mainchain, whose Submit dedups on the
	// tx ID, so the chain ID scopes every name the uplink puts there.
	if chainID != "" {
		u.idPrefix = chainID + "/"
		u.from += "/" + chainID
		u.src += "/" + chainID
	}
	if faults != nil {
		// Delivery submits the part as a direct hand-off would; the
		// chain's ID-dedup makes duplicates and retransmissions safe.
		u.net = netsim.New(sm, netsim.DefaultConfig())
		u.net.Register(u.src, nil)
		u.net.Register(SyncUplinkDst, func(_ string, payload any) {
			if tx, ok := payload.(*mainchain.Tx); ok {
				mc.Submit(tx)
			}
		})
		u.net.Install(faults)
	}
	return u
}

// partIDs names epoch e's n part transactions.
func (u *syncUplink) partIDs(e uint64, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%smsync-e%d-p%d", u.idPrefix, e, i+1)
	}
	return ids
}

// resume chains the next parts on a reopened node's boundary-epoch parts.
func (u *syncUplink) resume(boundary uint64, numParts int) {
	u.prev = u.partIDs(boundary, numParts)
}

// partTxs wraps each sync part in the transaction that carries its
// calldata and declares its gas.
func partTxs(parts []*mainchain.MultiSyncArgs) []*mainchain.Tx {
	txs := make([]*mainchain.Tx, len(parts))
	for i, args := range parts {
		gas := args.Gas()
		txs[i] = &mainchain.Tx{Method: "sync", Size: 32 + gas.Calldata(), Args: args, GasLimit: gas.Declared()}
	}
	return txs
}

// hold keeps epoch e's signed parts off the mainchain (its Sync was
// skipped) until the next submit sends them first.
func (u *syncUplink) hold(e uint64, txs []*mainchain.Tx) {
	u.held = append(u.held, heldSync{epoch: e, txs: txs})
}

// submit hands epoch e's signed parts to the mainchain, after the held
// epochs' parts in epoch order, and reports whether it sent held ones (a
// mass-sync). durable is epoch e's store write (nil without a store).
func (u *syncUplink) submit(e uint64, txs []*mainchain.Tx, durable *task) bool {
	held := u.held
	u.held = nil
	for _, h := range held {
		u.submitEpoch(h.epoch, h.txs, nil)
	}
	u.submitEpoch(e, txs, durable)
	return len(held) > 0
}

// submitEpoch sends epoch e's parts. A part verifies against the key the
// PREVIOUS epoch registers once ALL its parts land, so every part depends
// on all of them; otherwise a block could pack this epoch's parts first
// and revert them with an unknown-key error. With a store write, every
// part is fenced on it: the block that would include the part first waits
// for the write (wall clock only), and a failed write keeps the part off
// the chain and halts the node there.
func (u *syncUplink) submitEpoch(e uint64, txs []*mainchain.Tx, durable *task) {
	submitted := u.sim.Now()
	// wallStart anchors the wall-clock sync-submit and sync-confirm spans;
	// the collector's "sync" latency is the virtual one.
	wallStart := u.tr.Since()
	done := chain.Event{Type: chain.EventSyncConfirmed, Epoch: e, Parts: len(txs)}
	confirmed := 0
	// One confirmation callback serves every part of the epoch.
	confirm := func(tx *mainchain.Tx) {
		if tx.Status != mainchain.TxConfirmed {
			u.node.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrSyncReverted, e, tx.Err))
			return
		}
		u.col.ObserveGas("sync", tx.GasUsed)
		done.Gas += tx.GasUsed
		if confirmed++; confirmed < done.Parts {
			return
		}
		u.col.ObserveMCLatency("sync", tx.ConfirmedAt-submitted)
		u.tr.Record(trace.SpanRecord{
			Stage: trace.StageSyncConfirm, Epoch: e,
			Start: wallStart, Dur: u.tr.Since() - wallStart,
			Bytes: done.Bytes, Gas: done.Gas,
		})
		done.At, done.SyncParts = tx.ConfirmedAt, u.bank.SyncStats()
		u.node.epochSynced(done)
	}
	var gate func() error
	if durable != nil {
		gate = func() error {
			err := durable.wait()
			if err != nil {
				u.node.fail(err)
			}
			return err
		}
	}
	ids := u.partIDs(e, len(txs))
	for i, tx := range txs {
		tx.ID, tx.From, tx.To = ids[i], u.from, u.bank.Name()
		tx.DependsOn, tx.OnConfirmed, tx.Gate = u.prev, confirm, gate
		done.Bytes += tx.Size
		u.send(tx, e, i+1, 1)
	}
	u.prev = ids
	u.tr.Record(trace.SpanRecord{
		Stage: trace.StageSyncSubmit, Epoch: e,
		Start: wallStart, Dur: u.tr.Since() - wallStart, Bytes: done.Bytes,
	})
	u.bus.Publish(chain.Event{
		Type: chain.EventSyncSubmitted, At: submitted, Epoch: e,
		Parts: done.Parts, Bytes: done.Bytes,
	})
}

// send hands one part to the mainchain: directly, or as the attempt-th
// message over the faulted link. There a watchdog resends the part if
// the chain (mempool or history) still lacks it three block intervals
// later, up to the retry budget. It reads only chain state and the
// attempt counter, so a schedule replays its retries at identical
// instants (EventSyncRetry carries the attempt number in Txs).
func (u *syncUplink) send(tx *mainchain.Tx, e uint64, part, attempt int) {
	if u.net == nil {
		u.mc.Submit(tx)
		return
	}
	u.net.Send(u.src, SyncUplinkDst, tx.Size, tx)
	u.sim.After(3*u.mc.Config().BlockInterval, func() {
		if u.node.Halted() || u.mc.TxByID(tx.ID) != nil {
			return
		}
		if attempt >= syncRetryBudget {
			u.node.fail(fmt.Errorf("%w: epoch %d part %d lost after %d sends",
				chain.ErrSyncUnreachable, e, part, attempt))
			return
		}
		u.bus.Publish(chain.Event{
			Type: chain.EventSyncRetry, At: u.sim.Now(), Epoch: e,
			Parts: part, Txs: attempt + 1,
		})
		u.send(tx, e, part, attempt+1)
	})
}

// replaySyncParts re-applies reopened epochs' logged parts, in order, through the
// bank's verification chain: it authenticates the log and leaves the bank
// where the live run's confirmations did. A part whose signature fails,
// in an epoch past the bank's confirmed horizon, is a corrupt-signed
// epoch the node logged before the chain reverted it: replay stops there
// and returns the ErrSyncReverted the live node halts with. A halted
// node's log may end in such a part (the fault that halted it); replay
// stops there silently. Any other failure is ErrCorruptStore.
func replaySyncParts(bank *mainchain.MultiBank, epochs []*store.EpochRecord, halted bool) error {
	for _, er := range epochs {
		for _, part := range er.Parts {
			err := bank.ReplaySync(part)
			switch {
			case err == nil:
			case halted:
				return nil
			case errors.Is(err, mainchain.ErrBadSyncSignature) && er.Epoch > bank.LastSyncedEpoch:
				return fmt.Errorf("%w: epoch %d: %v", chain.ErrSyncReverted, er.Epoch, err)
			default:
				return fmt.Errorf("%w: sync replay epoch %d part %d: %v",
					chain.ErrCorruptStore, er.Epoch, part.Part, err)
			}
		}
	}
	return nil
}

// chunkPayloads splits the epoch's on-chain payloads (EpochResult.OnChain:
// idle pools send nothing) into sync parts whose declared gas
// (mainchain.SyncGas, the bill the bank charges) stays within the budget.
// Pools are never split across parts, preserving per-pool payload
// integrity, so a pool over the budget on its own travels alone. An epoch
// with no payloads still gets one empty part: it carries the summary root
// and the next committee key, so the key chain advances.
func chunkPayloads(payloads []*summary.SyncPayload, budget uint64) [][]*summary.SyncPayload {
	var chunks [][]*summary.SyncPayload
	var cur []*summary.SyncPayload
	var gas mainchain.SyncGas
	for _, p := range payloads {
		with := gas
		with.Add(p)
		if len(cur) > 0 && with.Declared() > budget {
			chunks = append(chunks, cur)
			cur, with = nil, mainchain.SyncGas{}
			with.Add(p)
		}
		cur = append(cur, p)
		gas = with
	}
	if len(cur) > 0 || len(chunks) == 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// signSyncParts chunks an epoch's on-chain payloads by gas budget, binds
// the parts under one Merkle root (mainchain.BindSyncParts) and
// TSQC-signs the epoch once: every part carries that signature and its
// own inclusion proof. It runs on the commit lane, so it reads
// nothing but its arguments. tr records the chunk span (Pools: the pools
// that sync) and the sign span (Txs: the signatures, one; nil =
// untraced).
func signSyncParts(epoch uint64, res *engine.EpochResult, ck *committeeKeys,
	nextKey tsig.GroupKey, corrupt bool, gasBudget uint64,
	tr *trace.Tracer) ([]*mainchain.MultiSyncArgs, error) {
	spChunk := tr.Start(trace.StageChunk, epoch)
	spChunk.Pools = len(res.OnChain)
	chunks := chunkPayloads(res.OnChain, gasBudget)
	spChunk.End()
	spSign := tr.Start(trace.StageSign, epoch)
	spSign.Txs = 1
	defer spSign.End()
	parts := make([]*mainchain.MultiSyncArgs, len(chunks))
	var digests [][][32]byte // each part's payload digests, from the fold
	if res.OnChainDigests != nil {
		digests = make([][][32]byte, len(chunks))
	}
	off := 0
	for i, chunk := range chunks {
		if digests != nil {
			digests[i] = res.OnChainDigests[off : off+len(chunk)]
			off += len(chunk)
		}
		parts[i] = &mainchain.MultiSyncArgs{
			Epoch:       epoch,
			Part:        i + 1,
			NumParts:    len(chunks),
			Payloads:    chunk,
			SummaryRoot: res.SummaryRoot,
			NextKey:     nextKey,
		}
	}
	digest := mainchain.BindSyncParts(parts, digests)
	if corrupt {
		// Equivocating committee: the signed digest is corrupted, so
		// MultiBank's TSQC verification rejects every part on-chain.
		digest[0] ^= 0xff
	}
	sig, err := ck.signer.signDigest(digest)
	if err != nil {
		return nil, fmt.Errorf("%w: epoch %d (%d parts): %v", chain.ErrSignFailed, epoch, len(chunks), err)
	}
	for _, a := range parts {
		a.Sig = sig
	}
	return parts, nil
}
