package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain"
	"ammboost/internal/sidechain/election"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/sim"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// ErrMultiParity flags a cross-layer mismatch in a multi-pool deployment.
var ErrMultiParity = errors.New("core: multi-pool state parity violated")

// ErrDuplicateUser refuses a user list that names a user twice.
var ErrDuplicateUser = errors.New("core: user listed twice")

// sortedUsers returns users in byte order, the order the node numbers
// them in, refusing a user listed twice (it would be granted twice).
func sortedUsers(users []string) ([]string, error) {
	sorted := slices.Sorted(slices.Values(users))
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateUser, sorted[i])
		}
	}
	return sorted, nil
}

// ErrUnsupportedFault rejects a FaultPlan field the node's bank or
// consensus fidelity does not implement (see chain.FaultPlan for
// per-field support).
var ErrUnsupportedFault = errors.New("core: fault plan not supported by this node")

// MultiSystem runs the full ammBoost epoch lifecycle across every pool
// registered in the sharded engine: one committee, one meta-block chain,
// and one Sync per epoch span all pools. It is the one lifecycle, and
// every epoch syncs to a MultiBank; the constructor picks the deposit
// source behind it (nodeBank) — the bank's own accounting for
// NewMultiSystem, Open and the federation, the paper's TokenBank (which
// embeds the MultiBank) for NewDriver's one-pool runs.
type MultiSystem struct {
	// frontEnd is the admission path and receipt ledger; every registered
	// pool ID routes, and the empty ID routes to the first pool.
	frontEnd

	cfg chain.Config
	sim *sim.Simulator
	// rng is a per-run instance seeded from cfg.Seed — never the global
	// math/rand state, so concurrent runs and engine shards are isolated.
	rng *rand.Rand
	// roundTxs and roundRefs are runRound's reused engine input.
	roundTxs  []*summary.Tx
	roundRefs []engine.Ref

	mc *mainchain.Chain
	// mb verifies and applies every sync part; bank is the deposit source.
	mb   *mainchain.MultiBank
	bank nodeBank

	// shared is non-nil for federation members: the simulator and the
	// mainchain are injected by the federation runner, which owns the
	// single sim.Run and decides when the shared chain stops. onFinished
	// fires at most once, when this node will put nothing further on the
	// mainchain (fully pruned after its last epoch, or halted).
	shared           *Shared
	onFinished       func(halted bool)
	finishedNotified bool

	// uplink carries retired epochs' signed parts to the mainchain.
	uplink *syncUplink

	registry   *election.Registry
	ledger     *sidechain.Ledger
	committees map[uint64]*committeeKeys
	chainSeed  [32]byte

	epoch         uint64
	epochsPlanned int
	done          bool
	err           error

	// commitLane runs the asynchronous commit/sync stage, and inflight
	// is its window: the sealed epochs not yet retired, oldest first.
	// cfg.PipelineDepth bounds the window (depth 1 retires every epoch as
	// soon as it seals).
	commitLane lane
	inflight   []*commitJob
	// lastSummaryAt enforces per-epoch ordering of the pipelined summary
	// checkpoint events: epoch e+1's checkpoint never fires before epoch
	// e's, whatever the agreement delays say.
	lastSummaryAt time.Duration
	// stallWall accumulates wall-clock time the run loop spent blocked on
	// the commit stage (the pipeline's only synchronization point).
	stallWall time.Duration
	// lastPruned is the newest epoch whose meta-blocks pruned; the run is
	// over once the final epoch's has.
	lastPruned uint64

	// live routes committee rounds through real PBFT replicas over the
	// simulated network (nil for model-fidelity runs).
	live *liveConsensus

	// st is the durable epoch store's writer (nil for in-memory nodes),
	// and storeLane runs every write to it off the lifecycle. Epochs
	// persist at retirement — snapshot record then sync-part record — and
	// no block includes a sync part before its epoch's write has returned.
	// The lifecycle touches st itself only after joining storeLane.
	st        *store.Writer
	storeLane lane
	// recovered describes what Open restored; nil for fresh nodes.
	recovered *chain.RecoveryInfo
	// rootsCompacted tracks the highest epoch whose bookkeeping the
	// retention horizon already dropped.
	rootsCompacted uint64

	// SummaryRoots records each epoch's folded multi-pool root.
	SummaryRoots map[uint64][32]byte
	SyncsOK      int
	MassSyncs    int
	Rejected     int
	ViewChanges  int

	// OnEpochStart lets a driver keep generating traffic.
	OnEpochStart func(epoch uint64)
	// OnRoundStart fires on the simulator goroutine at each round's
	// entry, BEFORE the round's ingest drain — the arrival-log replay
	// hook: transactions submitted inside it land in exactly this
	// round's drain boundary.
	OnRoundStart func(epoch, round uint64)

	// esc is the federation escrow serving Claimable/ClaimRefund (nil
	// unless AttachEscrow was called); claimSeq numbers the claim
	// transactions this node put on the mainchain.
	esc      *mainchain.Escrow
	claimSeq int
}

// MultiSystem implements the unified node API.
var _ chain.Chain = (*MultiSystem)(nil)

// Shared bundles the runtime a federation injects into each member node:
// one simulator and one mainchain spanning all K sidechains. The
// federation owns both — it calls sim.Run exactly once and stops the
// chain when every member has finished — so member nodes must never
// call sim.Run or mc.Stop themselves.
type Shared struct {
	Sim *sim.Simulator
	MC  *mainchain.Chain
}

// NewMultiSystem builds a multi-pool deployment: the engine with its
// registered pools, the miner registry, the epoch-1 committee, and the
// MultiBank deployed on the mainchain with the committee's group key.
func NewMultiSystem(cfg chain.Config, users []string) (*MultiSystem, error) {
	return newMultiSystem(nil, cfg, users, newPoolBank)
}

// NewFederatedSystem builds a sidechain node as a federation member:
// the simulator and mainchain come from shared instead of being owned by
// the node, the bank deploys under a per-chain address derived from
// cfg.ChainID, and run control splits into StartEpochs/CollectReport
// around the federation's single sim.Run. cfg.ChainID must be non-empty
// and unique across members — it namespaces the bank account and the
// sync transaction IDs on the shared chain.
func NewFederatedSystem(shared *Shared, cfg chain.Config, users []string) (*MultiSystem, error) {
	if shared == nil || shared.Sim == nil || shared.MC == nil {
		return nil, errors.New("core: federated node needs a shared simulator and mainchain")
	}
	if cfg.ChainID == "" {
		return nil, errors.New("core: federated node needs a ChainID")
	}
	return newMultiSystem(shared, cfg, users, newPoolBank)
}

// newMultiSystem builds the node with the bank newBank deploys on its
// mainchain under the epoch-1 committee key.
func newMultiSystem(shared *Shared, cfg chain.Config, users []string,
	newBank func(*MultiSystem, tsig.GroupKey) (nodeBank, *mainchain.MultiBank, error)) (*MultiSystem, error) {
	cfg = cfg.WithDefaults()
	if cfg.ConsensusFidelity != chain.FidelityLive {
		// Per-replica byzantine behaviors and message-level network faults
		// have no analytic-model representation: reject them loudly rather
		// than silently testing nothing.
		if len(cfg.Faults.ByzantineReplicas) > 0 {
			return nil, fmt.Errorf("%w: ByzantineReplicas requires ConsensusFidelity live", ErrUnsupportedFault)
		}
		if cfg.NetFaults != nil {
			return nil, fmt.Errorf("%w: NetFaults requires ConsensusFidelity live", ErrUnsupportedFault)
		}
	} else {
		liveN, _ := pbft.Quorum(liveFaultBudget)
		for idx := range cfg.Faults.ByzantineReplicas {
			if idx < 0 || idx >= liveN {
				return nil, fmt.Errorf("%w: byzantine replica index %d outside live committee [0,%d)",
					ErrUnsupportedFault, idx, liveN)
			}
		}
		// Live fidelity runs a window of one: its replica set paces the
		// epochs (see finishEpoch). The computed state is depth-invariant
		// anyway, so clamping loses nothing observable.
		cfg.PipelineDepth = 1
	}
	// An unset pool count runs the engine at its minimum of one pool.
	if cfg.NumPools == 0 {
		cfg.NumPools = 1
	}
	if cfg.TraceBuffer > 0 {
		cfg.Tracer.SetRetention(cfg.TraceBuffer)
	}
	eng, err := engine.New(engine.Config{
		Seed:             cfg.Seed,
		NumPools:         cfg.NumPools,
		NumShards:        cfg.NumShards,
		InitialLiquidity: cfg.InitialLiquidity,
		Tracer:           cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	sorted, err := sortedUsers(users)
	if err != nil {
		return nil, err
	}
	for _, u := range sorted { // index order is payout order
		eng.Users().Add(u)
	}
	s := &MultiSystem{
		cfg:          cfg,
		shared:       shared,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		committees:   make(map[uint64]*committeeKeys),
		SummaryRoots: make(map[uint64][32]byte),
	}
	s.initFrontEnd(cfg, eng, cfg.Tracer)
	if shared != nil {
		s.sim, s.mc = shared.Sim, shared.MC
	} else {
		s.sim = sim.New()
	}
	s.rng.Read(s.chainSeed[:])
	s.registry = newMinerRegistry(cfg.MinerPopulation)
	ck, err := provisionCommittee(s.registry, s.chainSeed, 1, cfg.CommitteeSize)
	if err != nil {
		return nil, err
	}
	s.committees[1] = ck

	if shared == nil {
		s.mc = mainchain.New(s.sim, cfg.Mainchain)
	}
	if s.bank, s.mb, err = newBank(s, ck.group); err != nil {
		return nil, err
	}
	if cfg.RetainEpochs > 0 && shared == nil {
		// Bound the simulated mainchain's in-memory history to the same
		// horizon, in blocks: comfortably past every DependsOn distance
		// the sync pipeline creates (one epoch), with margin. A shared
		// chain's retention is the federation's call — it takes the max
		// over its members (MainchainRetentionBlocks).
		s.mc.SetRetention(MainchainRetentionBlocks(cfg))
	}
	s.uplink = newSyncUplink(s, s.sim, s.mc, s.mb, cfg.ChainID, cfg.SyncFaults, s.bus, s.col, s.tr)
	if cfg.ConsensusFidelity == chain.FidelityLive {
		s.live = newLiveConsensus(s)
	}
	return s, nil
}

// Engine exposes the sharded execution engine.
func (s *MultiSystem) Engine() *engine.Engine { return s.eng }

// Sim exposes the simulator for workload scheduling.
func (s *MultiSystem) Sim() *sim.Simulator { return s.sim }

// Bank exposes the node's MultiBank for inspection (on a NewDriver node,
// the one the paper's TokenBank embeds).
func (s *MultiSystem) Bank() *mainchain.MultiBank { return s.mb }

// SidechainLedger exposes the sidechain ledger.
func (s *MultiSystem) SidechainLedger() *sidechain.Ledger { return s.ledger }

// Epoch returns the currently-running epoch number.
func (s *MultiSystem) Epoch() uint64 { return s.epoch }

// LastSyncedEpoch returns the highest epoch the bank confirmed a Sync
// for.
func (s *MultiSystem) LastSyncedEpoch() uint64 { return s.mb.LastSyncedEpoch }

// PoolIDs lists the registered pools in canonical order.
func (s *MultiSystem) PoolIDs() []string { return s.eng.PoolIDs() }

// PoolInfo reports one pool's canonical reserves and live positions.
func (s *MultiSystem) PoolInfo(poolID string) (chain.PoolInfo, bool) {
	p := s.eng.Pool(poolID)
	if p == nil {
		return chain.PoolInfo{}, false
	}
	return chain.PoolInfo{
		ID:        poolID,
		Reserve0:  p.Reserve0,
		Reserve1:  p.Reserve1,
		Positions: p.NumPositions(),
	}, true
}

// Positions lists the bank's synced liquidity positions across every
// pool, ordered by (pool, position ID).
func (s *MultiSystem) Positions() []summary.PositionEntry {
	var out []summary.PositionEntry
	for _, pid := range s.eng.PoolIDs() {
		out = append(out, sortedPositions(s.mb.Positions[pid])...)
	}
	return out
}

// fail records the first lifecycle fault, persists it (a halted node
// must recover as halted), publishes the halt event, and stops mainchain
// block production so the simulator drains.
func (s *MultiSystem) fail(err error) {
	// The halt record is a write like any other: the writes issued before
	// it finish first, and if one of them failed, it failed first.
	if s.st != nil {
		if serr := s.storeLane.join(); serr != nil && s.err == nil {
			err = serr
		}
	}
	if s.err == nil {
		s.err = err
		s.halt()
		if s.st != nil {
			// Best-effort: the store may itself be the failing component.
			w, epoch, reason := s.st, s.epoch, err.Error()
			_ = s.storeLane.issue(true, func() error { return w.AppendHalt(epoch, reason) }).wait()
		}
		s.bus.Publish(chain.Event{Type: chain.EventHalted, At: s.sim.Now(), Epoch: s.epoch, Err: err})
	}
	if s.live != nil {
		// Quiesce the live committee so its re-arming view-change timers
		// cannot keep the drained simulator alive after the halt.
		s.live.stopAll()
	}
	s.finished(true)
}

// finished records that this node will put nothing further on the
// mainchain: its last epoch fully pruned, or it halted. A single-tenant
// node owns the chain and stops block production so the simulator
// drains (idempotent, the historical behavior); a federation member must
// NOT stop the shared chain — its siblings may still be syncing — so it
// notifies the runner instead, exactly once, and the runner stops the
// chain when every member has reported in.
func (s *MultiSystem) finished(halted bool) {
	if s.shared == nil {
		s.mc.Stop()
		return
	}
	if s.finishedNotified {
		return
	}
	s.finishedNotified = true
	if s.onFinished != nil {
		s.onFinished(halted)
	}
}

// SetOnFinished installs the federation runner's finished hook. It runs
// on the simulator goroutine; install it before StartEpochs.
func (s *MultiSystem) SetOnFinished(fn func(halted bool)) { s.onFinished = fn }

// OnEvent registers a synchronous lifecycle-event hook. Unlike
// Subscribe's channels (asynchronous, for user-facing consumers), the
// hook runs on the simulator goroutine at publish time — the federation
// runner uses it to observe sync confirmations and halts without racing
// the deterministic schedule. Hooks must be cheap and must not block.
func (s *MultiSystem) OnEvent(fn func(chain.Event)) { s.bus.OnPublish(fn) }

// ChainID returns the node's federation identity ("" for single-tenant
// deployments).
func (s *MultiSystem) ChainID() string { return s.cfg.ChainID }

// Halted reports whether the node hit a lifecycle fault.
func (s *MultiSystem) Halted() bool { return s.err != nil }

// Err returns the lifecycle fault that halted the node, or nil.
func (s *MultiSystem) Err() error { return s.err }

// Recovery describes what Open restored from the durable store (nil for
// fresh or in-memory nodes).
func (s *MultiSystem) Recovery() *chain.RecoveryInfo { return s.recovered }

// Fingerprint returns what this node's run produced: the summary root and
// sync payload digests of every epoch whose root it retains, and the
// outcomes of receipts in the order given (nil for none). Epochs Open
// restored come from Recovery, later ones from the summary chain.
func (s *MultiSystem) Fingerprint(receipts []*chain.Receipt) chain.Fingerprint {
	fp := chain.Fingerprint{Epochs: make(map[uint64]chain.EpochPrint, len(s.SummaryRoots))}
	var restored uint64
	if s.recovered != nil {
		restored = s.recovered.Epoch
	}
	for e, root := range s.SummaryRoots {
		if e <= restored {
			fp.Epochs[e] = s.recovered.Fingerprint.Epochs[e]
		} else {
			fp.Epochs[e] = chain.EpochPrint{Root: root}
		}
	}
	for _, sb := range s.ledger.Summaries() {
		if sb.Epoch > restored {
			ep := fp.Epochs[sb.Epoch]
			ep.Payloads = append(ep.Payloads, sb.Payload.Digest())
			fp.Epochs[sb.Epoch] = ep
		}
	}
	for _, rc := range receipts {
		fp.Receipts = append(fp.Receipts, chain.ReceiptOutcome{
			TxID: rc.TxID, Status: rc.Status, Epoch: rc.Epoch, Round: rc.Round})
	}
	return fp
}

// Close flushes and closes the durable store (no-op without one) and
// closes the ingest pool so late producers get a typed refusal.
func (s *MultiSystem) Close() error {
	s.ingest.Close()
	if s.st == nil {
		return nil
	}
	// A failed write a halted node already reported (or halted past) is
	// not reported again.
	serr := s.storeLane.join()
	err := s.st.Close()
	s.st = nil
	if serr != nil && s.err == nil {
		return serr
	}
	return err
}

// sealTraced seals epoch e (flushing the epoch's submit span first) and
// records the seal span; the engine records the per-shard execute spans.
// Returns nil after failing the node on a seal error.
func (s *MultiSystem) sealTraced(e uint64, nextKeyBytes []byte) *engine.SealedEpoch {
	s.flushSubmitSpan(e)
	sp := s.tr.Start(trace.StageSeal, e)
	sealed, err := s.eng.SealEpoch(nextKeyBytes)
	if err != nil {
		s.fail(fmt.Errorf("%w: end epoch %d: %v", chain.ErrEngineFailed, e, err))
		return nil
	}
	sp.End()
	return sealed
}

// SubmitDeposit funds a user's deposit for the named epoch. On a
// MultiBank node the credit lands on the default pool's epoch snapshot
// (at once for the current or a past epoch, else when that epoch opens)
// and the receipt reaches StatusExecuted; an overflowing credit is
// summary.ErrDepositOverflow. On a NewDriver node it runs TokenBank's
// mainchain deposit flow and the receipt reaches StatusSynced when the
// last leg confirms.
func (s *MultiSystem) SubmitDeposit(user string, epoch uint64, amount0, amount1 u256.Int) (*chain.Receipt, error) {
	if s.err != nil {
		return nil, chain.ErrHalted
	}
	if s.eng.Users().Lookup(user) == summary.NoUser {
		return nil, fmt.Errorf("%w: %s", chain.ErrUnfundedUser, user)
	}
	if amount0.IsZero() && amount1.IsZero() {
		return nil, fmt.Errorf("%w: empty deposit", chain.ErrMalformedTx)
	}
	return s.bank.submitDeposit(user, epoch, amount0, amount1)
}

// SubmitWithdraw debits a user's un-traded deposit on a pool in the
// CURRENT epoch — the origin-chain half of a cross-chain transfer (the
// federation escrows the amount on the mainchain once this epoch's sync
// confirms). Unlike SubmitDeposit there is no deferred path: funds
// either leave the running epoch's snapshot now (StatusExecuted) or the
// withdrawal is rejected — insufficient deposit, unknown user, or no
// epoch running — with the reason on the receipt, never an error return,
// so callers can treat a rejection as a deterministic protocol outcome.
func (s *MultiSystem) SubmitWithdraw(poolID, user string, amount0, amount1 u256.Int) (*chain.Receipt, error) {
	if s.err != nil {
		return nil, chain.ErrHalted
	}
	if s.eng.Users().Lookup(user) == summary.NoUser {
		return nil, fmt.Errorf("%w: %s", chain.ErrUnfundedUser, user)
	}
	if poolID == "" {
		poolID = s.eng.PoolIDs()[0]
	}
	if s.eng.Pool(poolID) == nil {
		return nil, fmt.Errorf("%w: %q", chain.ErrUnknownPool, poolID)
	}
	if amount0.IsZero() && amount1.IsZero() {
		return nil, fmt.Errorf("%w: empty withdrawal", chain.ErrMalformedTx)
	}
	rc := &chain.Receipt{
		TxID: fmt.Sprintf("wdr-%s-e%d", user, s.epoch), PoolID: poolID,
		Status: chain.StatusPending, SubmittedAt: s.sim.Now(), Epoch: s.epoch,
	}
	if err := s.eng.WithdrawDeposit(poolID, user, amount0, amount1); err != nil {
		rc.Status = chain.StatusRejected
		rc.Err = fmt.Errorf("%w: %v", chain.ErrExecutionRejected, err)
		return rc, nil
	}
	rc.Status = chain.StatusExecuted
	rc.ExecutedAt = s.sim.Now()
	return rc, nil
}

// AttachEscrow connects the federation's escrow contract so this node
// can serve its claimable-refund surface (Claimable/ClaimRefund). The
// federation runner attaches it when building each member; single-tenant
// nodes have no escrow and answer ErrNoEscrow. A node revived outside
// its original federation (restarted to claim parked refunds) owns its
// mainchain, so the escrow is deployed there too when absent —
// otherwise ClaimRefund's claim transaction would hit an unknown
// contract.
func (s *MultiSystem) AttachEscrow(esc *mainchain.Escrow) {
	s.esc = esc
	if s.mc.ContractByName(esc.Name()) == nil {
		s.mc.Deploy(esc)
	}
}

// Claimable reports the user's parked refund balance in the federation
// escrow for this chain: funds a cross-chain transfer refunded while
// this node was down. Zeroes without an escrow or balance.
func (s *MultiSystem) Claimable(user string) (amount0, amount1 u256.Int) {
	if s.esc == nil {
		return u256.Int{}, u256.Int{}
	}
	res, ok := s.esc.Claimable[s.cfg.ChainID][user]
	if !ok {
		return u256.Int{}, u256.Int{}
	}
	return res.Reserve0, res.Reserve1
}

// ClaimRefund consumes the user's entire claimable balance from the
// federation escrow and re-credits it as a deposit on this chain: the
// revived-origin half of a refunded cross-chain transfer. It submits
// the escrow claim transaction to the mainchain; the receipt reaches
// StatusSynced when the on-chain claim confirms and the re-credit
// lands. Like SubmitDeposit it runs on the simulator goroutine (call it
// before Run/StartEpochs or from scheduled callbacks).
func (s *MultiSystem) ClaimRefund(user string) (*chain.Receipt, error) {
	if s.err != nil {
		return nil, chain.ErrHalted
	}
	if s.esc == nil {
		return nil, chain.ErrNoEscrow
	}
	if s.eng.Users().Lookup(user) == summary.NoUser {
		return nil, fmt.Errorf("%w: %s", chain.ErrUnfundedUser, user)
	}
	a0, a1 := s.Claimable(user)
	if a0.IsZero() && a1.IsZero() {
		return nil, chain.ErrNothingClaimable
	}
	s.claimSeq++
	rc := &chain.Receipt{
		TxID:   fmt.Sprintf("claim-%s-%s-%d", s.cfg.ChainID, user, s.claimSeq),
		Status: chain.StatusPending, SubmittedAt: s.sim.Now(),
	}
	tx := &mainchain.Tx{
		ID: rc.TxID, From: "user/" + user, To: mainchain.EscrowAddress,
		Method: "claim", Size: 130,
		Args: &mainchain.EscrowClaimArgs{Chain: s.cfg.ChainID, User: user, Amount0: a0, Amount1: a1},
	}
	tx.OnConfirmed = func(tx *mainchain.Tx) {
		if tx.Status != mainchain.TxConfirmed {
			rc.Status = chain.StatusRejected
			rc.Err = fmt.Errorf("%w: claim: %v", chain.ErrExecutionRejected, tx.Err)
			return
		}
		if _, err := s.SubmitDeposit(user, s.epoch, a0, a1); err != nil {
			rc.Status = chain.StatusRejected
			rc.Err = err
			return
		}
		rc.Status = chain.StatusSynced
		rc.SyncedAt = s.sim.Now()
	}
	s.mc.Submit(tx)
	return rc, nil
}

// Run executes the planned epochs (plus drain epochs until the queue
// empties) and returns the report; lifecycle faults surface as typed
// errors instead of panics. A node recovered from a durable store
// resumes at its restored boundary — epochs counts the TOTAL planned for
// the deployment, so a node recovered at epoch 5 of 8 runs epochs 6–8.
// A node that recovered as halted runs nothing and returns the persisted
// fault.
func (s *MultiSystem) Run(epochs int) (*chain.Report, error) {
	if s.StartEpochs(epochs) {
		s.sim.Run()
	}
	return s.CollectReport()
}

// StartEpochs schedules the node's epoch lifecycle on the simulator
// WITHOUT running it, and reports whether any work was scheduled. Run is
// StartEpochs + sim.Run + CollectReport; a federation calls StartEpochs
// on every member (in chain-ID order, pinning cross-chain determinism),
// runs the shared simulator once, then collects each report. A node with
// nothing to do — recovered halted, or already past the planned epoch
// count — reports finished immediately and returns false.
func (s *MultiSystem) StartEpochs(epochs int) bool {
	s.epochsPlanned = epochs
	s.ledger = sidechain.NewLedger(pbft.DigestOf([]byte("multibank-genesis")))
	s.ledger.SetRetention(s.cfg.RetainEpochs)
	if s.recovered != nil {
		s.bus.Publish(chain.Event{Type: chain.EventRecovered, Epoch: s.recovered.Epoch})
	}
	// A recovered node may have nothing left to do: already halted, or
	// already past the planned epoch count.
	resumedDone := s.epoch > 0 && int(s.epoch) >= epochs && len(s.queue) == 0 && s.ingest.CloseIfEmpty()
	if s.err != nil || resumedDone {
		if s.err == nil {
			s.done = true
		}
		if s.shared != nil {
			s.finished(s.err != nil)
		}
		return false
	}
	start := s.epoch + 1
	s.sim.At(0, func() { s.startEpoch(start) })
	return true
}

// CollectReport joins the commit stage, closes the event bus, and
// returns the run's report and lifecycle error. Call it exactly once,
// after the simulator has drained.
func (s *MultiSystem) CollectReport() (*chain.Report, error) {
	// Join the commit lane before reporting: a halted run may leave
	// unretired jobs whose packages are simply abandoned, but no job may
	// still touch engine state when callers inspect it.
	_ = s.commitLane.join()
	s.bus.Close()
	s.col.ObserveEventDrops(s.bus.Dropped())
	return s.report(), s.err
}

// startEpoch begins epoch e: SnapshotBank across every registered pool,
// next-committee election, and the round schedule.
func (s *MultiSystem) startEpoch(e uint64) {
	if s.err != nil {
		return
	}
	s.epoch = e
	if s.OnEpochStart != nil {
		s.OnEpochStart(e)
	}
	// SnapshotBank: the engine snapshots pools lazily on first touch, so
	// epoch-open cost tracks the epoch's active pools; the bank supplies
	// the epoch's deposits.
	if err := s.bank.beginEpoch(e); err != nil {
		s.fail(fmt.Errorf("%w: begin epoch %d: %v", chain.ErrEngineFailed, e, err))
		return
	}
	if _, ok := s.committees[e+1]; !ok {
		ck, err := provisionCommittee(s.registry, s.chainSeed, e+1, s.cfg.CommitteeSize)
		if err != nil {
			s.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrElectionFailed, e+1, err))
			return
		}
		s.committees[e+1] = ck
	}
	if s.live != nil {
		if err := s.live.beginEpoch(e); err != nil {
			s.fail(fmt.Errorf("%w: live committee epoch %d: %v", chain.ErrElectionFailed, e, err))
			return
		}
	}
	s.bus.Publish(chain.Event{Type: chain.EventEpochStart, At: s.sim.Now(), Epoch: e})
	s.runRound(e, 1)
}

// runRound packs pending transactions into the round's meta-block and
// executes them through the sharded engine: the batch is partitioned by
// pool, shards run concurrently, and the included set (submission order)
// forms the meta-block spanning all pools.
func (s *MultiSystem) runRound(e, r uint64) {
	if s.err != nil {
		return
	}
	if s.OnRoundStart != nil {
		s.OnRoundStart(e, r)
	}
	// The round boundary is the epoch cut: merge everything concurrent
	// producers got admitted so far, in canonical admission order. After
	// the drain every queue entry carries SubmittedAt <= now, so packing
	// is bounded by the meta-block byte budget alone.
	s.drainIngest(s.sim.Now())
	roundStart := s.sim.Now()

	blockBytes := 0
	consumed := 0
	for _, q := range s.queue {
		if blockBytes+q.tx.Size() > s.cfg.MetaBlockBytes {
			break
		}
		consumed++
		blockBytes += q.tx.Size()
	}
	// The batch is the queue's consumed prefix. It is dead once this
	// function returns, so a round that empties the queue hands its
	// buffer back whole to the next drain instead of growing a new one.
	batch, leaves := s.queue[:consumed], s.queueLeaves[:consumed]
	if consumed == len(s.queue) {
		s.queue, s.queueLeaves = s.queue[:0], s.queueLeaves[:0]
	} else {
		s.queue, s.queueLeaves = s.queue[consumed:], s.queueLeaves[consumed:]
	}
	txs, refs := s.roundTxs[:0], s.roundRefs[:0]
	for _, q := range batch {
		txs, refs = append(txs, q.tx), append(refs, q.ref)
	}
	s.roundTxs, s.roundRefs = txs, refs

	s.bank.fundRound(e, batch)

	res, err := s.eng.ExecuteRoundIndexed(txs, refs, leaves, r)
	if err != nil {
		s.fail(fmt.Errorf("%w: round %d/%d: %v", chain.ErrEngineFailed, e, r, err))
		return
	}
	s.Rejected += res.Rejected
	// Included is a submission-order subsequence of the batch: walk both
	// to split accepted entries, which go straight onto the epoch's
	// receipt ledger, from rejected ones.
	recs, ok := s.recsByEpoch[e]
	if !ok { // the epoch's first round: take over the spare, or reserve the last epoch's length
		recs, s.spareRecs = s.spareRecs, nil
		if n := len(s.recsByEpoch[e-1]); cap(recs) < n {
			recs = make([]queuedTx, 0, n)
		}
	}
	start := len(recs)
	includedBytes := 0
	j := 0
	for _, q := range batch {
		if j < len(res.Included) && res.Included[j] == q.tx {
			recs = append(recs, q)
			includedBytes += q.tx.Size()
			j++
			continue
		}
		q.rc.Status = chain.StatusRejected
		q.rc.Err = chain.ErrExecutionRejected
		q.rc.Epoch = e
		q.rc.Round = r
	}
	s.recsByEpoch[e] = recs
	included := recs[start:] // the epoch's next round appends only after this one completes

	// A view-change storm of k consecutive silent leaders adds the
	// detour before the promoted leader's proposal succeeds; the
	// meta-block records that leader as proposer. Both fidelities derive
	// the storm length the same way, so planned faults yield the same
	// proposer on either path.
	ck := s.committees[e]
	storm := s.cfg.Faults.StormLength(e, r)
	leader := ck.committee.LeaderAt(storm)
	block := sidechain.NewMetaBlock(e, r, leader, s.ledger.TipHash(), res.Included, res.TxRoot)

	// completeRound is the agreement continuation both fidelities share:
	// the model path reaches it after the analytic delay, the live path
	// at the committee's first real decision.
	completeRound := func(viewChanges int) {
		if s.err != nil {
			return
		}
		block.MinedAt = s.sim.Now()
		block.CommitVotes = ck.group.Threshold
		if viewChanges > 0 {
			s.ViewChanges += viewChanges
			s.bus.Publish(chain.Event{
				Type: chain.EventViewChange, At: s.sim.Now(), Epoch: e, Round: r,
				Parts: viewChanges,
			})
		}
		if err := s.ledger.AppendMeta(block); err != nil {
			s.fail(fmt.Errorf("%w: meta %d/%d: %v", chain.ErrLedgerAppend, e, r, err))
			return
		}
		s.executed(e, r, block.MinedAt, included)
		s.bus.Publish(chain.Event{
			Type: chain.EventMetaBlock, At: block.MinedAt, Epoch: e, Round: r,
			Txs: len(included), Bytes: includedBytes,
		})
		if r < uint64(s.cfg.EpochRounds) {
			next := roundStart + s.cfg.RoundDuration
			if next < s.sim.Now() {
				next = s.sim.Now()
			}
			s.sim.At(next, func() { s.runRound(e, r+1) })
		} else {
			s.finishEpoch(e, roundStart)
		}
	}

	if s.live != nil {
		s.live.runRound(r, block, block.Hash(), block.SizeBytes, storm, completeRound)
		return
	}
	delay := agreementModel.AgreementTime(s.cfg.CommitteeSize, block.SizeBytes)
	if storm > 0 {
		delay += time.Duration(storm) * (viewChangeTimeout + agreementModel.ViewChangeTime(s.cfg.CommitteeSize))
	}
	s.sim.After(delay, func() { completeRound(storm) })
}

// finishEpoch ends epoch e's execution: the epoch is sealed into the
// commit/sync stage, the window retires down to PipelineDepth-1 sealed
// epochs (at depth 1, this one at once), and the next epoch starts on the
// round grid — one boundary rule for every depth.
//
// An epoch whose sync the fault plan skips signs its parts like
// any other; retirement holds them, and they go out just before the next
// epoch's (a mass-sync). A skip at or after the final planned epoch syncs
// normally: no later epoch is certain to carry it.
func (s *MultiSystem) finishEpoch(e uint64, lastRoundStart time.Duration) {
	if s.err != nil {
		return
	}
	// Occupancy is sampled before this epoch joins the window: how many
	// earlier epochs' commit/sync stages were still unretired when this
	// epoch finished executing.
	s.col.ObservePipeline(len(s.inflight))
	nextKey := s.committees[e+1].group
	sealed := s.sealTraced(e, nextKey.PK.Bytes())
	if sealed == nil {
		return
	}
	skip := s.cfg.Faults.SkipSyncEpochs[e] && int(e) < s.epochsPlanned
	job := &commitJob{
		epoch:     e,
		sealed:    sealed,
		ck:        s.committees[e],
		nextKey:   nextKey,
		skip:      skip,
		corrupt:   s.cfg.Faults.CorruptSyncEpochs[e],
		gasBudget: syncPartGas(s.cfg.Mainchain),
		persist:   s.st != nil,
		tr:        s.tr,
	}
	if job.persist {
		job.suffixLen = s.receiptSuffixLen(e)
	}
	// The lane runs jobs one at a time in seal order: an idle pool answers
	// from the root its last touched epoch's Finalize cached. A commit
	// fault travels in the package, so the task itself never fails.
	job.run = s.commitLane.issue(false, func() error {
		job.pkg = buildSyncPackage(job)
		return nil
	})
	s.inflight = append(s.inflight, job)
	// Backpressure: the window holds the executing epoch plus at most
	// PipelineDepth-1 sealed epochs, so retire the oldest until it fits.
	// Retirement order is FIFO — stage effects always publish in epoch
	// order.
	for len(s.inflight) >= s.cfg.PipelineDepth {
		if !s.retireOldest() {
			return
		}
	}

	// The end-of-run decision waits for the boundary where the next epoch
	// would start, so a transaction arriving between epoch end and the
	// boundary still gets a drain epoch instead of being stranded with a
	// Pending receipt.
	boundary := func() {
		if s.err != nil {
			return
		}
		// CloseIfEmpty makes the decision atomic against concurrent
		// producers: either the pool closes empty (no late transaction
		// can slip in afterwards) or something is pending and the next
		// epoch runs as a drain epoch.
		if int(e) >= s.epochsPlanned && len(s.queue) == 0 && s.ingest.CloseIfEmpty() {
			// No further execution to overlap with: drain every in-flight
			// stage now. Syncs still confirm on the mainchain's own
			// schedule; the chain stops once the final epoch prunes —
			// which, with a window of one, may already have happened.
			s.done = true
			for len(s.inflight) > 0 {
				if !s.retireOldest() {
					return
				}
			}
			s.finishIfPruned()
			return
		}
		s.startEpoch(e + 1)
	}
	atBoundary := func() {
		s.sim.At(max(lastRoundStart+s.cfg.RoundDuration, s.sim.Now()), boundary)
	}
	if s.live != nil {
		// Live fidelity has one replica set, re-keyed per epoch, so the
		// next epoch's rounds cannot begin before this epoch's summary
		// round decides: the retirement above started that round (its
		// decision is a later simulator event), and the decision runs the
		// boundary.
		s.live.afterSummary = atBoundary
		return
	}
	atBoundary()
}

// retireOldest blocks until the oldest in-flight epoch's commit/sync
// package is ready, removes it from the window, then schedules its
// externally observable effects — summary checkpoint, receipt stage
// advances, event publishes, sync submission — on the simulator
// goroutine in per-epoch order. The wait is the pipeline's only
// synchronization point: it spends wall-clock time, never virtual time,
// and only when the commit stage is still behind. Returns
// false when the node halted (a commit-stage fault or an earlier
// lifecycle fault), in which case the remaining in-flight work is
// abandoned: no further stage events publish and receipts keep the last
// stage they reached.
func (s *MultiSystem) retireOldest() bool {
	// Stall attribution: peek the oldest job before blocking on it. When
	// it is not done yet, the phase marker names what retirement is about
	// to wait on — read BEFORE the blocking wait, because afterwards the
	// job is always "finished".
	var stalledIn string
	var stallStart time.Duration
	job := s.inflight[0]
	if s.tr != nil && !job.run.finished() {
		stalledIn = jobStageName(job.stage.Load())
		stallStart = s.tr.Since()
	}
	wallStart := time.Now()
	_ = job.run.wait()
	s.inflight = s.inflight[1:]
	wall := time.Since(wallStart)
	s.stallWall += wall
	if stalledIn != "" {
		s.tr.Record(trace.SpanRecord{
			Stage: trace.StageStall, Epoch: job.epoch, Start: stallStart, Dur: wall,
			WaitedOn: stalledIn,
		})
	}
	if s.err != nil {
		return false
	}
	pkg := job.pkg
	if pkg.err != nil {
		s.fail(fmt.Errorf("%w: epoch %d: %w", chain.ErrCommitStage, job.epoch, pkg.err))
		return false
	}
	e := job.epoch
	s.SummaryRoots[e] = pkg.res.SummaryRoot
	metas := s.ledger.MetaBlocks(e)
	commit := func() {
		if s.err != nil {
			return
		}
		s.checkpointEpoch(e, pkg.res.Payloads, metas, pkg.scBytes, pkg.res.SummaryRoot)
		if job.skip {
			s.uplink.hold(e, pkg.txs)
			return
		}
		// Persist before the sync parts become externally visible: the
		// snapshot and its sync-part log entry go to the store lane in
		// epoch-retire order, and each part waits at block inclusion for
		// the write to return (the blobs were encoded on the commit lane,
		// the receipt suffix is appended here, the write runs on the lane).
		if s.uplink.submit(e, pkg.txs, s.persistEpoch(e, pkg.snapPrefix, pkg.partsBlob)) {
			s.MassSyncs++
		}
	}
	if s.live != nil {
		// The checkpoint rides one more live agreement: the committee
		// decides on the folded summary root at the sequence just past the
		// meta rounds. The replicas then retire until the next epoch's DKG
		// re-keys them.
		prop := &summaryProposal{Epoch: e, Root: pkg.res.SummaryRoot}
		seq := uint64(s.cfg.EpochRounds) + 1
		s.live.runRound(seq, prop, prop.digest(), pkg.scBytes, 0, func(vc int) {
			if vc > 0 {
				s.ViewChanges += vc
				s.bus.Publish(chain.Event{
					Type: chain.EventViewChange, At: s.sim.Now(), Epoch: e,
					Round: seq, Parts: vc,
				})
			}
			s.live.stopReplicas()
			commit()
			if next := s.live.afterSummary; next != nil {
				s.live.afterSummary = nil
				next()
			}
		})
		return true
	}
	// The summary checkpoint pays the committee agreement over the epoch's
	// summaries; the clamp keeps checkpoints in epoch order even if
	// agreement delays were wildly uneven.
	at := s.sim.Now() + agreementModel.AgreementTime(s.cfg.CommitteeSize, pkg.scBytes)
	if at < s.lastSummaryAt {
		at = s.lastSummaryAt
	}
	s.lastSummaryAt = at
	s.sim.At(at, commit)
	return true
}

// finishIfPruned reports the node finished once the run is over and its
// final epoch has pruned (keyed on that epoch's prune, not on an empty
// receipt table: an epoch without transactions never had an entry).
// It joins the store lane first, so Run returns only after every write
// it issued has finished, and a failed one halts the node instead.
func (s *MultiSystem) finishIfPruned() {
	if s.done && s.lastPruned == s.epoch && s.joinStore() {
		s.finished(false)
	}
}

// checkpointEpoch mines the epoch's summary blocks, advances its
// receipts to Checkpointed (before the event publishes — the documented
// visibility contract), and publishes the SummaryBlock event: the
// checkpoint step of retirement. The caller persists the epoch and
// submits its sync immediately after.
func (s *MultiSystem) checkpointEpoch(e uint64, payloads []*summary.SyncPayload, metas []*sidechain.MetaBlock, scBytes int, root [32]byte) {
	for _, sb := range sidechain.NewSummaryBlocks(e, payloads, metas) {
		sb.MinedAt = s.sim.Now()
		s.ledger.AppendSummary(sb)
	}
	s.checkpointed(e, s.sim.Now())
	s.bus.Publish(chain.Event{
		Type: chain.EventSummaryBlock, At: s.sim.Now(), Epoch: e,
		Bytes: scBytes, Root: root,
	})
}

// encodeEpochBlobs builds the epoch's snapshot-record prefix, with room
// for a receipt suffix of suffixLen bytes, and its sync-part record
// payload, on the commit lane (off the simulator goroutine). An
// on-chain payload's digest comes from the fold; only idle pools' are
// hashed here.
func encodeEpochBlobs(sealed *engine.SealedEpoch, res *engine.EpochResult,
	txs []*mainchain.Tx, suffixLen int) (snapPrefix, partsBlob []byte) {
	digests := make([][32]byte, len(res.Payloads))
	j := 0
	for i, p := range res.Payloads {
		if j < len(res.OnChain) && res.OnChain[j] == p {
			digests[i] = res.OnChainDigests[j]
			j++
		} else {
			digests[i] = p.Digest()
		}
	}
	activeIDs, activePools := sealed.ActiveSnapshots()
	snapPrefix = store.EncodeSnapshotPrefix(res.Epoch, res.SummaryRoot,
		res.PoolIDs, res.PoolRoots, digests, activeIDs, activePools, suffixLen)
	parts := make([]*mainchain.MultiSyncArgs, len(txs))
	for i, tx := range txs {
		parts[i] = tx.Args.(*mainchain.MultiSyncArgs)
	}
	partsBlob = store.EncodeSyncParts(res.Epoch, parts)
	return snapPrefix, partsBlob
}

// persistEpoch issues epoch e's write to the store lane and returns it
// (nil without a store): the lifecycle completes the pre-encoded
// snapshot record in place with the epoch's receipt rows and run
// counters as they stand, and the lane appends snapshot + sync-part
// records and fsyncs them. A failed write halts the node when a part of
// the epoch reaches a block (the uplink's gate): continuing without
// durability would break the recovery contract silently.
func (s *MultiSystem) persistEpoch(e uint64, snapPrefix, partsBlob []byte) *task {
	if s.st == nil {
		return nil
	}
	snap := s.appendReceiptSuffix(snapPrefix, e, store.RunMeta{
		Rejected:       uint64(s.Rejected),
		SyncsOK:        uint64(s.SyncsOK),
		ViewChanges:    uint64(s.ViewChanges),
		QueuePeak:      uint64(s.queuePeak),
		EngineAccepted: uint64(s.eng.Accepted),
		EngineRejected: uint64(s.eng.Rejected),
	})
	w := s.st
	return s.storeLane.issue(false, func() error {
		if err := w.AppendEpoch(e, snap, partsBlob); err != nil {
			return fmt.Errorf("%w: epoch %d: %v", chain.ErrStoreWrite, e, err)
		}
		return nil
	})
}

// appendReceiptSuffix appends epoch e's receipt table, encoded straight
// from the ledger as it stands, and the run counters meta.
func (s *MultiSystem) appendReceiptSuffix(snap []byte, e uint64, meta store.RunMeta) []byte {
	recs := s.recsByEpoch[e]
	return store.AppendReceiptRows(snap, len(recs), func(i int) store.ReceiptRecord {
		rc := recs[i].rc
		return store.ReceiptRecord{
			TxID:           rc.TxID,
			PoolID:         rc.PoolID,
			Status:         uint8(rc.Status),
			Epoch:          rc.Epoch,
			Round:          rc.Round,
			SubmittedAt:    int64(rc.SubmittedAt),
			ExecutedAt:     int64(rc.ExecutedAt),
			CheckpointedAt: int64(rc.CheckpointedAt),
		}
	}, meta)
}

// receiptSuffixLen is the exact length of epoch e's receipt table and
// run counters in its snapshot record. The table is complete once the
// epoch's last round has executed: retirement changes only fixed-width
// fields of its rows.
func (s *MultiSystem) receiptSuffixLen(e uint64) int {
	ids := 0
	for _, q := range s.recsByEpoch[e] {
		ids += len(q.rc.TxID) + len(q.rc.PoolID)
	}
	return store.ReceiptsAndMetaLen(len(s.recsByEpoch[e]), ids)
}

// epochSynced is the uplink's callback once the last part of epoch
// ev.Epoch's sync confirms. Receipts advance before the event publishes
// (the documented visibility contract); then the epoch prunes and, on
// the compaction cadence, issues a store compaction.
func (s *MultiSystem) epochSynced(ev chain.Event) {
	e := ev.Epoch
	s.SyncsOK++
	s.synced(e, ev.At)
	s.bus.Publish(ev)
	spPrune := s.tr.Start(trace.StagePrune, e)
	if err := s.ledger.Prune(e, true); err != nil && !errors.Is(err, sidechain.ErrAlreadyPruned) {
		s.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrPruneFailed, e, err))
		return
	}
	s.pruned(e, s.sim.Now())
	s.compactEpoch(e)
	s.lastPruned = e
	// Store compaction rides the confirmation cadence: everything up to an
	// epoch final on the mainchain can fold into a checkpoint. It runs on
	// the store lane; the prune does not wait for it.
	if s.st != nil && s.cfg.CompactEvery > 0 && e%uint64(s.cfg.CompactEvery) == 0 {
		s.compactStore(e)
	}
	spPrune.End()
	s.bus.Publish(chain.Event{Type: chain.EventPruned, At: s.sim.Now(), Epoch: e})
	s.finishIfPruned()
}

// MainchainRetentionBlocks converts a node config's epoch retention
// horizon into the mainchain block-history bound the node needs:
// comfortably past every DependsOn distance the sync pipeline creates.
// Zero means unbounded (RetainEpochs unset). A federation sizes its
// shared chain's retention as the max over members.
func MainchainRetentionBlocks(cfg chain.Config) int {
	cfg = cfg.WithDefaults()
	if cfg.RetainEpochs <= 0 {
		return 0
	}
	epochDur := time.Duration(cfg.EpochRounds) * cfg.RoundDuration
	blocksPerEpoch := int(epochDur/cfg.Mainchain.BlockInterval) + 2
	return (cfg.RetainEpochs + 4) * blocksPerEpoch
}

// compactEpoch drops bookkeeping a fully pruned epoch no longer needs.
// The committee key material (hundreds of shares per epoch) goes
// unconditionally — epoch e's committee signed its last bytes before the
// prune — while summary-root history follows the configured retention
// horizon (RetainEpochs 0 keeps every root for post-run comparison).
func (s *MultiSystem) compactEpoch(e uint64) {
	delete(s.committees, e)
	if r := s.cfg.RetainEpochs; r > 0 && e > uint64(r) {
		for old := s.rootsCompacted + 1; old <= e-uint64(r); old++ {
			delete(s.SummaryRoots, old)
		}
		s.rootsCompacted = e - uint64(r)
	}
}

// compactStore issues a fold of the durable log up to cursor (a
// mainchain-confirmed epoch) into a store checkpoint to the store lane;
// the bank state is encoded here, before the lifecycle moves on. The
// horizon mirrors the in-memory root-table retention: RetainEpochs 0
// keeps every root in the checkpoint for post-run comparison.
func (s *MultiSystem) compactStore(cursor uint64) *task {
	var horizon uint64
	if r := s.cfg.RetainEpochs; r > 0 && cursor > uint64(r) {
		horizon = cursor - uint64(r)
	}
	w, bank := s.st, s.mb.EncodeState()
	return s.storeLane.issue(false, func() error {
		if err := w.Compact(cursor, horizon, bank); err != nil {
			return fmt.Errorf("%w: compact at epoch %d: %v", chain.ErrStoreWrite, cursor, err)
		}
		return nil
	})
}

// joinStore joins the store lane on the lifecycle goroutine: a failed
// write halts the node. It reports whether every write issued so far
// succeeded.
func (s *MultiSystem) joinStore() bool {
	if s.st == nil {
		return true
	}
	if err := s.storeLane.join(); err != nil {
		s.fail(err)
		return false
	}
	return true
}

// CompactStore folds the durable log up to the newest mainchain-confirmed
// epoch — the chain.Compactor interface — and returns once the log is
// rewritten. Safe at rest (after Run returns); a running node with
// Config.CompactEvery set issues its own compactions from epochSynced.
func (s *MultiSystem) CompactStore() error {
	if s.st == nil {
		return fmt.Errorf("%w: node has no durable store", chain.ErrStoreUnsupported)
	}
	if err := s.storeLane.join(); err != nil {
		return err
	}
	cursor := s.LastSyncedEpoch()
	if cursor == 0 {
		return nil // nothing confirmed yet
	}
	return s.compactStore(cursor).wait()
}

// ExportSnapshot returns the store's complete current image — what a
// fresh node Bootstraps from. CompactStore first for the smallest image.
func (s *MultiSystem) ExportSnapshot() ([]byte, error) {
	if s.st == nil {
		return nil, fmt.Errorf("%w: node has no durable store", chain.ErrStoreUnsupported)
	}
	if err := s.storeLane.join(); err != nil {
		return nil, err
	}
	return s.st.Snapshot()
}

// errKilled marks a node torn down by Kill — a deliberate simulated
// crash, not a lifecycle fault, so nothing persists and no halt event
// publishes.
var errKilled = fmt.Errorf("core: node killed")

// Kill simulates a member crash mid-run: the node stops processing
// immediately and its store file descriptor closes WITHOUT flushing
// buffered records — exactly what kill -9 leaves on disk. Unlike a
// lifecycle halt, nothing is persisted (no halt record) and no event
// publishes; in-flight mainchain transactions stay in flight and may
// confirm against the shared chain after the kill. The directory can
// then be reopened (the flock died with the descriptor) to resume the
// node from its durable boundary. Call from the simulator goroutine.
func (s *MultiSystem) Kill() {
	if s.err != nil {
		return
	}
	s.err = errKilled
	s.halt()
	// Suppress the runner's finished notification and any late fail()
	// from this node's lingering mainchain callbacks: the corpse must
	// not speak for its successor.
	s.finishedNotified = true
	if s.live != nil {
		s.live.stopAll()
	}
	_ = s.commitLane.join()
	if s.st != nil {
		// The writes the lifecycle issued land before the kill; their
		// errors die with the node, which persists nothing more.
		_ = s.storeLane.join()
		s.st.Abort()
		s.st = nil
	}
	if s.shared == nil {
		s.mc.Stop()
	}
}

// Validate checks cross-layer parity between the bank and the engine's
// canonical pools (nodeBank.validate).
func (s *MultiSystem) Validate() error { return s.bank.validate() }

func (s *MultiSystem) report() *chain.Report {
	ist := s.ingest.Stats()
	live := 0
	for _, pid := range s.eng.PoolIDs() {
		live += s.eng.Pool(pid).NumPositions()
	}
	ts := trace.Summarize(s.tr.Snapshot(0), s.eng.NumShards())
	var netStats netsim.Stats
	if s.live != nil {
		netStats = s.live.stats()
	}
	return &chain.Report{
		Collector:              s.col,
		EpochsRun:              int(s.epoch),
		Duration:               s.sim.Now(),
		Throughput:             s.col.Throughput(),
		AvgSCLatency:           s.col.AvgSCLatency(),
		AvgPayoutLatency:       s.col.AvgPayoutLatency(),
		MainchainBytes:         s.mc.TotalBytes,
		MainchainGas:           s.mc.TotalGas,
		SidechainRetainedBytes: s.ledger.SizeBytes(),
		SidechainPeakBytes:     s.ledger.PeakBytes(),
		SidechainPrunedBytes:   s.ledger.PrunedBytes(),
		SidechainUnpruned:      s.ledger.UnprunedBytes(),
		NumPools:               len(s.eng.PoolIDs()),
		NumShards:              s.eng.NumShards(),
		SyncsOK:                s.SyncsOK,
		MassSyncs:              s.MassSyncs,
		SyncParts:              s.mb.SyncStats(),
		ViewChanges:            s.ViewChanges,
		Rejected:               s.Rejected,
		QueuePeak:              s.queuePeak,
		IngestAdmitted:         ist.Admitted,
		IngestRejFull:          ist.RejFull,
		IngestCanceled:         ist.Canceled,
		IngestPeak:             ist.Peak,
		PositionsLive:          live,
		SummaryRoots:           s.SummaryRoots,
		PipelineDepth:          s.cfg.PipelineDepth,
		PipelineOccupancy:      s.col.AvgPipelineOccupancy(),
		PipelineStallWall:      s.stallWall,
		Stages:                 ts.Stages,
		ShardImbalanceAvg:      ts.ImbalanceAvg,
		ShardImbalanceMax:      ts.ImbalanceMax,
		ShardImbalanceMaxEpoch: ts.ImbalanceMaxEpoch,
		PipelineStallByStage:   ts.Stalls,
		NetStats:               netStats,
	}
}

// MultiDriverConfig wires Zipf multi-pool traffic onto a MultiSystem.
type MultiDriverConfig struct {
	DailyVolume int
	Epochs      int
	Workload    workload.MultiConfig
}

// NewMultiDriver builds the system and schedules its arrivals: ρ
// transactions per round spread uniformly, pool choice per transaction
// drawn from the Zipf popularity law. The node is returned behind the
// unified chain.Chain API.
func NewMultiDriver(sysCfg chain.Config, drvCfg MultiDriverConfig) (chain.Chain, *workload.MultiGenerator, error) {
	sysCfg = sysCfg.WithDefaults()
	wcfg := drvCfg.Workload
	if wcfg.NumPools == 0 {
		wcfg.NumPools = sysCfg.NumPools
	}
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(sysCfg, gen.Users())
	if err != nil {
		return nil, nil, err
	}
	rho := workload.Rho(drvCfg.DailyVolume, sysCfg.RoundDuration.Seconds())
	workload.ConstantRate(rho, drvCfg.Epochs*sysCfg.EpochRounds, sysCfg.RoundDuration, func(at time.Duration) {
		sys.Sim().At(at, func() { sys.Submit(context.Background(), gen.Next()) })
	})
	return sys, gen, nil
}
