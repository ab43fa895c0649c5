// Package core orchestrates the full ammBoost system (Fig. 1): the
// mainchain hosting TokenBank and the ERC20 pair, the PBFT sidechain with
// per-epoch VRF-elected committees, the epoch lifecycle (SnapshotBank →
// meta-block rounds → summary-block → TSQC-authenticated Sync → pruning),
// epoch-based deposits, delayed token payouts, and the interruption
// recovery paths (leader view change, mass-sync after skipped or
// rolled-back syncs).
//
// Both backends — the single-pool System and the sharded multi-pool
// MultiSystem — implement the unified chain.Chain node API: submissions
// return receipts that advance through the epoch lifecycle, lifecycle
// faults surface as typed errors out of Run, and every stage publishes
// chain.Events.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/mainchain"
	"ammboost/internal/sidechain"
	"ammboost/internal/sidechain/election"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// System-level errors.
var (
	ErrNotGenesis = errors.New("core: system already started")
	ErrParity     = errors.New("core: cross-layer state parity violated")
)

// committeeKeys is the TSQC key material for one epoch's committee. For
// experiment-scale committees the shares come from a dealer (see DESIGN.md
// on the DKG substitution); the pbft functional tests run the full joint
// DKG.
type committeeKeys struct {
	committee *election.Committee
	group     tsig.GroupKey
	signer    *syncSigner
}

// syncSigner is a committee's sync signer set — its first Threshold
// members, fixed when the committee is provisioned — and the one way a
// sync signature is produced: System and MultiSystem both sign through
// signDigest, so the two cannot drift.
//
// The signer-side weighting (the quorum's Lagrange table and each
// member's coefficient folded into its share, see tsig.Quorum) is built
// on the first signature, not at construction: provisioning runs on the
// simulator goroutine at node setup and at every epoch start, the first
// signature on whichever goroutine signs — the commit-stage worker in a
// pipelined run.
type syncSigner struct {
	group  tsig.GroupKey
	shares []tsig.Share // the signer set's own shares, one per member

	once     sync.Once
	quorum   *tsig.Quorum
	weighted []tsig.Share // shares[i] with its coefficient folded in
	err      error
}

// newSyncSigner fixes the signer set to the first group.Threshold of the
// committee's shares (a shorter list is reported by the first signDigest).
func newSyncSigner(group tsig.GroupKey, shares []tsig.Share) *syncSigner {
	if len(shares) > group.Threshold {
		shares = shares[:group.Threshold]
	}
	return &syncSigner{group: group, shares: shares}
}

// signDigest produces the committee's TSQC signature over a digest (a
// payload digest, a mass-sync's combined digest, or a multi-pool sync
// part's). Safe for concurrent use.
func (s *syncSigner) signDigest(digest [32]byte) (tsig.Point, error) {
	s.once.Do(func() {
		indices := make([]int, len(s.shares))
		for i, sh := range s.shares {
			indices[i] = sh.Index
		}
		if s.quorum, s.err = quorumFor(s.group, indices); s.err != nil {
			return
		}
		s.weighted = make([]tsig.Share, len(s.shares))
		for i, sh := range s.shares {
			if s.weighted[i], s.err = s.quorum.Weight(sh); s.err != nil {
				return
			}
		}
	})
	if s.err != nil {
		return tsig.Point{}, s.err
	}
	return s.quorum.Sign(s.weighted, digest[:])
}

// quorums holds one tsig.Quorum per signer index set. A quorum's Lagrange
// table depends on its indices alone, and every committee of one size
// signs with shares 1..Threshold, so an epoch's committee reuses the
// table its predecessors built instead of inverting it again.
var quorums sync.Map // threshold, then indices, as big-endian uint32s → *tsig.Quorum

// quorumFor returns tsig.NewQuorum(group, indices), building it on first
// use of the threshold and index set and reusing it after.
func quorumFor(group tsig.GroupKey, indices []int) (*tsig.Quorum, error) {
	key := binary.BigEndian.AppendUint32(make([]byte, 0, 4+4*len(indices)), uint32(group.Threshold))
	for _, x := range indices {
		key = binary.BigEndian.AppendUint32(key, uint32(x))
	}
	if q, ok := quorums.Load(string(key)); ok {
		return q.(*tsig.Quorum), nil
	}
	q, err := tsig.NewQuorum(group, indices)
	if err != nil {
		return nil, err
	}
	quorums.Store(string(key), q)
	return q, nil
}

// System is a running single-pool ammBoost deployment.
type System struct {
	// frontEnd is the admission path and receipt ledger MultiSystem
	// shares; the single-pool node routes only the empty pool ID.
	frontEnd

	cfg chain.Config
	sim *sim.Simulator
	rng *rand.Rand

	// Mainchain side.
	mc     *mainchain.Chain
	token0 *mainchain.ERC20
	token1 *mainchain.ERC20
	bank   *mainchain.TokenBank

	// Sidechain side.
	registry *election.Registry
	ledger   *sidechain.Ledger
	pool     *amm.Pool // canonical sidechain pool, carried across epochs
	executor *summary.Executor

	seenDeposits map[string]summary.Deposit
	approved     map[string]bool // users who granted TokenBank allowances

	committees map[uint64]*committeeKeys
	chainSeed  [32]byte

	epoch          uint64
	pendingPayload []*summary.SyncPayload // stashed summaries awaiting mass-sync

	ViewChanges int
	MassSyncs   int
	SyncsOK     int
	Rejected    int

	// OnEpochStart lets the workload driver fund the next epoch's
	// deposits and keep generating traffic.
	OnEpochStart func(epoch uint64)
	// OnRoundStart fires at each round's entry, before the round's
	// ingest drain — the arrival-log replay hook.
	OnRoundStart func(epoch, round uint64)

	epochsPlanned int
	done          bool
	// err is the first lifecycle fault; once set, the run winds down and
	// Run returns it (wrapping a chain sentinel).
	err error
}

// System implements the unified node API.
var _ chain.Chain = (*System)(nil)

// NewSystem builds and genesis-initializes a deployment: ERC20s and
// TokenBank on the mainchain, the miner registry, the epoch-1 committee
// (whose group key is registered at deployment, per SystemSetup), the
// genesis pool position, and funded, bank-approved users.
func NewSystem(cfg chain.Config, users []string) (*System, error) {
	if err := checkSinglePool(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	s := &System{
		cfg:        cfg,
		sim:        sim.New(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		committees: make(map[uint64]*committeeKeys),
		approved:   make(map[string]bool),
	}
	s.initFrontEnd(cfg, users, nil, nil)
	s.rng.Read(s.chainSeed[:])
	s.registry = newMinerRegistry(cfg.MinerPopulation)

	// Epoch-1 committee and key material.
	ck, err := provisionCommittee(s.registry, s.chainSeed, 1, cfg.CommitteeSize)
	if err != nil {
		return nil, err
	}
	s.committees[1] = ck

	// Mainchain with contracts.
	s.mc = mainchain.New(s.sim, cfg.Mainchain)
	s.token0 = mainchain.NewERC20("A", "genesis")
	s.token1 = mainchain.NewERC20("B", "genesis")
	s.mc.Deploy(s.token0)
	s.mc.Deploy(s.token1)
	s.bank = mainchain.NewTokenBank(s.token0, s.token1, ck.group)
	s.mc.Deploy(s.bank)

	// Genesis pool: full-range seed liquidity held by the bank.
	pool, mintRes, err := amm.NewGenesisPool("genesis-pos", cfg.InitialLiquidity)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	if err := s.token0.Ledger.Mint("genesis", mainchain.BankAddress, mintRes.Amount0); err != nil {
		return nil, err
	}
	if err := s.token1.Ledger.Mint("genesis", mainchain.BankAddress, mintRes.Amount1); err != nil {
		return nil, err
	}
	s.bank.PoolReserve0 = pool.Reserve0
	s.bank.PoolReserve1 = pool.Reserve1
	s.bank.Positions["genesis-pos"] = summary.PositionEntry{
		ID: "genesis-pos", Owner: amm.GenesisOwner,
		TickLower: -amm.GenesisTickUpper, TickUpper: amm.GenesisTickUpper, Liquidity: cfg.InitialLiquidity,
	}
	if err := s.mc.Call(mainchain.BankAddress, "createPool", mainchain.CreatePoolArgs{FeePips: amm.GenesisFeePips}); err != nil {
		return nil, err
	}

	// Fund users generously (a thousand epochs' deposits of 2e9 per
	// token) and pre-approve the bank.
	grant := u256.FromUint64(1000 * 2_000_000_000)
	for _, u := range users {
		if err := s.token0.Ledger.Mint("genesis", u, grant); err != nil {
			return nil, err
		}
		if err := s.token1.Ledger.Mint("genesis", u, grant); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Sim exposes the simulator for workload scheduling.
func (s *System) Sim() *sim.Simulator { return s.sim }

// Mainchain exposes the chain for inspection.
func (s *System) Mainchain() *mainchain.Chain { return s.mc }

// Bank exposes TokenBank for inspection.
func (s *System) Bank() *mainchain.TokenBank { return s.bank }

// Pool returns the canonical sidechain pool state.
func (s *System) Pool() *amm.Pool { return s.pool }

// SidechainLedger exposes the sidechain ledger.
func (s *System) SidechainLedger() *sidechain.Ledger { return s.ledger }

// Epoch returns the currently-running epoch number.
func (s *System) Epoch() uint64 { return s.epoch }

// LastSyncedEpoch returns the highest epoch TokenBank confirmed a Sync
// for.
func (s *System) LastSyncedEpoch() uint64 { return s.bank.LastSyncedEpoch }

// PoolIDs lists the registered pools: the single canonical pool routes
// under the empty ID (matching Tx.PoolID semantics).
func (s *System) PoolIDs() []string { return []string{""} }

// PoolInfo reports the canonical pool's reserves and live positions.
func (s *System) PoolInfo(poolID string) (chain.PoolInfo, bool) {
	if poolID != "" {
		return chain.PoolInfo{}, false
	}
	return chain.PoolInfo{
		ID:        "",
		Reserve0:  s.pool.Reserve0,
		Reserve1:  s.pool.Reserve1,
		Positions: s.pool.NumPositions(),
	}, true
}

// Positions lists TokenBank's synced liquidity positions in ID order.
func (s *System) Positions() []summary.PositionEntry {
	out := make([]summary.PositionEntry, 0, len(s.bank.Positions))
	for _, e := range s.bank.Positions {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close implements chain.Chain; the single-pool backend holds no durable
// resources, but closing the ingest pool gives late producers a typed
// refusal.
func (s *System) Close() error {
	s.ingest.Close()
	return nil
}

// fail records the first lifecycle fault, publishes the halt event, and
// stops mainchain block production so the simulator drains. Subsequent
// lifecycle callbacks see s.err and return without scheduling more work.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
		s.halt()
		s.bus.Publish(chain.Event{Type: chain.EventHalted, At: s.sim.Now(), Epoch: s.epoch, Err: err})
	}
	s.mc.Stop()
}

// committeeRNG derives epoch e's key-dealing randomness from
// (chainSeed, epoch) alone, the same construction the live DKG uses for
// its per-replica polynomials (see liveconsensus.go): every committee's
// key material is a pure function of the run seed and its epoch number,
// independent of how many committees were provisioned before it. That
// independence is what lets a checkpoint-based restore provision only
// the boundary committee in O(1) instead of replaying every election
// since genesis just to advance a shared rng stream.
func committeeRNG(chainSeed [32]byte, epoch uint64) *rand.Rand {
	h := sha256.New()
	h.Write(chainSeed[:])
	var eb [8]byte
	binary.BigEndian.PutUint64(eb[:], epoch)
	h.Write(eb[:])
	var d [32]byte
	h.Sum(d[:0])
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(d[:8]))))
}

// provisionCommittee elects an epoch committee from the registry and
// deals its TSQC key material. Shared by the single-pool System and the
// multi-pool MultiSystem; the dealing randomness derives from
// (chainSeed, epoch), so any epoch's committee can be re-provisioned in
// isolation.
func provisionCommittee(reg *election.Registry, chainSeed [32]byte, epoch uint64, size int) (*committeeKeys, error) {
	com, err := election.Elect(reg, chainSeed, epoch, size)
	if err != nil {
		return nil, err
	}
	f := pbft.FaultBudget(size)
	_, threshold := pbft.Quorum(f)
	if threshold > size {
		threshold = size
	}
	dealing, err := tsig.Deal(committeeRNG(chainSeed, epoch), threshold, size)
	if err != nil {
		return nil, err
	}
	group := tsig.GroupKey{PK: dealing.Commitments[0], Threshold: threshold, N: size}
	return &committeeKeys{committee: com, group: group, signer: newSyncSigner(group, dealing.Shares)}, nil
}

// newMinerRegistry registers the sidechain miner population with fast
// sortition keys; both backends elect every committee from it.
func newMinerRegistry(population int) *election.Registry {
	reg := election.NewRegistry()
	for i := 0; i < population; i++ {
		id := fmt.Sprintf("sc-miner-%04d", i)
		reg.Add(&election.Miner{ID: id, Stake: 1, VRF: election.NewFastVRF([]byte(id))})
	}
	return reg
}

func combinedDigest(payloads []*summary.SyncPayload) [32]byte {
	if len(payloads) == 1 {
		return payloads[0].Digest()
	}
	var acc []byte
	for _, p := range payloads {
		d := p.Digest()
		acc = append(acc, d[:]...)
	}
	return pbft.DigestOf(acc)
}

// SubmitDeposit runs a user's deposit flow on the mainchain. A first-time
// depositor runs the full four-transaction chain (approve A -> approve B ->
// deposit A -> deposit B, sequentially dependent - the pattern behind the
// paper's ~4-block deposit latency); the approvals grant a max allowance
// once, as wallets commonly do, so later epochs need only the two deposit
// legs. The returned receipt jumps Pending → Synced when the final
// deposit leg confirms: mainchain confirmation is a deposit's finality.
func (s *System) SubmitDeposit(user string, epoch uint64, amount0, amount1 u256.Int) (*chain.Receipt, error) {
	if s.err != nil {
		return nil, chain.ErrHalted
	}
	if !s.userSet[user] {
		return nil, fmt.Errorf("%w: %s", chain.ErrUnfundedUser, user)
	}
	if amount0.IsZero() && amount1.IsZero() {
		return nil, fmt.Errorf("%w: empty deposit", chain.ErrMalformedTx)
	}
	base := fmt.Sprintf("dep-%s-e%d", user, epoch)
	submitted := s.sim.Now()
	rc := &chain.Receipt{TxID: base, Status: chain.StatusPending, Epoch: epoch, SubmittedAt: submitted}
	var deps []string
	var txs []*mainchain.Tx
	firstTime := !s.approved[user]
	if firstTime {
		s.approved[user] = true
		ap0 := &mainchain.Tx{ID: base + "-ap0", From: user, To: "A", Method: "approve", Size: 100,
			Args: mainchain.ApproveArgs{Spender: mainchain.BankAddress, Amount: u256.Max}}
		ap1 := &mainchain.Tx{ID: base + "-ap1", From: user, To: "B", Method: "approve", Size: 100,
			DependsOn: []string{ap0.ID},
			Args:      mainchain.ApproveArgs{Spender: mainchain.BankAddress, Amount: u256.Max}}
		ap0.OnConfirmed = func(tx *mainchain.Tx) { s.col.ObserveGas("approve", tx.GasUsed) }
		ap1.OnConfirmed = func(tx *mainchain.Tx) { s.col.ObserveGas("approve", tx.GasUsed) }
		deps = []string{ap1.ID}
		txs = append(txs, ap0, ap1)
	}
	d0 := &mainchain.Tx{ID: base + "-d0", From: user, To: mainchain.BankAddress, Method: "deposit", Size: 160,
		DependsOn: deps,
		Args:      mainchain.DepositArgs{Epoch: epoch, Amount0: amount0}}
	d1 := &mainchain.Tx{ID: base + "-d1", From: user, To: mainchain.BankAddress, Method: "deposit", Size: 160,
		DependsOn: []string{d0.ID},
		Args:      mainchain.DepositArgs{Epoch: epoch, Amount1: amount1}}
	txs = append(txs, d0, d1)
	var depositGas uint64
	d0.OnConfirmed = func(tx *mainchain.Tx) { depositGas += tx.GasUsed }
	latencyLabel := "deposit"
	if firstTime {
		// The paper's Table II measures the full two-approval flow.
		latencyLabel = "deposit-first"
	}
	d1.OnConfirmed = func(tx *mainchain.Tx) {
		if tx.Status != mainchain.TxConfirmed {
			rc.Status = chain.StatusRejected
			rc.Err = tx.Err
			return
		}
		depositGas += tx.GasUsed
		s.col.ObserveGas("deposit", depositGas)
		s.col.ObserveMCLatency(latencyLabel, tx.ConfirmedAt-submitted)
		rc.Status = chain.StatusSynced
		rc.ExecutedAt = tx.ConfirmedAt
		rc.SyncedAt = tx.ConfirmedAt
	}
	for _, tx := range txs {
		s.mc.Submit(tx)
	}
	return rc, nil
}

// GenesisDeposit seeds a user's epoch-1 deposit at genesis (before the
// chain starts producing blocks), moving the tokens on the ledger without
// transactions — the steady-state flow is SubmitDeposit.
func (s *System) GenesisDeposit(user string, amount0, amount1 u256.Int) error {
	if s.sim.Now() != 0 {
		return ErrNotGenesis
	}
	if err := s.token0.Ledger.Transfer(user, mainchain.BankAddress, amount0); err != nil {
		return err
	}
	if err := s.token1.Ledger.Transfer(user, mainchain.BankAddress, amount1); err != nil {
		return err
	}
	return s.bank.CreditDeposit(1, user, amount0, amount1)
}

// Run executes the given number of epochs plus drain epochs until the
// transaction queue empties (the paper drains queues for accurate latency
// accounting), then returns the report. A lifecycle fault ends the run
// early: the report covers everything up to the fault and the returned
// error wraps the matching chain sentinel (ErrSyncReverted,
// ErrElectionFailed, …).
func (s *System) Run(epochs int) (*chain.Report, error) {
	s.epochsPlanned = epochs
	s.ledger = sidechain.NewLedger(pbft.DigestOf([]byte("tokenbank-genesis")))
	s.sim.At(0, func() { s.startEpoch(1) })
	s.sim.Run()
	s.bus.Close()
	s.col.ObserveEventDrops(s.bus.Dropped())
	return s.report(), s.err
}

// startEpoch begins epoch e: SnapshotBank, next-committee election, and
// the round schedule.
func (s *System) startEpoch(e uint64) {
	if s.err != nil {
		return
	}
	s.epoch = e
	if s.OnEpochStart != nil {
		s.OnEpochStart(e)
	}
	// SnapshotBank: retrieve this epoch's deposits from TokenBank. The
	// seen-map tracks what the executor has credited so far; deposits
	// confirming mid-epoch are delta-synced at each round start.
	deposits := s.bank.EpochDeposits(e)
	s.seenDeposits = deposits
	s.executor = summary.NewExecutor(e, s.pool, deposits)

	// Elect next epoch's committee during this epoch and run its DKG.
	if _, ok := s.committees[e+1]; !ok {
		ck, err := provisionCommittee(s.registry, s.chainSeed, e+1, s.cfg.CommitteeSize)
		if err != nil {
			s.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrElectionFailed, e+1, err))
			return
		}
		s.committees[e+1] = ck
	}
	s.bus.Publish(chain.Event{Type: chain.EventEpochStart, At: s.sim.Now(), Epoch: e})
	s.runRound(e, 1)
}

// syncMidEpochDeposits credits deposits that confirmed on the mainchain
// after the epoch snapshot: the committee observes the bank's (monotone)
// epoch bucket and applies the delta, exactly once per token unit.
func (s *System) syncMidEpochDeposits(e uint64) {
	for user, d := range s.bank.Deposits[e] {
		seen := s.seenDeposits[user]
		delta0, under0 := u256.SubUnderflow(d.Amount0, seen.Amount0)
		delta1, under1 := u256.SubUnderflow(d.Amount1, seen.Amount1)
		if under0 || under1 {
			continue // cannot happen: buckets only grow
		}
		if delta0.IsZero() && delta1.IsZero() {
			continue
		}
		if s.executor.AddDeposit(user, delta0, delta1) == nil { // the bank's balance bounds it: no overflow
			s.seenDeposits[user] = summary.Deposit{Amount0: d.Amount0, Amount1: d.Amount1}
		}
	}
}

// runRound processes round r of epoch e at the current virtual time.
func (s *System) runRound(e, r uint64) {
	if s.err != nil {
		return
	}
	if s.OnRoundStart != nil {
		s.OnRoundStart(e, r)
	}
	// Round boundary = epoch cut: merge the concurrent mempool in
	// canonical admission order before packing.
	s.drainIngest(s.sim.Now())
	roundStart := s.sim.Now()
	s.syncMidEpochDeposits(e)

	// Pack pending transactions into the meta-block, executing them
	// against the epoch snapshot (every drained entry carries
	// SubmittedAt <= roundStart, so the byte budget is the only bound).
	var included []queuedTx
	var includedTxs []*summary.Tx
	blockBytes := 0
	consumed := 0
	for _, q := range s.queue {
		tx := q.tx
		if blockBytes+tx.Size() > s.cfg.MetaBlockBytes {
			break
		}
		consumed++
		if err := s.executor.Apply(tx, r); err != nil {
			s.Rejected++
			q.rc.Status = chain.StatusRejected
			q.rc.Err = err
			q.rc.Epoch = e
			q.rc.Round = r
			continue // invalid transactions never enter a block
		}
		included = append(included, q)
		includedTxs = append(includedTxs, tx)
		blockBytes += tx.Size()
	}
	s.queue = s.queue[consumed:]

	ck := s.committees[e]
	leader := ck.committee.Leader()
	if s.cfg.Faults.SilentLeader(e, r) {
		leader = ck.committee.LeaderAt(1)
	}
	block := sidechain.NewMetaBlock(e, r, leader, s.ledger.TipHash(), includedTxs, sidechain.TxRoot(includedTxs))

	// Agreement latency from the cost model; a silent leader adds the
	// view-change detour before the new leader's proposal succeeds.
	delay := agreementModel.AgreementTime(s.cfg.CommitteeSize, block.SizeBytes)
	if s.cfg.Faults.SilentLeader(e, r) {
		delay += viewChangeTimeout + agreementModel.ViewChangeTime(s.cfg.CommitteeSize)
		s.ViewChanges++
	}

	s.sim.After(delay, func() {
		if s.err != nil {
			return
		}
		block.MinedAt = s.sim.Now()
		block.CommitVotes = ck.group.Threshold
		if err := s.ledger.AppendMeta(block); err != nil {
			s.fail(fmt.Errorf("%w: meta %d/%d: %v", chain.ErrLedgerAppend, e, r, err))
			return
		}
		s.executed(e, r, block.MinedAt, included)
		s.bus.Publish(chain.Event{
			Type: chain.EventMetaBlock, At: block.MinedAt, Epoch: e, Round: r,
			Txs: len(included), Bytes: blockBytes,
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
	})
}

// finishEpoch mines the summary-block, issues (or skips) the Sync, hands
// the evolved pool to the next epoch, and schedules it.
func (s *System) finishEpoch(e uint64, lastRoundStart time.Duration) {
	nextKey := s.committees[e+1].group
	payload := s.executor.Summary(nextKey.PK.Bytes())
	metas := s.ledger.MetaBlocks(e)
	sb := sidechain.NewSummaryBlock(e, payload, metas)

	// Agreement on the summary-block.
	delay := agreementModel.AgreementTime(s.cfg.CommitteeSize, payload.SidechainBytes())
	s.sim.After(delay, func() {
		if s.err != nil {
			return
		}
		sb.MinedAt = s.sim.Now()
		s.ledger.AppendSummary(sb)
		s.checkpointed(e, sb.MinedAt)
		s.bus.Publish(chain.Event{
			Type: chain.EventSummaryBlock, At: sb.MinedAt, Epoch: e,
			Bytes: payload.SidechainBytes(), Root: payload.Digest(),
		})

		// The canonical pool advances to the epoch's final state.
		s.pool = s.executor.Pool

		lastEpoch := int(e) >= s.epochsPlanned && len(s.queue) == 0 && s.ingest.CloseIfEmpty()
		skip := (s.cfg.Faults.SkipSyncEpochs[e] || s.cfg.Faults.ReorgSyncEpochs[e]) && !lastEpoch
		if skip {
			// Sync lost (silent leader at epoch end, or mainchain
			// rollback): stash the payload for the next committee's
			// mass-sync.
			s.pendingPayload = append(s.pendingPayload, payload)
		} else {
			s.submitSync(e, append(append([]*summary.SyncPayload{}, s.pendingPayload...), payload))
			s.pendingPayload = nil
		}

		// Next epoch, or wait for the final sync to confirm and stop.
		if lastEpoch {
			s.done = true
			return
		}
		next := lastRoundStart + s.cfg.RoundDuration
		if next < s.sim.Now() {
			next = s.sim.Now()
		}
		s.sim.At(next, func() { s.startEpoch(e + 1) })
	})
}

// submitSync issues the TSQC-authenticated Sync call. For a mass-sync the
// signing committee is the earliest epoch in payloads (the one whose key
// TokenBank has registered); see DESIGN.md on the recovery key chain.
func (s *System) submitSync(e uint64, payloads []*summary.SyncPayload) {
	signEpoch := payloads[0].Epoch
	ck := s.committees[signEpoch]
	digest := combinedDigest(payloads)
	if s.cfg.Faults.CorruptSyncEpochs[e] {
		// Equivocating committee: the signature covers a corrupted digest,
		// so the bank's TSQC verification rejects the Sync on-chain.
		digest[0] ^= 0xff
	}
	sig, err := ck.signer.signDigest(digest)
	if err != nil {
		s.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrSignFailed, e, err))
		return
	}
	if len(payloads) > 1 {
		s.MassSyncs++
	}
	size := 0
	for _, p := range payloads {
		size += p.MainchainBytes()
	}
	nextKey := s.committees[signEpoch+uint64(len(payloads))].group
	submitted := s.sim.Now()
	tx := &mainchain.Tx{
		ID: fmt.Sprintf("sync-e%d", e), From: "sc-committee", To: mainchain.BankAddress,
		Method: "sync", Size: size,
		Args: &mainchain.SyncArgs{Epoch: signEpoch, Payloads: payloads, Sig: sig, NextKey: nextKey},
	}
	epochs := make([]uint64, len(payloads))
	for i, p := range payloads {
		epochs[i] = p.Epoch
	}
	s.bus.Publish(chain.Event{
		Type: chain.EventSyncSubmitted, At: submitted, Epoch: e,
		Parts: len(payloads), Bytes: size,
	})
	tx.OnConfirmed = func(tx *mainchain.Tx) {
		if tx.Status != mainchain.TxConfirmed {
			s.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrSyncReverted, e, tx.Err))
			return
		}
		s.SyncsOK++
		s.col.ObserveGas("sync", tx.GasUsed)
		s.col.ObserveMCLatency("sync", tx.ConfirmedAt-submitted)
		// Receipts advance before the event publishes: a subscriber that
		// observes EventSyncConfirmed may immediately read the epoch's
		// receipts as StatusSynced (the documented visibility contract).
		for _, pe := range epochs {
			s.synced(pe, tx.ConfirmedAt)
		}
		s.bus.Publish(chain.Event{
			Type: chain.EventSyncConfirmed, At: tx.ConfirmedAt, Epoch: e,
			Parts: len(payloads), Bytes: size, Gas: tx.GasUsed,
		})
		for _, pe := range epochs {
			// Pruning: the sync is confirmed, the meta-blocks go.
			if err := s.ledger.Prune(pe, true); err != nil && !errors.Is(err, sidechain.ErrAlreadyPruned) {
				s.fail(fmt.Errorf("%w: epoch %d: %v", chain.ErrPruneFailed, pe, err))
				return
			}
			s.pruned(pe, s.sim.Now())
			// The epoch's committee key material (hundreds of shares) is
			// spent once its sync confirmed and its blocks pruned.
			delete(s.committees, pe)
			s.bus.Publish(chain.Event{Type: chain.EventPruned, At: s.sim.Now(), Epoch: pe})
		}
		// The run ends once the final epoch's sync has landed.
		if s.done && len(s.recsByEpoch) == 0 {
			s.mc.Stop()
		}
	}
	s.mc.Submit(tx)
}

// Validate checks the cross-layer invariants after a run:
//  1. TokenBank's stored pool reserves equal the canonical pool's.
//  2. Every live pool position is mirrored in TokenBank (and vice versa,
//     modulo positions never synced because they never changed).
//  3. Token conservation: the bank's ERC20 balances cover pool reserves
//     plus unsynced deposits.
func (s *System) Validate() error {
	if !s.bank.PoolReserve0.Eq(s.pool.Reserve0) || !s.bank.PoolReserve1.Eq(s.pool.Reserve1) {
		return fmt.Errorf("%w: bank reserves %s/%s, pool %s/%s", ErrParity,
			s.bank.PoolReserve0, s.bank.PoolReserve1, s.pool.Reserve0, s.pool.Reserve1)
	}
	for _, pos := range s.pool.Positions() {
		entry, ok := s.bank.Positions[pos.ID]
		if !ok {
			return fmt.Errorf("%w: pool position %s missing from TokenBank", ErrParity, pos.ID)
		}
		if !entry.Liquidity.Eq(pos.Liquidity) {
			return fmt.Errorf("%w: position %s liquidity bank=%s pool=%s", ErrParity,
				pos.ID, entry.Liquidity, pos.Liquidity)
		}
	}
	for id := range s.bank.Positions {
		if s.pool.Position(id) == nil {
			return fmt.Errorf("%w: TokenBank position %s not in pool", ErrParity, id)
		}
	}
	bank0 := s.token0.Ledger.BalanceOf(mainchain.BankAddress)
	bank1 := s.token1.Ledger.BalanceOf(mainchain.BankAddress)
	if bank0.Lt(s.bank.PoolReserve0) || bank1.Lt(s.bank.PoolReserve1) {
		return fmt.Errorf("%w: bank holds %s/%s < pool reserves %s/%s", ErrParity,
			bank0, bank1, s.bank.PoolReserve0, s.bank.PoolReserve1)
	}
	return nil
}

func (s *System) report() *chain.Report {
	ist := s.ingest.Stats()
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
		NumPools:               1,
		NumShards:              1,
		SyncsOK:                s.SyncsOK,
		MassSyncs:              s.MassSyncs,
		ViewChanges:            s.ViewChanges,
		Rejected:               s.Rejected,
		QueuePeak:              s.queuePeak,
		IngestAdmitted:         ist.Admitted,
		IngestRejFull:          ist.RejFull,
		IngestThrottled:        ist.Throttled,
		IngestCanceled:         ist.Canceled,
		IngestPeak:             ist.Peak,
		PositionsLive:          s.pool.NumPositions(),
	}
}
