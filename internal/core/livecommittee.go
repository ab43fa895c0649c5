package core

import (
	"errors"
	"fmt"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
)

// ErrEpochIncomplete indicates the live committee could not finalize every
// round within the epoch.
var ErrEpochIncomplete = errors.New("core: live committee epoch incomplete")

// LiveCommittee runs one epoch at full message-level fidelity: a committee
// of pbft.Replica instances exchanges real propose/prepare/commit messages
// with real threshold-signature shares over the simulated network, mining
// one meta-block per round and the summary-block at epoch end, then
// producing a TSQC-signed Sync payload exactly as the big-committee cost
// model run does. The experiment harness uses the calibrated model for
// 500-member committees; this type exists so functional tests and the
// failover example can validate that the model's protocol shortcut and the
// real protocol agree on every observable output.
type LiveCommittee struct {
	F          int
	Epoch      uint64
	Rounds     int
	RoundDur   time.Duration
	BlockBytes int

	sim      *sim.Simulator
	net      *netsim.Network
	replicas []*pbft.Replica
	members  []tsig.DKGResult
	ids      []string

	executor *summary.Executor
	ledger   *sidechain.Ledger

	queue []*summary.Tx

	// Outcomes.
	Blocks      []*sidechain.MetaBlock
	Summary     *sidechain.SummaryBlock
	SyncSig     tsig.Point
	GroupKey    tsig.GroupKey
	ViewChanges int
}

// LiveCommitteeConfig parameterizes a live epoch run.
type LiveCommitteeConfig struct {
	F          int // fault budget: committee size is 3f+2
	Epoch      uint64
	Rounds     int
	RoundDur   time.Duration
	BlockBytes int
	// SilentLeaderRound, when nonzero, makes the view-0 leader skip that
	// round's proposal so the committee must change view.
	SilentLeaderRound uint64
}

// NewLiveCommittee builds the committee over an existing executor (epoch
// snapshot) with a joint DKG and registers the replicas on the network.
func NewLiveCommittee(s *sim.Simulator, net *netsim.Network, dkgRand interface{ Read([]byte) (int, error) },
	cfg LiveCommitteeConfig, exec *summary.Executor, ledger *sidechain.Ledger) (*LiveCommittee, error) {
	n, threshold := pbft.Quorum(cfg.F)
	members, err := tsig.RunDKG(dkgRand, threshold, n)
	if err != nil {
		return nil, err
	}
	lc := &LiveCommittee{
		F:          cfg.F,
		Epoch:      cfg.Epoch,
		Rounds:     cfg.Rounds,
		RoundDur:   cfg.RoundDur,
		BlockBytes: cfg.BlockBytes,
		sim:        s,
		net:        net,
		members:    members,
		executor:   exec,
		ledger:     ledger,
		GroupKey:   members[0].Group,
	}
	lc.ids = make([]string, n)
	pubs := make([]tsig.Point, n)
	for i := 0; i < n; i++ {
		lc.ids[i] = fmt.Sprintf("live-%d-m%d", cfg.Epoch, i)
		pubs[i] = tsig.PublicShare(members[i].Share)
	}
	for i := 0; i < n; i++ {
		rcfg := pbft.Config{
			ID: lc.ids[i], Index: i, Members: lc.ids, F: cfg.F,
			Share: members[i].Share, Group: members[i].Group, PubShares: pubs,
			Timeout: cfg.RoundDur / 2,
			Validate: func(payload any) bool {
				_, ok := payload.(*sidechain.MetaBlock)
				if !ok {
					_, ok = payload.(*sidechain.SummaryBlock)
				}
				return ok
			},
		}
		r, err := pbft.NewReplica(s, net, rcfg)
		if err != nil {
			return nil, err
		}
		lc.replicas = append(lc.replicas, r)
	}
	return lc, nil
}

// SubmitTx queues a transaction for the epoch.
func (lc *LiveCommittee) SubmitTx(tx *summary.Tx) {
	tx.SubmittedAt = lc.sim.Now()
	lc.queue = append(lc.queue, tx)
}

// Run executes the epoch synchronously on the simulator and returns once
// the summary block is decided and the sync payload signed. The caller
// drives the simulator; Run schedules everything from virtual time zero of
// the epoch.
func (lc *LiveCommittee) Run(cfg LiveCommitteeConfig) error {
	for r := uint64(1); r <= uint64(lc.Rounds); r++ {
		if err := lc.runRound(r, cfg.SilentLeaderRound == r); err != nil {
			return err
		}
	}
	return lc.finish()
}

// leaderReplica returns the replica currently leading.
func (lc *LiveCommittee) leaderReplica() *pbft.Replica {
	for _, r := range lc.replicas {
		if r.IsLeader() {
			return r
		}
	}
	return lc.replicas[0]
}

func (lc *LiveCommittee) runRound(round uint64, silentLeader bool) error {
	// Pack the round's block from pending transactions.
	var included []*summary.Tx
	size := 0
	consumed := 0
	for _, tx := range lc.queue {
		if size+tx.Size() > lc.BlockBytes {
			break
		}
		consumed++
		if err := lc.executor.Apply(tx, round); err != nil {
			continue
		}
		included = append(included, tx)
		size += tx.Size()
	}
	lc.queue = lc.queue[consumed:]

	block := sidechain.NewMetaBlock(lc.Epoch, round, "", lc.ledger.TipHash(), included)
	digest := block.Hash()

	decided := false
	for _, r := range lc.replicas {
		r := r
		r.ExpectDecision(round)
	}
	// The (possibly promoted) leader proposes; a silent leader forces the
	// committee through a real view change first.
	startView := lc.replicas[0].View()
	propose := func(rep *pbft.Replica) {
		block.Proposer = rep.LeaderID()
		_ = rep.Propose(round, block, digest, block.SizeBytes)
	}
	if !silentLeader {
		propose(lc.leaderReplica())
	} else {
		for _, r := range lc.replicas {
			r := r
			r.SetOnBecomeLeader(func(view int) {
				propose(r)
				r.SetOnBecomeLeader(nil)
			})
		}
	}
	// Drive the simulator until the round decides (bounded by 10 round
	// durations to fail loudly instead of spinning).
	deadline := lc.sim.Now() + 10*lc.RoundDur
	for lc.sim.Now() < deadline {
		if d, ok := lc.replicas[0].Decided(round); ok {
			decided = true
			block.MinedAt = d.DecidedAt
			block.CommitVotes = 2*lc.F + 2
			break
		}
		if !lc.stepOnce() {
			break
		}
	}
	if !decided {
		return fmt.Errorf("%w: round %d", ErrEpochIncomplete, round)
	}
	if lc.replicas[0].View() != startView {
		lc.ViewChanges++
	}
	if err := lc.ledger.AppendMeta(block); err != nil {
		return err
	}
	lc.Blocks = append(lc.Blocks, block)
	return nil
}

// stepOnce advances the simulator by one event.
func (lc *LiveCommittee) stepOnce() bool {
	return lc.sim.Step()
}

// finish agrees on the summary-block and produces the TSQC sync signature
// from real partial signatures of a quorum.
func (lc *LiveCommittee) finish() error {
	payload := lc.executor.Summary(lc.GroupKey.PK.Bytes())
	sb := sidechain.NewSummaryBlock(lc.Epoch, payload, lc.ledger.MetaBlocks(lc.Epoch))
	seq := uint64(lc.Rounds) + 1
	digest := payload.Digest()
	for _, r := range lc.replicas {
		r.ExpectDecision(seq)
	}
	if err := lc.leaderReplica().Propose(seq, sb, digest, sb.SizeBytes); err != nil {
		return err
	}
	deadline := lc.sim.Now() + 10*lc.RoundDur
	for lc.sim.Now() < deadline {
		if d, ok := lc.replicas[0].Decided(seq); ok {
			sb.MinedAt = d.DecidedAt
			break
		}
		if !lc.stepOnce() {
			break
		}
	}
	if _, ok := lc.replicas[0].Decided(seq); !ok {
		return fmt.Errorf("%w: summary block", ErrEpochIncomplete)
	}
	lc.ledger.AppendSummary(sb)
	lc.Summary = sb

	// TSQC over the sync payload: a quorum of members signs for real.
	shares := make([]tsig.Share, len(lc.members))
	for i, m := range lc.members {
		shares[i] = m.Share
	}
	sig, err := newSyncSigner(lc.GroupKey, shares).signDigest(digest)
	if err != nil {
		return err
	}
	lc.SyncSig = sig
	return nil
}

// Payload returns the epoch's sync payload (after Run).
func (lc *LiveCommittee) Payload() *summary.SyncPayload {
	if lc.Summary == nil {
		return nil
	}
	return lc.Summary.Payload
}
