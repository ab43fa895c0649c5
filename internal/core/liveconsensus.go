package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"ammboost/internal/chain"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/sim"
)

// liveFaultBudget is f for the live committee: 3f+2 = 5 replicas carry
// the message-level protocol, the core whose decisions the full
// CommitteeSize (key provisioning, round cadence) follows; a small core
// keeps wall-clock cost bounded.
const liveFaultBudget = 1

// liveConsensus routes MultiSystem committee rounds through real PBFT
// replicas over the (optionally faulted) simulated network instead of the
// analytic cost model — chain.FidelityLive. A core of 3f+2 replicas with
// stable network IDs ("rep-0" … "rep-{3f+1}", the names FaultSchedule
// windows target) carries the message-level protocol; it is re-keyed each
// epoch by a joint DKG seeded from (run seed, epoch) — deliberately NOT
// from the system's main rng, whose draw sequence feeds the big-committee
// election and TSQC dealing. Consuming it here would shift every
// downstream group key and payload digest, silently breaking the
// model/live equivalence pin (invariant 11). Sync signing stays on the
// big committee's keys, so live and model epochs produce bit-identical
// sync payloads and summary roots when no faults are injected.
type liveConsensus struct {
	sys *MultiSystem
	net *netsim.Network

	ids      []string
	replicas []*pbft.Replica
	epoch    uint64

	// round is the in-flight agreement (one at a time: live fidelity runs
	// a pipeline window of one).
	round *liveRound
	// afterSummary, when set, runs once the in-flight epoch's summary
	// round has decided and its sync is submitted: the epoch boundary.
	afterSummary func()
}

// liveRound is one in-flight agreement instance.
type liveRound struct {
	seq       uint64
	startView int
	// mute silences the first mute leaders (view-change storms and the
	// FaultPlan's silent-leader rounds): promotion k proposes only once
	// k >= mute.
	mute       int
	promotions int
	payload    any
	digest     [32]byte
	size       int
	done       bool
	watchdog   *sim.Timer
	onDone     func(viewChanges int)
}

// summaryProposal is the epoch-end agreement payload: the folded
// multi-pool summary root the committee checkpoints and signs.
type summaryProposal struct {
	Epoch uint64
	Root  [32]byte
}

// digest commits to the proposal content (epoch-domain-separated).
func (p *summaryProposal) digest() [32]byte {
	var buf [40]byte
	binary.BigEndian.PutUint64(buf[:8], p.Epoch)
	copy(buf[8:], p.Root[:])
	return pbft.DigestOf(buf[:])
}

// liveValidate vets proposal payload types.
func liveValidate(p any) bool {
	switch p.(type) {
	case *sidechain.MetaBlock, *summaryProposal:
		return true
	}
	return false
}

// liveDigest recomputes the digest a payload must commit to, closing the
// corrupt-digest and equivocation attacks: a proposal whose digest field
// disagrees triggers an immediate view change.
func liveDigest(p any) ([32]byte, bool) {
	switch v := p.(type) {
	case *sidechain.MetaBlock:
		return v.Hash(), true
	case *summaryProposal:
		return v.digest(), true
	}
	return [32]byte{}, false
}

// newLiveConsensus builds the live fabric and installs the configured
// fault schedule (windows are scheduled at absolute sim times; the
// constructor runs at time zero).
func newLiveConsensus(sys *MultiSystem) *liveConsensus {
	n, _ := pbft.Quorum(liveFaultBudget)
	lv := &liveConsensus{
		sys: sys,
		net: netsim.New(sys.sim, netsim.DefaultConfig()),
	}
	lv.ids = make([]string, n)
	for i := range lv.ids {
		lv.ids[i] = fmt.Sprintf("rep-%d", i)
	}
	if sys.cfg.NetFaults != nil {
		lv.net.Install(sys.cfg.NetFaults)
	}
	return lv
}

// beginEpoch re-keys the committee: the previous epoch's replicas are
// stopped (their view-change timers cancelled), a fresh DKG runs from the
// epoch-derived seed, and new replicas — with the FaultPlan's byzantine
// behaviors attached by index — replace the old handlers under the same
// stable network IDs.
func (lv *liveConsensus) beginEpoch(e uint64) error {
	lv.stopReplicas()
	lv.epoch = e
	dkgRng := rand.New(rand.NewSource(lv.sys.cfg.Seed ^ int64(e*0x9E3779B97F4A7C15)))
	n, threshold := pbft.Quorum(liveFaultBudget)
	members, err := tsig.RunDKG(dkgRng, threshold, n)
	if err != nil {
		return err
	}
	pubs := make([]tsig.Point, n)
	for i := range pubs {
		pubs[i] = tsig.PublicShare(members[i].Share)
	}
	lv.replicas = lv.replicas[:0]
	for i := 0; i < n; i++ {
		cfg := pbft.Config{
			ID: lv.ids[i], Index: i, Members: lv.ids, F: liveFaultBudget,
			Share: members[i].Share, Group: members[i].Group, PubShares: pubs,
			Timeout:  viewChangeTimeout,
			Validate: liveValidate,
			Digest:   liveDigest,
			Behavior: lv.sys.cfg.Faults.ByzantineReplicas[i],
			OnDecide: func(d pbft.Decision) { lv.decided(d) },
		}
		r, err := pbft.NewReplica(lv.sys.sim, lv.net, cfg)
		if err != nil {
			return err
		}
		r.SetOnBecomeLeader(func(view int) { lv.promoted(r) })
		lv.replicas = append(lv.replicas, r)
	}
	return nil
}

// leaderReplica returns the replica leading the current view.
func (lv *liveConsensus) leaderReplica() *pbft.Replica {
	for _, r := range lv.replicas {
		if r.IsLeader() {
			return r
		}
	}
	return lv.replicas[0]
}

// runRound drives one agreement: every replica arms its view-change
// timer, the current leader proposes (unless muted by a scheduled storm),
// and onDone fires at the first decision with the number of view changes
// the round burned. A round that cannot decide within LiveRoundTimeout
// halts the node deterministically with ErrConsensusStalled.
func (lv *liveConsensus) runRound(seq uint64, payload any, digest [32]byte, size int, mute int, onDone func(viewChanges int)) {
	rd := &liveRound{
		seq: seq, startView: lv.replicas[0].View(), mute: mute,
		payload: payload, digest: digest, size: size, onDone: onDone,
	}
	lv.round = rd
	timeout := lv.sys.cfg.LiveRoundTimeout
	rd.watchdog = lv.sys.sim.After(timeout, func() {
		if rd.done {
			return
		}
		lv.sys.fail(fmt.Errorf("%w: epoch %d seq %d undecided after %s",
			chain.ErrConsensusStalled, lv.epoch, seq, timeout))
	})
	for _, r := range lv.replicas {
		r.ExpectDecision(seq)
	}
	if mute <= 0 {
		_ = lv.leaderReplica().Propose(seq, payload, digest, size)
	}
}

// promoted re-proposes the in-flight round from a newly promoted leader
// (honoring the storm's mute count; a byzantine leader's Propose executes
// its own strategy instead).
func (lv *liveConsensus) promoted(r *pbft.Replica) {
	rd := lv.round
	if rd == nil || rd.done {
		return
	}
	rd.promotions++
	if rd.promotions < rd.mute {
		return
	}
	_ = r.Propose(rd.seq, rd.payload, rd.digest, rd.size)
}

// decided handles the first decision of the in-flight round (every
// replica reports; the first delivery wins — deterministically, since the
// network walks recipients in registration order).
func (lv *liveConsensus) decided(d pbft.Decision) {
	rd := lv.round
	if rd == nil || rd.done || d.Seq != rd.seq {
		return
	}
	rd.done = true
	if rd.watchdog != nil {
		rd.watchdog.Cancel()
	}
	vc := d.View - rd.startView
	if vc < 0 {
		vc = 0
	}
	rd.onDone(vc)
}

// stopReplicas retires the current replica set so re-arming view-change
// timers cannot keep the simulator alive.
func (lv *liveConsensus) stopReplicas() {
	for _, r := range lv.replicas {
		r.Stop()
	}
}

// stopAll quiesces the layer after a halt or at epoch end: the in-flight
// watchdog is cancelled and every replica stops.
func (lv *liveConsensus) stopAll() {
	if lv.round != nil && lv.round.watchdog != nil {
		lv.round.watchdog.Cancel()
	}
	lv.stopReplicas()
}

// stats returns the live network's traffic counters.
func (lv *liveConsensus) stats() netsim.Stats { return lv.net.Stats }
