// Package pbft implements the sidechain's leader-based PBFT consensus in
// the collective-signing (CoSi) style the paper adopts: the leader proposes
// a block, collects threshold-signature shares over two phases (prepare,
// commit), and broadcasts the resulting quorum certificates. A committee of
// n = 3f+2 members tolerates f Byzantine members with a 2f+2 quorum.
//
// Two fidelities are provided:
//
//   - Replica: the full message-level state machine (propose / prepare /
//     commit / decide, plus view change on invalid or silent leaders),
//     exercised with real threshold crypto by the functional tests and the
//     failover example.
//   - Model: the analytic agreement-time cost model calibrated to the
//     paper's Table XII, used by the experiment harness to advance the
//     virtual clock for 500–1000-member committees without paying the
//     wall-clock cost of hundreds of thousands of signature operations.
package pbft

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/netsim"
	"ammboost/internal/sim"
)

// Protocol errors.
var (
	ErrNotLeader = errors.New("pbft: replica is not the current leader")
	ErrBadQuorum = errors.New("pbft: committee size must be 3f+2")
)

// Quorum returns (n, threshold) for a fault budget f: n = 3f+2 members,
// 2f+2 votes to decide.
func Quorum(f int) (n, threshold int) { return 3*f + 2, 2*f + 2 }

// FaultBudget returns the f tolerated by a committee of size n (largest f
// with 3f+2 <= n).
func FaultBudget(n int) int {
	if n < 2 {
		return 0
	}
	return (n - 2) / 3
}

// Message kinds.
type msgKind int

const (
	msgPropose msgKind = iota + 1
	msgPrepareShare
	msgPrepareCert
	msgCommitShare
	msgDecide
	msgViewChange
)

// Msg is the wire message exchanged by replicas.
type Msg struct {
	Kind    msgKind
	View    int
	Seq     uint64
	Digest  [32]byte
	Payload any // proposal payload (propose only)
	Size    int // modeled wire size
	Share   tsig.PartialSig
	Cert    tsig.Point
}

// Decision is a finalized consensus instance.
type Decision struct {
	Seq        uint64
	View       int
	Digest     [32]byte
	Payload    any
	CommitCert tsig.Point
	DecidedAt  time.Duration
}

// Config wires a replica into its committee.
type Config struct {
	ID        string
	Index     int      // position in the committee (0 = first leader)
	Members   []string // committee member IDs in leader-rotation order
	F         int      // fault budget; committee size must be 3f+2
	Share     tsig.Share
	Group     tsig.GroupKey
	PubShares []tsig.Point // members' public share commitments, by index

	// Validate vets a proposed payload; rejecting triggers a view change.
	Validate func(payload any) bool
	// Digest recomputes the digest a payload should commit to. When set,
	// a proposal whose Digest field does not match is treated as a
	// Byzantine leader (corrupt or equivocating digest) and triggers an
	// immediate view change. ok=false means the payload's digest cannot
	// be recomputed and the check is skipped.
	Digest func(payload any) (digest [32]byte, ok bool)
	// OnDecide delivers a finalized block.
	OnDecide func(d Decision)
	// OnBecomeLeader fires when a view change makes this replica leader;
	// the driver should re-propose the pending block.
	OnBecomeLeader func(view int)

	// Timeout is the view-change timeout armed by ExpectDecision. The
	// timer re-arms while the sequence is undecided, so a committee cut
	// off by a partition keeps re-broadcasting view-change votes and
	// re-achieves quorum once the partition heals.
	Timeout time.Duration

	// Behavior injects an adversarial strategy (zero value = honest).
	Behavior Byzantine
}

// Replica is one committee member's consensus state machine.
type Replica struct {
	cfg Config
	sim *sim.Simulator
	net *netsim.Network

	view    int
	decided map[uint64]bool

	// Leader state for the in-flight sequence.
	proposal      any
	proposalSeq   uint64
	proposalDig   [32]byte
	prepareShares map[int]tsig.PartialSig
	commitShares  map[int]tsig.PartialSig
	prepareDone   bool

	// Follower bookkeeping.
	viewChangeVotes map[int]map[int]bool // view -> voter index set
	expectTimers    map[uint64]*sim.Timer
	stopped         bool

	// Stats.
	MsgsHandled int
}

// NewReplica registers a replica on the network.
func NewReplica(s *sim.Simulator, net *netsim.Network, cfg Config) (*Replica, error) {
	wantN, _ := Quorum(cfg.F)
	if len(cfg.Members) != wantN {
		return nil, fmt.Errorf("%w: %d members for f=%d (want %d)", ErrBadQuorum, len(cfg.Members), cfg.F, wantN)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Second
	}
	r := &Replica{
		cfg:             cfg,
		sim:             s,
		net:             net,
		decided:         make(map[uint64]bool),
		prepareShares:   make(map[int]tsig.PartialSig),
		commitShares:    make(map[int]tsig.PartialSig),
		viewChangeVotes: make(map[int]map[int]bool),
		expectTimers:    make(map[uint64]*sim.Timer),
	}
	net.Register(cfg.ID, func(from string, payload any) {
		if m, ok := payload.(*Msg); ok {
			r.handle(from, m)
		}
	})
	return r, nil
}

// View returns the replica's current view.
func (r *Replica) View() int { return r.view }

// SetOnBecomeLeader replaces the leadership-promotion callback (drivers
// wire it after constructing the committee).
func (r *Replica) SetOnBecomeLeader(fn func(view int)) { r.cfg.OnBecomeLeader = fn }

// Group returns the committee group key the replica checks certificates
// against.
func (r *Replica) Group() tsig.GroupKey { return r.cfg.Group }

// Behavior returns the replica's injected adversarial strategy.
func (r *Replica) Behavior() Byzantine { return r.cfg.Behavior }

// Stop retires the replica: pending view-change timers are cancelled and
// incoming messages are ignored. Drivers call it at epoch end (or on a
// consensus-stall halt) so re-arming timers cannot keep the simulator
// alive forever.
func (r *Replica) Stop() {
	r.stopped = true
	for seq, t := range r.expectTimers {
		t.Cancel()
		delete(r.expectTimers, seq)
	}
}

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool {
	return r.cfg.Members[r.view%len(r.cfg.Members)] == r.cfg.ID
}

// LeaderID returns the current view's leader.
func (r *Replica) LeaderID() string {
	return r.cfg.Members[r.view%len(r.cfg.Members)]
}

func digestDomain(phase string, view int, seq uint64, digest [32]byte) []byte {
	out := make([]byte, 0, len(phase)+12+32)
	out = append(out, phase...)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(view))
	out = append(out, buf[:4]...)
	binary.BigEndian.PutUint64(buf[:], seq)
	out = append(out, buf[:8]...)
	out = append(out, digest[:]...)
	return out
}

// Propose starts agreement on payload at seq. Only the current leader may
// call it; the digest commits to the payload content. A Byzantine leader
// executes its injected strategy instead of the honest broadcast.
func (r *Replica) Propose(seq uint64, payload any, digest [32]byte, size int) error {
	if !r.IsLeader() {
		return ErrNotLeader
	}
	if r.stopped {
		return nil
	}
	switch r.cfg.Behavior {
	case Silent:
		// Leader stays mute; followers' timers force a view change.
		return nil
	case CorruptDigest:
		digest[0] ^= 0xff
	case Equivocate:
		r.equivocate(seq, payload, digest, size)
		return nil
	case DelayedEquivocate:
		// Burn half the view-change window in silence first, then run the
		// doomed split-digest round; the committee's timers still fire on
		// schedule, so the view change lands at the same deterministic
		// instant — but the replicas spend the wait processing a round
		// that can never gather a quorum.
		view := r.view
		r.sim.After(r.cfg.Timeout/2, func() {
			if r.stopped || r.decided[seq] || r.view != view {
				return
			}
			r.equivocate(seq, payload, digest, size)
		})
		return nil
	}
	r.proposal = payload
	r.proposalSeq = seq
	r.proposalDig = digest
	r.prepareShares = make(map[int]tsig.PartialSig)
	r.commitShares = make(map[int]tsig.PartialSig)
	r.prepareDone = false
	m := &Msg{Kind: msgPropose, View: r.view, Seq: seq, Digest: digest, Payload: payload, Size: size}
	r.net.Broadcast(r.cfg.ID, size, m)
	// Process own proposal locally (leader's prepare share).
	r.handle(r.cfg.ID, m)
	return nil
}

// equivocate sends one digest to half the committee and a conflicting
// digest to the other half; neither can gather a 2f+2 prepare quorum, so
// the round stalls into a view change. Shared by the Equivocate and
// DelayedEquivocate leader strategies.
func (r *Replica) equivocate(seq uint64, payload any, digest [32]byte, size int) {
	r.proposal = payload
	r.proposalSeq = seq
	r.proposalDig = digest
	r.prepareShares = make(map[int]tsig.PartialSig)
	r.commitShares = make(map[int]tsig.PartialSig)
	r.prepareDone = false
	flipped := digest
	flipped[0] ^= 0xff
	for i, id := range r.cfg.Members {
		if id == r.cfg.ID {
			continue
		}
		d := digest
		if i >= len(r.cfg.Members)/2 {
			d = flipped
		}
		m := &Msg{Kind: msgPropose, View: r.view, Seq: seq, Digest: d, Payload: payload, Size: size}
		r.net.Send(r.cfg.ID, id, size, m)
	}
	r.handle(r.cfg.ID, &Msg{Kind: msgPropose, View: r.view, Seq: seq, Digest: digest, Payload: payload, Size: size})
}

// ExpectDecision arms the view-change timeout for seq: if no decision
// arrives within the configured timeout, the replica votes to change view
// and re-arms, so it keeps demanding progress (and keeps re-broadcasting
// its vote, which is what lets a healed partition regain quorum from
// votes that were dropped mid-split). The driver calls this on every
// replica when a round begins and bounds the retries with its own
// watchdog plus Stop.
func (r *Replica) ExpectDecision(seq uint64) {
	if r.decided[seq] || r.stopped {
		return
	}
	if t := r.expectTimers[seq]; t != nil {
		t.Cancel()
	}
	r.expectTimers[seq] = r.sim.After(r.cfg.Timeout, func() {
		if r.decided[seq] || r.stopped {
			return
		}
		r.voteViewChange(r.view + 1)
		r.ExpectDecision(seq)
	})
}

func (r *Replica) voteViewChange(newView int) {
	if newView <= r.view {
		return
	}
	m := &Msg{Kind: msgViewChange, View: newView, Size: 96}
	r.net.Broadcast(r.cfg.ID, m.Size, m)
	r.recordViewChange(r.cfg.Index, newView)
}

func (r *Replica) recordViewChange(voter, newView int) {
	if newView <= r.view {
		return
	}
	votes := r.viewChangeVotes[newView]
	if votes == nil {
		votes = make(map[int]bool)
		r.viewChangeVotes[newView] = votes
	}
	votes[voter] = true
	_, threshold := Quorum(r.cfg.F)
	if len(votes) >= threshold {
		r.view = newView
		delete(r.viewChangeVotes, newView)
		if r.IsLeader() && r.cfg.OnBecomeLeader != nil {
			r.cfg.OnBecomeLeader(newView)
		}
	}
}

func (r *Replica) handle(from string, m *Msg) {
	if r.stopped {
		return
	}
	r.MsgsHandled++
	switch m.Kind {
	case msgPropose:
		r.onPropose(from, m)
	case msgPrepareShare:
		r.onPrepareShare(m)
	case msgPrepareCert:
		r.onPrepareCert(from, m)
	case msgCommitShare:
		r.onCommitShare(m)
	case msgDecide:
		r.onDecide(from, m)
	case msgViewChange:
		idx := r.indexOf(from)
		if idx >= 0 {
			r.recordViewChange(idx, m.View)
		}
	}
}

func (r *Replica) indexOf(id string) int {
	for i, m := range r.cfg.Members {
		if m == id {
			return i
		}
	}
	return -1
}

func (r *Replica) onPropose(from string, m *Msg) {
	if m.View != r.view || r.decided[m.Seq] {
		return
	}
	if from != r.LeaderID() {
		return // only the view's leader may propose
	}
	if r.cfg.Validate != nil && !r.cfg.Validate(m.Payload) {
		// Invalid proposal: demand a new leader immediately.
		r.voteViewChange(r.view + 1)
		return
	}
	if r.cfg.Digest != nil {
		if want, ok := r.cfg.Digest(m.Payload); ok && want != m.Digest {
			// The digest does not commit to the payload: a corrupt or
			// equivocating leader. Refuse to sign and demand a new one.
			r.voteViewChange(r.view + 1)
			return
		}
	}
	if t := r.expectTimers[m.Seq]; t == nil {
		r.ExpectDecision(m.Seq)
	}
	share := tsig.PartialSign(r.cfg.Share, digestDomain("prep", m.View, m.Seq, m.Digest))
	reply := &Msg{Kind: msgPrepareShare, View: m.View, Seq: m.Seq, Digest: m.Digest, Share: share, Size: 160}
	if from == r.cfg.ID {
		r.onPrepareShare(reply)
		return
	}
	r.net.Send(r.cfg.ID, from, reply.Size, reply)
}

func (r *Replica) onPrepareShare(m *Msg) {
	if !r.IsLeader() || m.View != r.view || m.Seq != r.proposalSeq || r.prepareDone {
		return
	}
	if m.Digest != r.proposalDig {
		return
	}
	// Verify the share against the member's public commitment before
	// counting it (Byzantine members cannot poison the aggregate).
	if len(r.cfg.PubShares) > m.Share.Index-1 && m.Share.Index >= 1 {
		pk := r.cfg.PubShares[m.Share.Index-1]
		if err := tsig.VerifyPartial(pk, digestDomain("prep", m.View, m.Seq, m.Digest), m.Share); err != nil {
			return
		}
	}
	r.prepareShares[m.Share.Index] = m.Share
	_, threshold := Quorum(r.cfg.F)
	if len(r.prepareShares) < threshold {
		return
	}
	r.prepareDone = true
	shares := make([]tsig.PartialSig, 0, threshold)
	for _, s := range r.prepareShares {
		shares = append(shares, s)
		if len(shares) == threshold {
			break
		}
	}
	cert, err := tsig.Combine(r.cfg.Group, shares)
	if err != nil {
		return
	}
	cm := &Msg{Kind: msgPrepareCert, View: m.View, Seq: m.Seq, Digest: m.Digest, Cert: cert, Size: 128}
	r.net.Broadcast(r.cfg.ID, cm.Size, cm)
	r.onPrepareCert(r.cfg.ID, cm)
}

func (r *Replica) onPrepareCert(from string, m *Msg) {
	if m.View != r.view || r.decided[m.Seq] {
		return
	}
	if err := tsig.Verify(r.cfg.Group, digestDomain("prep", m.View, m.Seq, m.Digest), m.Cert); err != nil {
		return
	}
	if r.cfg.Behavior == VoteStall {
		return // prepared, then withholds its commit share
	}
	share := tsig.PartialSign(r.cfg.Share, digestDomain("com", m.View, m.Seq, m.Digest))
	reply := &Msg{Kind: msgCommitShare, View: m.View, Seq: m.Seq, Digest: m.Digest, Share: share, Size: 160}
	leader := r.LeaderID()
	if leader == r.cfg.ID {
		r.onCommitShare(reply)
		return
	}
	r.net.Send(r.cfg.ID, leader, reply.Size, reply)
}

func (r *Replica) onCommitShare(m *Msg) {
	if !r.IsLeader() || m.View != r.view || m.Seq != r.proposalSeq || r.decided[m.Seq] {
		return
	}
	if m.Digest != r.proposalDig {
		return
	}
	if len(r.cfg.PubShares) > m.Share.Index-1 && m.Share.Index >= 1 {
		pk := r.cfg.PubShares[m.Share.Index-1]
		if err := tsig.VerifyPartial(pk, digestDomain("com", m.View, m.Seq, m.Digest), m.Share); err != nil {
			return
		}
	}
	r.commitShares[m.Share.Index] = m.Share
	_, threshold := Quorum(r.cfg.F)
	if len(r.commitShares) < threshold {
		return
	}
	shares := make([]tsig.PartialSig, 0, threshold)
	for _, s := range r.commitShares {
		shares = append(shares, s)
		if len(shares) == threshold {
			break
		}
	}
	cert, err := tsig.Combine(r.cfg.Group, shares)
	if err != nil {
		return
	}
	dm := &Msg{Kind: msgDecide, View: m.View, Seq: m.Seq, Digest: m.Digest, Cert: cert,
		Payload: r.proposal, Size: 128}
	r.net.Broadcast(r.cfg.ID, dm.Size, dm)
	r.onDecide(r.cfg.ID, dm)
}

func (r *Replica) onDecide(from string, m *Msg) {
	if r.decided[m.Seq] {
		return
	}
	if err := tsig.Verify(r.cfg.Group, digestDomain("com", m.View, m.Seq, m.Digest), m.Cert); err != nil {
		return
	}
	r.decided[m.Seq] = true
	if t := r.expectTimers[m.Seq]; t != nil {
		t.Cancel()
		delete(r.expectTimers, m.Seq)
	}
	d := Decision{Seq: m.Seq, View: m.View, Digest: m.Digest, Payload: m.Payload,
		CommitCert: m.Cert, DecidedAt: r.sim.Now()}
	if r.cfg.OnDecide != nil {
		r.cfg.OnDecide(d)
	}
}

// DigestOf hashes an arbitrary byte payload for proposals.
func DigestOf(b []byte) [32]byte { return sha256.Sum256(b) }
