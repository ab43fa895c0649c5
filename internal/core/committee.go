package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/sidechain/election"
	"ammboost/internal/sidechain/pbft"
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
// sync signature is produced: every epoch's parts are signed through
// signDigest.
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

// signDigest produces the committee's TSQC signature over a digest (an
// epoch's sync digest, mainchain.BindSyncParts). Safe for concurrent use.
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
// deals its TSQC key material. The dealing randomness derives from
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
	// The dealer publishes only the group key: nobody verifies its shares
	// against Feldman commitments, so it computes none of the others.
	pk, shares, err := tsig.DealKey(committeeRNG(chainSeed, epoch), threshold, size)
	if err != nil {
		return nil, err
	}
	group := tsig.GroupKey{PK: pk, Threshold: threshold, N: size}
	return &committeeKeys{committee: com, group: group, signer: newSyncSigner(group, shares)}, nil
}

// newMinerRegistry registers the sidechain miner population with fast
// sortition keys; every committee is elected from it.
func newMinerRegistry(population int) *election.Registry {
	reg := election.NewRegistry()
	for i := 0; i < population; i++ {
		id := fmt.Sprintf("sc-miner-%04d", i)
		reg.Add(&election.Miner{ID: id, Stake: 1, VRF: election.NewFastVRF([]byte(id))})
	}
	return reg
}
