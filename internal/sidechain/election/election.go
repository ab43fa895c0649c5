// Package election implements per-epoch committee election by cryptographic
// sortition: every registered miner evaluates a VRF over the epoch seed,
// and the committee is the set with the smallest outputs (ranked
// sortition), the leader being the overall minimum. Election proofs are the
// VRF proofs, so anyone holding a miner's public VRF key can check its
// ticket (VRF.Verify).
package election

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Election errors.
var (
	ErrTooFewMiners = errors.New("election: committee size exceeds miner population")
)

// VRF abstracts the verifiable random function used for sortition. The
// production implementation is crypto/vrf (RSA-FDH); experiments use the
// fast keyed-hash variant (see FastVRF) to keep 1000-miner populations
// cheap — a substitution documented in DESIGN.md.
type VRF interface {
	// Evaluate computes the miner's sortition output and proof.
	Evaluate(input []byte) (out [32]byte, proof []byte, err error)
	// Verify checks a proof (using the public part) and returns the output.
	Verify(input, proof []byte) ([32]byte, error)
}

// Miner is a registered sidechain miner with sortition keys. Mining power
// (stake) weights election probability via repeated sub-user evaluation,
// as in stake-based sortition.
type Miner struct {
	ID    string
	Stake uint64
	VRF   VRF
}

// Registry is the Sybil-resistant miner set (identities backed by stake).
type Registry struct {
	miners []*Miner
	byID   map[string]*Miner
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*Miner)}
}

// Add registers a miner.
func (r *Registry) Add(m *Miner) {
	if _, dup := r.byID[m.ID]; dup {
		return
	}
	r.miners = append(r.miners, m)
	r.byID[m.ID] = m
}

// Size returns the miner population.
func (r *Registry) Size() int { return len(r.miners) }

// Miner returns a miner by ID, or nil.
func (r *Registry) Miner(id string) *Miner { return r.byID[id] }

// Ticket is one miner's sortition entry with its publicly verifiable proof.
type Ticket struct {
	MinerID string
	Output  [32]byte
	Proof   []byte
}

// Committee is the elected epoch committee, ordered by sortition output
// (index 0 is the leader).
type Committee struct {
	Epoch   uint64
	Members []Ticket
}

// LeaderAt returns the leader after v view changes (round-robin over the
// sortition order, as PBFT view change rotates).
func (c *Committee) LeaderAt(view int) string {
	return c.Members[view%len(c.Members)].MinerID
}

// Index returns a member's position (0 = leader), or -1.
func (c *Committee) Index(id string) int {
	for i, m := range c.Members {
		if m.MinerID == id {
			return i
		}
	}
	return -1
}

// Seed derives the sortition input for an epoch from the chain seed.
func Seed(chainSeed [32]byte, epoch uint64) []byte {
	out := make([]byte, 40)
	copy(out, chainSeed[:])
	binary.BigEndian.PutUint64(out[32:], epoch)
	return out
}

// Elect runs ranked sortition for an epoch: every miner evaluates its VRF
// on the epoch seed and the size smallest outputs form the committee, the
// smallest being the leader. Stake weights the draw by evaluating one
// sub-ticket per stake unit (capped at 8 to bound work) and keeping the
// best.
func Elect(reg *Registry, chainSeed [32]byte, epoch uint64, size int) (*Committee, error) {
	if size > reg.Size() {
		return nil, fmt.Errorf("%w: want %d of %d", ErrTooFewMiners, size, reg.Size())
	}
	input := Seed(chainSeed, epoch)
	tickets := make([]Ticket, 0, reg.Size())
	for _, m := range reg.miners {
		best, proof, err := evalBest(m, input)
		if err != nil {
			return nil, err
		}
		tickets = append(tickets, Ticket{MinerID: m.ID, Output: best, Proof: proof})
	}
	sort.Slice(tickets, func(i, j int) bool {
		return lessOutput(tickets[i], tickets[j])
	})
	return &Committee{Epoch: epoch, Members: tickets[:size]}, nil
}

func evalBest(m *Miner, input []byte) ([32]byte, []byte, error) {
	subs := m.Stake
	if subs == 0 {
		subs = 1
	}
	if subs > 8 {
		subs = 8
	}
	var best [32]byte
	var bestProof []byte
	for s := uint64(0); s < subs; s++ {
		in := append(append([]byte{}, input...), byte(s))
		out, proof, err := m.VRF.Evaluate(in)
		if err != nil {
			return best, nil, err
		}
		if bestProof == nil || lessBytes(out, best) {
			best, bestProof = out, proof
		}
	}
	return best, bestProof, nil
}

func lessOutput(a, b Ticket) bool {
	if a.Output != b.Output {
		return lessBytes(a.Output, b.Output)
	}
	return a.MinerID < b.MinerID // deterministic tie-break
}

func lessBytes(a, b [32]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
