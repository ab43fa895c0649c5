package election

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ammboost/internal/crypto/vrf"
)

func fastRegistry(n int) *Registry {
	reg := NewRegistry()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("miner-%03d", i)
		reg.Add(&Miner{ID: id, Stake: 1, VRF: NewFastVRF([]byte(id))})
	}
	return reg
}

func TestElectDeterministic(t *testing.T) {
	reg := fastRegistry(50)
	seed := [32]byte{1, 2, 3}
	c1, err := Elect(reg, seed, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Elect(reg, seed, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Members {
		if c1.Members[i].MinerID != c2.Members[i].MinerID {
			t.Fatal("election must be deterministic for a fixed seed")
		}
	}
	if len(c1.Members) != 10 {
		t.Errorf("committee size = %d", len(c1.Members))
	}
}

func TestElectRotatesAcrossEpochs(t *testing.T) {
	reg := fastRegistry(100)
	seed := [32]byte{9}
	c1, _ := Elect(reg, seed, 1, 20)
	c2, _ := Elect(reg, seed, 2, 20)
	same := 0
	in1 := map[string]bool{}
	for _, m := range c1.Members {
		in1[m.MinerID] = true
	}
	for _, m := range c2.Members {
		if in1[m.MinerID] {
			same++
		}
	}
	if same == 20 {
		t.Error("consecutive epochs elected identical committees; rotation failed")
	}
	if c1.LeaderAt(0) == c2.LeaderAt(0) && c1.Members[1].MinerID == c2.Members[1].MinerID {
		t.Log("leaders coincide; acceptable but unusual")
	}
}

func TestElectTooFewMiners(t *testing.T) {
	reg := fastRegistry(5)
	if _, err := Elect(reg, [32]byte{}, 1, 10); !errors.Is(err, ErrTooFewMiners) {
		t.Errorf("want ErrTooFewMiners, got %v", err)
	}
}

func TestRealVRFElection(t *testing.T) {
	// A small population with the real RSA-FDH VRF: proofs must be
	// publicly verifiable through the same interface.
	reg := NewRegistry()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		sk, pk, err := vrf.GenerateKey(r, 1024)
		if err != nil {
			t.Fatal(err)
		}
		reg.Add(&Miner{ID: fmt.Sprintf("rsa-%d", i), Stake: 1, VRF: &RealVRF{SK: sk, PK: pk}})
	}
	seed := [32]byte{42}
	c, err := Elect(reg, seed, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Stake 1: each member's one sub-ticket is the epoch seed plus byte 0.
	input := append(Seed(seed, 1), 0)
	for _, m := range c.Members {
		out, err := reg.Miner(m.MinerID).VRF.Verify(input, m.Proof)
		if err != nil || out != m.Output {
			t.Errorf("member %s: proof does not verify (%v)", m.MinerID, err)
		}
	}
}

func TestStakeWeighting(t *testing.T) {
	// A miner with max stake should be elected leader far more often than
	// a 1-stake miner across many epochs.
	reg := NewRegistry()
	reg.Add(&Miner{ID: "whale", Stake: 8, VRF: NewFastVRF([]byte("whale"))})
	for i := 0; i < 7; i++ {
		id := fmt.Sprintf("fish-%d", i)
		reg.Add(&Miner{ID: id, Stake: 1, VRF: NewFastVRF([]byte(id))})
	}
	whaleLeads := 0
	for e := uint64(1); e <= 400; e++ {
		c, err := Elect(reg, [32]byte{13}, e, 3)
		if err != nil {
			t.Fatal(err)
		}
		if c.LeaderAt(0) == "whale" {
			whaleLeads++
		}
	}
	// Expected share ≈ 8/15 ≈ 53%; a 1-stake miner would lead ~6.7%.
	if whaleLeads < 120 {
		t.Errorf("whale led only %d/400 epochs; stake weighting ineffective", whaleLeads)
	}
}

func TestLeaderRotationWithinCommittee(t *testing.T) {
	reg := fastRegistry(20)
	c, _ := Elect(reg, [32]byte{3}, 1, 5)
	seen := map[string]bool{}
	for v := 0; v < 5; v++ {
		seen[c.LeaderAt(v)] = true
	}
	if len(seen) != 5 {
		t.Errorf("leader rotation covered %d of 5 members", len(seen))
	}
	if c.Index(c.LeaderAt(0)) != 0 {
		t.Error("leader index should be 0")
	}
	if c.Index("nobody") != -1 {
		t.Error("unknown member index should be -1")
	}
}

func TestRegistryAddIgnoresDuplicates(t *testing.T) {
	reg := NewRegistry()
	reg.Add(&Miner{ID: "a", VRF: NewFastVRF([]byte("a"))})
	reg.Add(&Miner{ID: "a", VRF: NewFastVRF([]byte("b"))}) // duplicate ignored
	reg.Add(&Miner{ID: "b", VRF: NewFastVRF([]byte("b"))})
	if reg.Size() != 2 || reg.Miner("ghost") != nil {
		t.Errorf("size = %d", reg.Size())
	}
	out, _, _ := reg.Miner("a").VRF.Evaluate([]byte("x"))
	if want, _, _ := NewFastVRF([]byte("a")).Evaluate([]byte("x")); out != want {
		t.Error("a duplicate Add replaced the first miner")
	}
}

func BenchmarkElect1000(b *testing.B) {
	reg := fastRegistry(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Elect(reg, [32]byte{1}, uint64(i), 500); err != nil {
			b.Fatal(err)
		}
	}
}
