package pbft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/netsim"
	"ammboost/internal/sim"
)

// cluster wires a 3f+2 committee of replicas over a simulated network.
type cluster struct {
	sim      *sim.Simulator
	net      *netsim.Network
	replicas []*Replica
	decided  map[string][]Decision
}

func newCluster(t *testing.T, f int, timeout time.Duration) *cluster {
	t.Helper()
	n, threshold := Quorum(f)
	s := sim.New()
	net := netsim.New(s, netsim.Config{BaseLatency: 2 * time.Millisecond, BandwidthBps: 1e9})
	members, err := tsig.RunDKG(rand.New(rand.NewSource(99)), threshold, n)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	pubs := make([]tsig.Point, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("m%d", i)
		pubs[i] = tsig.PublicShare(members[i].Share)
	}
	c := &cluster{sim: s, net: net, decided: make(map[string][]Decision)}
	for i := 0; i < n; i++ {
		id := ids[i]
		cfg := Config{
			ID: id, Index: i, Members: ids, F: f,
			Share: members[i].Share, Group: members[i].Group, PubShares: pubs,
			Timeout: timeout,
			OnDecide: func(d Decision) {
				c.decided[id] = append(c.decided[id], d)
			},
		}
		r, err := NewReplica(s, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.replicas = append(c.replicas, r)
	}
	return c
}

func (c *cluster) expectAll(seq uint64) {
	for _, r := range c.replicas {
		r.ExpectDecision(seq)
	}
}

func TestQuorumArithmetic(t *testing.T) {
	cases := []struct{ f, n, th int }{{0, 2, 2}, {1, 5, 4}, {2, 8, 6}, {166, 500, 334}}
	for _, c := range cases {
		n, th := Quorum(c.f)
		if n != c.n || th != c.th {
			t.Errorf("Quorum(%d) = (%d,%d), want (%d,%d)", c.f, n, th, c.n, c.th)
		}
		if got := FaultBudget(c.n); got != c.f {
			t.Errorf("FaultBudget(%d) = %d, want %d", c.n, got, c.f)
		}
	}
}

func TestHappyPathDecision(t *testing.T) {
	c := newCluster(t, 1, 3*time.Second)
	payload := "block-1"
	digest := DigestOf([]byte(payload))
	c.expectAll(1)
	if err := c.replicas[0].Propose(1, payload, digest, 1000); err != nil {
		t.Fatal(err)
	}
	c.sim.RunUntil(2 * time.Second)
	for _, r := range c.replicas {
		ds := c.decided[r.cfg.ID]
		if len(ds) != 1 {
			t.Fatalf("%s decided %d blocks", r.cfg.ID, len(ds))
		}
		if ds[0].Payload != payload || ds[0].Seq != 1 {
			t.Errorf("%s decided %v", r.cfg.ID, ds[0])
		}
		// The commit certificate is a valid threshold signature anyone
		// can verify against the committee key.
		if err := tsig.Verify(r.cfg.Group, digestDomain("com", 0, 1, digest), ds[0].CommitCert); err != nil {
			t.Errorf("commit cert invalid: %v", err)
		}
	}
}

func TestNonLeaderCannotPropose(t *testing.T) {
	c := newCluster(t, 1, 3*time.Second)
	if err := c.replicas[1].Propose(1, "x", DigestOf([]byte("x")), 10); err != ErrNotLeader {
		t.Errorf("want ErrNotLeader, got %v", err)
	}
}

func TestMultipleSequences(t *testing.T) {
	c := newCluster(t, 1, 3*time.Second)
	for seq := uint64(1); seq <= 5; seq++ {
		payload := fmt.Sprintf("block-%d", seq)
		c.expectAll(seq)
		if err := c.replicas[0].Propose(seq, payload, DigestOf([]byte(payload)), 500); err != nil {
			t.Fatal(err)
		}
		c.sim.RunUntil(c.sim.Now() + 2*time.Second)
	}
	for id, ds := range c.decided {
		if len(ds) != 5 {
			t.Errorf("%s decided %d of 5", id, len(ds))
		}
	}
}

func TestSilentLeaderTriggersViewChange(t *testing.T) {
	c := newCluster(t, 1, 500*time.Millisecond)
	var becameLeader bool
	c.replicas[1].cfg.OnBecomeLeader = func(view int) {
		becameLeader = true
		// New leader re-proposes the pending block.
		payload := "recovered-block"
		if err := c.replicas[1].Propose(1, payload, DigestOf([]byte(payload)), 100); err != nil {
			t.Errorf("re-propose: %v", err)
		}
	}
	// Leader m0 never proposes; replicas expect seq 1.
	c.expectAll(1)
	c.sim.RunUntil(5 * time.Second)
	if !becameLeader {
		t.Fatal("view change did not promote the next leader")
	}
	for _, r := range c.replicas {
		if r.View() == 0 {
			t.Errorf("%s still in view 0", r.cfg.ID)
		}
		ds := c.decided[r.cfg.ID]
		if len(ds) != 1 || ds[0].Payload != "recovered-block" {
			t.Errorf("%s decided %v", r.cfg.ID, ds)
		}
	}
}

func TestInvalidProposalTriggersViewChange(t *testing.T) {
	c := newCluster(t, 1, 2*time.Second)
	for _, r := range c.replicas {
		r.cfg.Validate = func(p any) bool { return p != "poison" }
	}
	var newLeaderView int
	c.replicas[1].cfg.OnBecomeLeader = func(view int) { newLeaderView = view }
	c.expectAll(1)
	if err := c.replicas[0].Propose(1, "poison", DigestOf([]byte("poison")), 100); err != nil {
		t.Fatal(err)
	}
	c.sim.RunUntil(5 * time.Second)
	if newLeaderView == 0 {
		t.Fatal("invalid proposal should force a view change")
	}
	for id, ds := range c.decided {
		if len(ds) != 0 {
			t.Errorf("%s decided the poisoned block: %v", id, ds)
		}
	}
}

func TestCrashFaultToleratedWithinBudget(t *testing.T) {
	c := newCluster(t, 1, 3*time.Second) // n=5, tolerates 1 fault
	// Crash one non-leader replica.
	c.net.Crash("m4")
	payload := "block-despite-crash"
	c.expectAll(1)
	if err := c.replicas[0].Propose(1, payload, DigestOf([]byte(payload)), 100); err != nil {
		t.Fatal(err)
	}
	c.sim.RunUntil(2 * time.Second)
	for _, id := range []string{"m0", "m1", "m2", "m3"} {
		if len(c.decided[id]) != 1 {
			t.Errorf("%s did not decide", id)
		}
	}
}

func TestTooManyCrashesStallsSafely(t *testing.T) {
	c := newCluster(t, 1, time.Second)
	// Crash two of five (> f=1): no quorum, no decision — but no bogus
	// decision either (safety over liveness).
	c.net.Crash("m3")
	c.net.Crash("m4")
	c.expectAll(1)
	if err := c.replicas[0].Propose(1, "stalled", DigestOf([]byte("stalled")), 100); err != nil {
		t.Fatal(err)
	}
	c.sim.RunUntil(5 * time.Second)
	for id, ds := range c.decided {
		if len(ds) != 0 {
			t.Errorf("%s decided without quorum: %v", id, ds)
		}
	}
}

func TestLargerCommittee(t *testing.T) {
	c := newCluster(t, 2, 3*time.Second) // n=8
	payload := "f2-block"
	c.expectAll(1)
	if err := c.replicas[0].Propose(1, payload, DigestOf([]byte(payload)), 2048); err != nil {
		t.Fatal(err)
	}
	c.sim.RunUntil(3 * time.Second)
	count := 0
	for _, ds := range c.decided {
		if len(ds) == 1 && ds[0].Payload == payload {
			count++
		}
	}
	if count != 8 {
		t.Errorf("%d of 8 replicas decided", count)
	}
}

func TestModelMatchesTable12Shape(t *testing.T) {
	m := DefaultModel()
	// Paper Table XII: committee size → agreement seconds.
	paper := map[int]float64{100: 0.99, 250: 2.95, 500: 6.51, 750: 14.32, 1000: 22.24}
	for n, want := range paper {
		got := m.AgreementTime(n, 1<<20).Seconds()
		// Within 35% of the measured point and strictly monotone below.
		if got < want*0.65 || got > want*1.35 {
			t.Errorf("AgreementTime(%d) = %.2fs, paper %.2fs", n, got, want)
		}
	}
	if m.AgreementTime(100, 1<<20) >= m.AgreementTime(1000, 1<<20) {
		t.Error("agreement time must grow with committee size")
	}
	// Block size matters little (tree dissemination), mirroring Table
	// VIII's viability of 2 MB blocks at 7 s rounds.
	small := m.AgreementTime(500, 1<<19)
	large := m.AgreementTime(500, 2<<20)
	if large-small > time.Second {
		t.Errorf("dissemination dominates: %s vs %s", small, large)
	}
}

func TestModelViewChangeCheaperThanAgreement(t *testing.T) {
	m := DefaultModel()
	if m.ViewChangeTime(500) >= m.AgreementTime(500, 1<<20) {
		t.Error("view change should cost less than full agreement")
	}
}

func BenchmarkAgreementF1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		net := netsim.New(s, netsim.DefaultConfig())
		members, _ := tsig.RunDKG(rand.New(rand.NewSource(1)), 4, 5)
		ids := []string{"a", "b", "c", "d", "e"}
		pubs := make([]tsig.Point, 5)
		for j := range pubs {
			pubs[j] = tsig.PublicShare(members[j].Share)
		}
		var reps []*Replica
		for j := 0; j < 5; j++ {
			r, _ := NewReplica(s, net, Config{ID: ids[j], Index: j, Members: ids, F: 1,
				Share: members[j].Share, Group: members[j].Group, PubShares: pubs})
			reps = append(reps, r)
		}
		_ = reps[0].Propose(1, "bench", DigestOf([]byte("bench")), 1024)
		s.Run()
	}
}
