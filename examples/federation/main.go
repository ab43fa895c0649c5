// Federation: three ammBoost sidechains on ONE shared simulated
// mainchain, contending for block gas, with two cross-chain token
// transfers riding the escrow's two-phase protocol. Transfer fx-ok
// (gamma → alpha) completes: withdraw-on-gamma → escrow lock → deposit-
// on-alpha → release. Transfer fx-refund (alpha → beta) is interrupted
// mid-flight — beta's epoch-2 committee signs a corrupted sync digest,
// the sync reverts on-chain, and beta halts while the escrow holds
// custody — so the escrow refunds toward alpha, which re-credits its
// user. The program prints both transfers' full receipt lifecycles plus
// the escrow's conservation ledger.
package main

import (
	"fmt"
	"log"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/federation"
	"ammboost/internal/mainchain"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

const bridgeUser = "bridge-user"

func member(id string, seed int64) federation.NodeConfig {
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumUsers = 10
	return federation.NodeConfig{
		Chain: chain.Config{
			ChainID:         id,
			Seed:            seed,
			NumPools:        4,
			NumShards:       2,
			EpochRounds:     4,
			RoundDuration:   7 * time.Second,
			CommitteeSize:   10,
			MinerPopulation: 24,
		},
		DailyVolume: 400_000,
		Workload:    workload.MultiConfig{Config: wcfg, NumPools: 4},
		ExtraUsers:  []string{bridgeUser},
	}
}

func stamp(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}

func printReceipt(rc *chain.TransferReceipt) {
	fmt.Printf("  %s: %s -> %s, user %s, amounts (%s, %s)\n",
		rc.ID, rc.FromChain, rc.ToChain, rc.User, rc.Amount0, rc.Amount1)
	fmt.Printf("    status:     %s\n", rc.Status)
	fmt.Printf("    initiated   %-8s withdrawn %-8s (epoch %d on %s, pool %s)\n",
		stamp(rc.InitiatedAt), stamp(rc.WithdrawnAt), rc.WithdrawEpoch, rc.FromChain, rc.FromPool)
	deposited := fmt.Sprintf("deposited %-8s (epoch %d on %s, pool %s)",
		stamp(rc.DepositedAt), rc.DepositEpoch, rc.ToChain, rc.ToPool)
	if rc.DepositedAt == 0 {
		deposited = "deposited -        (never reached the destination)"
	}
	fmt.Printf("    escrowed    %-8s %s\n", stamp(rc.EscrowedAt), deposited)
	fmt.Printf("    settled     %-8s\n", stamp(rc.SettledAt))
	if rc.Err != nil {
		fmt.Printf("    reason:     %v\n", rc.Err)
	}
}

func main() {
	beta := member("beta", 2)
	// Beta's epoch-2 committee equivocates: its sync reverts on the
	// mainchain and the member halts mid-transfer.
	beta.Chain.Faults = chain.FaultPlan{CorruptSyncEpochs: map[uint64]bool{2: true}}

	amount := u256.FromUint64(2 << 20)
	fed, err := federation.New(federation.Config{
		Epochs: 4,
		Nodes:  []federation.NodeConfig{member("alpha", 1), beta, member("gamma", 3)},
		Transfers: []federation.Transfer{
			{ID: "fx-ok", FromChain: "gamma", ToChain: "alpha",
				User: bridgeUser, Amount0: amount, Amount1: amount, SubmitAtEpoch: 1},
			{ID: "fx-refund", FromChain: "alpha", ToChain: "beta",
				User: bridgeUser, Amount0: amount, Amount1: amount, SubmitAtEpoch: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Fund the bridge principal's deposits on both origin chains ahead of
	// epoch 1, so the withdrawals find un-traded balance to debit.
	for _, origin := range []string{"gamma", "alpha"} {
		if _, err := fed.Node(origin).SubmitDeposit(bridgeUser, 1, amount, amount); err != nil {
			log.Fatal(err)
		}
	}

	res, err := fed.Run()
	if err != nil {
		log.Fatalf("federation fault: %v", err)
	}

	fmt.Printf("ammBoost federation — %d sidechains, one shared mainchain\n", len(res.Nodes))
	for _, nr := range res.Nodes {
		// Only beta's halt is planned; every other member must finish
		// with its bank and engine in parity.
		status := "completed"
		switch {
		case nr.Err != nil && nr.ChainID == "beta":
			status = fmt.Sprintf("halted (%v)", nr.Err)
		case nr.Err != nil:
			log.Fatalf("member %s: lifecycle fault: %v", nr.ChainID, nr.Err)
		default:
			if err := fed.Node(nr.ChainID).Validate(); err != nil {
				log.Fatalf("member %s: %v", nr.ChainID, err)
			}
		}
		fmt.Printf("  %-5s  %d epochs, %d syncs confirmed — %s\n",
			nr.ChainID, nr.Report.EpochsRun, nr.Report.SyncsOK, status)
	}

	fmt.Printf("\ncross-chain transfers (%d):\n", len(res.Transfers))
	for _, rc := range res.Transfers {
		printReceipt(rc)
	}

	esc := fed.Escrow()
	fmt.Printf("\nescrow ledger:\n")
	fmt.Printf("  locked    (%s, %s)\n", esc.TotalLocked0, esc.TotalLocked1)
	fmt.Printf("  released  (%s, %s)\n", esc.TotalReleased0, esc.TotalReleased1)
	fmt.Printf("  refunded  (%s, %s)\n", esc.TotalRefunded0, esc.TotalRefunded1)
	fmt.Printf("  claimed   (%s, %s)\n", esc.TotalClaimed0, esc.TotalClaimed1)
	c0, c1 := esc.ClaimableTotal()
	fmt.Printf("  claimable (%s, %s)\n", c0, c1)
	if err := esc.Conserved(); err != nil {
		log.Fatalf("escrow conservation: %v", err)
	}
	if n := esc.LockedCount(); n != 0 {
		log.Fatalf("%d escrow entries still locked", n)
	}
	fmt.Printf("  conservation: locked == released + refunded; refunded == claimed + claimable ✓\n")

	// Per-chain gas shares on the shared chain: the tenants contended for
	// the same 30M-gas blocks, and every one of them got through.
	gas := make(map[string]uint64)
	var total uint64
	for _, b := range fed.Mainchain().Blocks() {
		total += b.GasUsed
		for _, tx := range b.Txs {
			gas[tx.To] += tx.GasUsed
		}
	}
	fmt.Printf("\nshared mainchain: %d blocks, %d gas total\n", fed.Mainchain().Height(), total)
	for _, nr := range res.Nodes {
		fmt.Printf("  %-5s bank gas: %d\n", nr.ChainID, gas[mainchain.BankAddressFor(nr.ChainID)])
	}
	fmt.Printf("  escrow gas: %d\n", gas[mainchain.EscrowAddress])
	fmt.Printf("  history digest: %x\n", res.MainchainDigest[:8])
}
