// Example fastsync demonstrates snapshot fast-sync (DESIGN.md invariant
// 14): a long-running peer compacts its durable log into [header,
// checkpoint, tail], exports the compacted image, and a brand-new node
// Bootstraps from that snapshot — resuming at the peer's epoch without
// replaying history from genesis — then runs the remaining epochs and
// re-derives summary roots bit-identical to a reference node that lived
// through the whole deployment.
//
// The snapshot is not trusted on faith: Bootstrap re-derives everything
// it claims (the boundary committee re-provisions from the seed and must
// match the embedded bank's next verification key; pool roots recompute
// from the embedded state), so a tampered image fails with
// ErrCorruptStore — which the example also demonstrates.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/workload"
)

const (
	seed    = 11
	pools   = 8
	epochs  = 6
	handoff = 3 // epochs the peer runs before exporting its snapshot
)

func users() []string {
	out := make([]string, 12)
	for i := range out {
		out[i] = fmt.Sprintf("fs-user-%02d", i)
	}
	return out
}

func config() chain.Config {
	return chain.Config{
		Seed:          seed,
		NumPools:      pools,
		NumShards:     4,
		EpochRounds:   5,
		CommitteeSize: 10,
		Users:         users(),
		// Compact at every confirmed epoch, so the exported image is
		// always [header, checkpoint, short tail] — the smallest thing a
		// joining node can be handed.
		CompactEvery: 1,
	}
}

// drive installs the recovery-aware traffic pattern: epoch e's
// transactions derive from (seed, e) alone, so every node — peer,
// bootstrapped joiner, reference — generates the identical stream for
// the epochs it executes.
func drive(node chain.Chain) {
	ms := node.(*core.MultiSystem)
	us := users()
	poolIDs := ms.PoolIDs()
	ms.OnEpochStart = func(epoch uint64) {
		for _, tx := range workload.EpochSwaps(seed, epoch, 40, us, poolIDs, "fs", 800_000) {
			if _, err := ms.Submit(context.Background(), tx); err != nil {
				fmt.Fprintf(os.Stderr, "submit: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func finish(node chain.Chain, planned int) *chain.Report {
	drive(node)
	rep, err := node.Run(planned)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run: %v\n", err)
		os.Exit(1)
	}
	if err := node.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "validate: %v\n", err)
		os.Exit(1)
	}
	if err := node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close: %v\n", err)
		os.Exit(1)
	}
	return rep
}

func main() {
	base, err := os.MkdirTemp("", "fastsync-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(base)

	fmt.Printf("fastsync: %d pools, %d epochs, snapshot handoff after epoch %d\n\n", pools, epochs, handoff)

	// The reference lives through the whole deployment uninterrupted.
	fmt.Println("reference node (full history):")
	refRep := finish(mustOpen(filepath.Join(base, "reference")), epochs)

	// The peer runs the first epochs, compacting as it goes, then exports
	// its store image at rest.
	fmt.Printf("\npeer node: runs epochs 1-%d, compacting every epoch\n", handoff)
	peer := mustOpen(filepath.Join(base, "peer"))
	drive(peer)
	if _, err := peer.Run(handoff); err != nil {
		fmt.Fprintf(os.Stderr, "peer run: %v\n", err)
		os.Exit(1)
	}
	if err := peer.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "peer validate: %v\n", err)
		os.Exit(1)
	}
	snap, err := peer.(chain.Compactor).ExportSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "export: %v\n", err)
		os.Exit(1)
	}
	if err := peer.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "peer close: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  exported snapshot: %d bytes (checkpoint + tail, not %d epochs of log)\n", len(snap), handoff)

	// A tampered snapshot must NOT bootstrap: flip one byte inside the
	// checkpoint and watch the trust anchors reject it.
	tampered := append([]byte(nil), snap...)
	tampered[len(tampered)/2] ^= 0x40
	if _, err := core.Bootstrap(filepath.Join(base, "evil"), tampered, config()); !errors.Is(err, chain.ErrCorruptStore) {
		fmt.Fprintf(os.Stderr, "tampered snapshot was accepted (err=%v) — trust anchors failed\n", err)
		os.Exit(1)
	}
	fmt.Println("  tampered copy rejected with ErrCorruptStore (committee/root anchors re-derived)")

	// The joiner starts from nothing but the snapshot and resumes at the
	// peer's epoch.
	fmt.Printf("\njoining node: bootstraps from the snapshot, resumes epochs %d-%d\n", handoff+1, epochs)
	start := time.Now()
	joiner, err := core.Bootstrap(filepath.Join(base, "joiner"), snap, config())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bootstrap: %v\n", err)
		os.Exit(1)
	}
	if rec := joiner.(*core.MultiSystem).Recovery(); rec != nil {
		fmt.Printf("  fast-synced to epoch boundary %d in %s\n", rec.Epoch, time.Since(start).Round(time.Millisecond))
	}
	gotRep := finish(joiner, epochs)

	fmt.Println("\nper-epoch summary roots (reference vs fast-synced joiner):")
	identical := true
	for e := uint64(1); e <= epochs; e++ {
		a, b := refRep.SummaryRoots[e], gotRep.SummaryRoots[e]
		// The joiner only retains roots from the snapshot's coverage
		// window onward; compare where both sides have one.
		if _, ok := gotRep.SummaryRoots[e]; !ok {
			fmt.Printf("  epoch %d  %x  (compacted away on joiner)\n", e, a[:8])
			continue
		}
		match := "OK"
		if a != b {
			match = "MISMATCH"
			identical = false
		}
		fmt.Printf("  epoch %d  %x  %x  %s\n", e, a[:8], b[:8], match)
	}
	if !identical {
		fmt.Println("\nFAIL: fast-synced node diverged from the full-history reference")
		os.Exit(1)
	}
	fmt.Println("\nbit-identical: the joiner reproduced the deployment's roots from a snapshot it never executed")
}

func mustOpen(dir string) chain.Chain {
	node, err := core.Open(dir, config())
	if err != nil {
		fmt.Fprintf(os.Stderr, "open %s: %v\n", dir, err)
		os.Exit(1)
	}
	return node
}
