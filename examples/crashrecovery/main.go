// Example crashrecovery demonstrates the durable store's recovery
// contract end to end (DESIGN.md invariant 9): a node killed mid-deployment
// — here, its store even loses a torn tail — reopens from the newest
// valid epoch snapshot, replays the TSQC-signed sync-part log, resumes
// the run, and re-derives summary roots bit-identical to a node that
// never crashed.
//
// The run prints a per-epoch root table for the uninterrupted reference
// and the crash+recover node; the two columns must match on every row.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/store"
	"ammboost/internal/workload"
)

const (
	seed   = 7
	pools  = 8
	epochs = 6
	crash  = 3 // epochs to run before the "kill"
)

func users() []string {
	out := make([]string, 12)
	for i := range out {
		out[i] = fmt.Sprintf("cr-user-%02d", i)
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
	}
}

// drive installs the recovery-aware traffic pattern: epoch e's
// transactions derive from (seed, e) alone, so any restart regenerates
// the stream the uninterrupted run saw.
func drive(node chain.Chain) {
	ms := node.(*core.MultiSystem)
	us := users()
	poolIDs := ms.PoolIDs()
	ms.OnEpochStart = func(epoch uint64) {
		for _, tx := range workload.EpochSwaps(seed, epoch, 40, us, poolIDs, "cr", 800_000) {
			if _, err := ms.Submit(context.Background(), tx); err != nil {
				fmt.Fprintf(os.Stderr, "submit: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func run(dir string, planned int) *chain.Report {
	node, err := core.Open(dir, config())
	if err != nil {
		fmt.Fprintf(os.Stderr, "open %s: %v\n", dir, err)
		os.Exit(1)
	}
	if rec := node.(*core.MultiSystem).Recovery(); rec != nil {
		fmt.Printf("  recovered at epoch boundary %d (%d receipts, %d epochs of roots restored)\n",
			rec.Epoch, len(rec.Receipts), len(rec.Fingerprint.Epochs))
	}
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
	base, err := os.MkdirTemp("", "crashrecovery-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(base)
	refDir := filepath.Join(base, "reference")
	crashDir := filepath.Join(base, "crashed")

	fmt.Printf("crashrecovery: %d pools, %d epochs, kill after epoch %d\n\n", pools, epochs, crash)

	fmt.Println("reference node (never crashes):")
	refRep := run(refDir, epochs)

	fmt.Println("\ncrash node, phase 1: runs epochs 1-" + fmt.Sprint(crash))
	run(crashDir, crash)

	// The "kill -9": tear bytes off the store's tail, as a crash mid-write
	// would. Recovery must roll back to the last fully persisted epoch.
	path := filepath.Join(crashDir, store.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	torn := data[:len(data)-37]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nsimulated crash: store truncated %d -> %d bytes (torn final record)\n", len(data), len(torn))

	fmt.Println("\ncrash node, phase 2: reopen + resume to epoch", epochs)
	start := time.Now()
	gotRep := run(crashDir, epochs)
	fmt.Printf("  resume wall time: %s\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("\nper-epoch summary roots (reference vs crash+recover):")
	identical := true
	for e := uint64(1); e <= epochs; e++ {
		a, b := refRep.SummaryRoots[e], gotRep.SummaryRoots[e]
		match := "OK"
		if a != b {
			match = "MISMATCH"
			identical = false
		}
		fmt.Printf("  epoch %d  %x  %x  %s\n", e, a[:8], b[:8], match)
	}
	if !identical {
		fmt.Println("\nFAIL: recovery diverged from the uninterrupted run")
		os.Exit(1)
	}
	fmt.Println("\nbit-identical: the restarted node re-derived every root the uninterrupted run produced")
}
