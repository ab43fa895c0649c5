package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/mainchain"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// TestPipelineLifecycleCompletes checks the pipelined end-to-end
// contract: with the default depth, every planned epoch still syncs and
// prunes, cross-layer parity holds, and the report carries the pipeline
// telemetry (positive occupancy: commit stages really were in flight
// when later epochs sealed).
func TestPipelineLifecycleCompletes(t *testing.T) {
	sysCfg, drvCfg := multiTestConfigs(21, 16, 4, 4)
	sysCfg.PipelineDepth = 2
	sys, _, err := NewMultiDriver(sysCfg, drvCfg)
	if err != nil {
		t.Fatalf("NewMultiDriver: %v", err)
	}
	rep, err := sys.Run(drvCfg.Epochs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.SyncsOK != rep.EpochsRun {
		t.Errorf("SyncsOK = %d, want %d", rep.SyncsOK, rep.EpochsRun)
	}
	if got := int(sys.LastSyncedEpoch()); got != rep.EpochsRun {
		t.Errorf("bank synced through epoch %d, want %d", got, rep.EpochsRun)
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if rep.PipelineDepth != 2 {
		t.Errorf("report PipelineDepth = %d, want 2", rep.PipelineDepth)
	}
	if rep.PipelineOccupancy <= 0 {
		t.Errorf("pipeline occupancy = %v, want > 0 (stages should overlap)", rep.PipelineOccupancy)
	}

	// Depth 1 keeps the window empty by construction. (Its stall is the
	// whole commit stage: the run loop waits on every epoch's.)
	sysCfg1, drvCfg1 := multiTestConfigs(21, 16, 4, 4)
	sysCfg1.PipelineDepth = 1
	sys1, _, err := NewMultiDriver(sysCfg1, drvCfg1)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := sys1.Run(drvCfg1.Epochs)
	if err != nil {
		t.Fatalf("depth-1 run: %v", err)
	}
	if rep1.PipelineOccupancy != 0 {
		t.Errorf("depth-1 occupancy = %v, want 0", rep1.PipelineOccupancy)
	}
}

// pipelineFaultOutcome captures everything the fault-drain test compares
// across repeated runs: the surfaced error, the run counters, and every
// receipt's final lifecycle stage grouped by epoch.
type pipelineFaultOutcome struct {
	errText  string
	syncsOK  int
	statuses map[uint64]map[chain.Status]int
}

// runPipelineFault runs a pipelined deployment whose epoch-2 committee
// signs a corrupted digest, submitting a fixed per-epoch traffic stream
// and keeping every receipt. The revert surfaces while at least one
// later epoch is mid-execution, exercising the drain path.
func runPipelineFault(t *testing.T) pipelineFaultOutcome {
	t.Helper()
	const epochs = 4
	sysCfg, _ := multiTestConfigs(99, 8, 4, epochs)
	sysCfg.PipelineDepth = 2
	sysCfg.Faults.CorruptSyncEpochs = map[uint64]bool{2: true}
	wcfg := workload.DefaultMultiConfig(99, 8)
	wcfg.NumUsers = 20
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(sysCfg, gen.Users())
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[uint64][]*chain.Receipt)
	var submitErrs []error
	sys.OnEpochStart = func(epoch uint64) {
		for i := 0; i < 40; i++ {
			rc, err := sys.Submit(context.Background(), gen.Next())
			if err != nil {
				submitErrs = append(submitErrs, err)
				continue
			}
			recs[epoch] = append(recs[epoch], rc)
		}
	}
	rep, err := sys.Run(epochs)
	if err == nil {
		t.Fatal("corrupted epoch-2 sync should surface an error")
	}
	if !errors.Is(err, chain.ErrSyncReverted) {
		t.Fatalf("err = %v, want ErrSyncReverted", err)
	}
	if rep == nil {
		t.Fatal("report should cover the partial run")
	}
	// The node halted: later submissions are refused with ErrHalted.
	if _, err := sys.Submit(context.Background(), gen.Next()); !errors.Is(err, chain.ErrHalted) {
		t.Errorf("post-halt Submit err = %v, want ErrHalted", err)
	}
	for _, err := range submitErrs {
		if !errors.Is(err, chain.ErrHalted) {
			t.Errorf("mid-run submit error %v, want ErrHalted only", err)
		}
	}
	out := pipelineFaultOutcome{
		errText:  fmt.Sprint(err),
		syncsOK:  rep.SyncsOK,
		statuses: make(map[uint64]map[chain.Status]int),
	}
	for epoch, rcs := range recs {
		bucket := make(map[chain.Status]int)
		for _, rc := range rcs {
			bucket[rc.Status]++
		}
		out.statuses[epoch] = bucket
	}
	return out
}

// TestPipelineFaultDrain pins the drain semantics the pipeline must
// preserve: an ErrSyncReverted for epoch 2 raised while epochs 3+ are
// mid-flight halts the node deterministically and leaves receipts in
// consistent stages — epoch 1 fully pruned, epoch 2 checkpointed but
// never synced, later epochs no further than executed.
func TestPipelineFaultDrain(t *testing.T) {
	out := runPipelineFault(t)
	if out.syncsOK != 1 {
		t.Errorf("SyncsOK = %d, want 1 (only epoch 1 synced)", out.syncsOK)
	}
	for st := range out.statuses[1] {
		if st != chain.StatusPruned && st != chain.StatusRejected {
			t.Errorf("epoch 1 receipt in stage %v, want pruned (or rejected)", st)
		}
	}
	seen2 := false
	for st, n := range out.statuses[2] {
		if st == chain.StatusCheckpointed {
			seen2 = n > 0
		}
		if st == chain.StatusSynced || st == chain.StatusPruned {
			t.Errorf("epoch 2 receipt reached %v after its sync reverted", st)
		}
	}
	if !seen2 {
		t.Error("epoch 2 receipts never reached checkpointed (summary published before the revert)")
	}
	for epoch := uint64(3); epoch <= 4; epoch++ {
		for st := range out.statuses[epoch] {
			switch st {
			case chain.StatusPending, chain.StatusExecuted, chain.StatusRejected:
			default:
				t.Errorf("epoch %d receipt in stage %v, want <= executed (its commit stage was drained)", epoch, st)
			}
		}
	}
	// Halting is deterministic: the identical scenario reproduces the
	// same error, counters, and receipt stages.
	again := runPipelineFault(t)
	if again.errText != out.errText {
		t.Errorf("halt error diverged across runs:\n  %s\n  %s", out.errText, again.errText)
	}
	if again.syncsOK != out.syncsOK {
		t.Errorf("SyncsOK diverged: %d vs %d", out.syncsOK, again.syncsOK)
	}
	for epoch, bucket := range out.statuses {
		other := again.statuses[epoch]
		for st, n := range bucket {
			if other[st] != n {
				t.Errorf("epoch %d stage %v count diverged: %d vs %d", epoch, st, n, other[st])
			}
		}
	}
}

// TestPipelineLateSubmissionDrains pins the end-of-run window: a
// transaction submitted after the final planned epoch's last round
// completes, but before the round boundary where the next epoch would
// start, still gets a drain epoch — its receipt must never be stranded
// at Pending (the decision waits for that boundary at every depth).
func TestPipelineLateSubmissionDrains(t *testing.T) {
	sysCfg, _ := multiTestConfigs(3, 4, 2, 2)
	sysCfg.PipelineDepth = 2
	sysCfg.EpochRounds = 2 // epochs at 0s and 14s; final round starts at 21s
	sys, err := NewMultiSystem(sysCfg, []string{"u-0"})
	if err != nil {
		t.Fatal(err)
	}
	var rc *chain.Receipt
	sys.Sim().At(26*time.Second, func() {
		// After the final round's block mined (~23s), before the 28s
		// boundary.
		tx := &summary.Tx{ID: "late", Kind: gasmodel.KindSwap, User: "u-0",
			PoolID: sys.PoolIDs()[0], ZeroForOne: true, ExactIn: true,
			Amount: u256.FromUint64(1000)}
		var serr error
		rc, serr = sys.Submit(context.Background(), tx)
		if serr != nil {
			t.Errorf("late Submit: %v", serr)
		}
	})
	rep, err := sys.Run(2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rc == nil {
		t.Fatal("late submission never ran")
	}
	if rc.Status == chain.StatusPending {
		t.Fatalf("late submission stranded at Pending (epoch %d)", rc.Epoch)
	}
	if rep.EpochsRun < 3 {
		t.Errorf("ran %d epochs, want a drain epoch for the late transaction", rep.EpochsRun)
	}
}

// TestPipelineSealedUntouchedPools checks the lazy-snapshot interaction:
// pools untouched in a sealed epoch keep answering their roots from the
// commitment cache while the next epoch runs, and a pool touched only in
// the later epoch still folds correctly.
func TestPipelineSealedUntouchedPools(t *testing.T) {
	sysCfg, _ := multiTestConfigs(5, 8, 2, 3)
	sysCfg.PipelineDepth = 2
	users := []string{"u-0", "u-1"}
	sys, err := NewMultiSystem(sysCfg, users)
	if err != nil {
		t.Fatal(err)
	}
	pools := sys.PoolIDs()
	// Epoch 1 trades only pool 0; epoch 2 only the last pool; epoch 3
	// nothing at all.
	sys.OnEpochStart = func(epoch uint64) {
		var pid string
		switch epoch {
		case 1:
			pid = pools[0]
		case 2:
			pid = pools[len(pools)-1]
		default:
			return
		}
		tx := &summary.Tx{
			ID: fmt.Sprintf("ptx-e%d", epoch), Kind: gasmodel.KindSwap, User: "u-0",
			PoolID: pid, ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1_000_000),
		}
		if _, err := sys.Submit(context.Background(), tx); err != nil {
			t.Errorf("submit epoch %d: %v", epoch, err)
		}
	}
	rep, err := sys.Run(3)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.SyncsOK != rep.EpochsRun {
		t.Errorf("SyncsOK = %d, want %d", rep.SyncsOK, rep.EpochsRun)
	}
	// (Validate is skipped: a pool that never trades keeps its genesis
	// position out of every sync payload, so the bank never learns it —
	// identical behavior at depth 1; this test only pins pipelining.)
	if len(rep.SummaryRoots) < 3 {
		t.Fatalf("recorded %d summary roots, want >= 3", len(rep.SummaryRoots))
	}
	// Epoch 3 touched nothing: its root must equal epoch 2's (identical
	// state, answered from the commitment caches of sealed pools).
	if rep.SummaryRoots[2] == rep.SummaryRoots[1] {
		t.Error("epoch 2 root should differ from epoch 1 (different pools traded)")
	}
	if rep.SummaryRoots[3] != rep.SummaryRoots[2] {
		t.Error("idle epoch 3 root should equal epoch 2's")
	}
}

// packedPart is what the mainchain recorded for one sync part.
type packedPart struct {
	id     string
	block  uint64
	status mainchain.TxStatus
	gas    uint64
}

// packedRun is what runPackedSyncs observed on the mainchain.
type packedRun struct {
	rep       *chain.Report
	submitted int // sync parts submitted
	// waited counts the parts included in a later block than their
	// epoch's first: an epoch's parts become eligible together, so those
	// were left in the mempool for want of gas.
	waited int
	parts  []packedPart // in confirmation order
}

// runPackedSyncs runs a pipelined deployment whose epochs split into many
// sync parts on a mainchain whose blocks hold little more than one of
// them (a 1.5M block limit caps parts at 1M gas), so most parts wait
// several blocks for room.
func runPackedSyncs(t *testing.T, corrupt map[uint64]bool) (packedRun, error) {
	t.Helper()
	const epochs, pools = 3, 32
	sysCfg, _ := multiTestConfigs(5, pools, 4, epochs)
	sysCfg.PipelineDepth = 2
	sysCfg.Mainchain = mainchain.DefaultConfig()
	sysCfg.Mainchain.GasLimit = 1_500_000
	sysCfg.Faults.CorruptSyncEpochs = corrupt
	wcfg := workload.DefaultMultiConfig(5, pools)
	wcfg.NumUsers = 20
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(sysCfg, gen.Users())
	if err != nil {
		t.Fatal(err)
	}
	var run packedRun
	sys.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventSyncSubmitted {
			run.submitted += ev.Parts
		}
	})
	firstBlock := make(map[uint64]uint64)
	sys.mc.OnBlock = append(sys.mc.OnBlock, func(blk *mainchain.Block) {
		for _, tx := range blk.Txs {
			args, ok := tx.Args.(*mainchain.MultiSyncArgs)
			if !ok {
				continue
			}
			if tx.GasLimit == 0 || tx.GasUsed > tx.GasLimit {
				t.Errorf("%s: used %d of a declared %d gas", tx.ID, tx.GasUsed, tx.GasLimit)
			}
			if first, seen := firstBlock[args.Epoch]; !seen {
				firstBlock[args.Epoch] = blk.Number
			} else if blk.Number > first {
				run.waited++
			}
			run.parts = append(run.parts, packedPart{tx.ID, tx.BlockNum, tx.Status, tx.GasUsed})
		}
	})
	sys.OnEpochStart = func(uint64) {
		for i := 0; i < 4*pools; i++ {
			// A halted node refuses further submissions; the corrupt run
			// asserts on the run error instead.
			_, _ = sys.Submit(context.Background(), gen.Next())
		}
	}
	run.rep, err = sys.Run(epochs)
	return run, err
}

// TestPackedSyncPartsVerifyOncePerPart: when blocks fill up, parts wait
// for room without being executed — every part is executed, verified and
// applied exactly once — and what the chain records (block, status, gas
// per part) is identical on a second run.
func TestPackedSyncPartsVerifyOncePerPart(t *testing.T) {
	run, err := runPackedSyncs(t, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, sp := run.rep, run.rep.SyncParts
	if rep.SyncsOK != rep.EpochsRun || int(sp.PartsApplied) != run.submitted {
		t.Fatalf("%d syncs over %d epochs, %d of %d parts applied", rep.SyncsOK, rep.EpochsRun, sp.PartsApplied, run.submitted)
	}
	if run.submitted < 3*rep.EpochsRun {
		t.Fatalf("only %d parts over %d epochs: the deployment no longer splits its syncs", run.submitted, rep.EpochsRun)
	}
	if run.waited == 0 {
		t.Fatalf("no part ever waited for gas: the deployment no longer packs its blocks full")
	}
	if sp.PartExecs != sp.PartsApplied || sp.SigVerifies != sp.PartsApplied {
		t.Errorf("%d executions and %d verifications for %d parts, want one each", sp.PartExecs, sp.SigVerifies, sp.PartsApplied)
	}
	again, err := runPackedSyncs(t, nil)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !slices.Equal(run.parts, again.parts) {
		t.Errorf("sync parts differ between two runs of the same deployment:\n%v\n%v", run.parts, again.parts)
	}
}

// TestPackedCorruptSyncStillReverts: the same packed deployment with an
// equivocating epoch-2 committee still halts on ErrBadSyncSignature.
func TestPackedCorruptSyncStillReverts(t *testing.T) {
	run, err := runPackedSyncs(t, map[uint64]bool{2: true})
	rep := run.rep
	if !errors.Is(err, chain.ErrSyncReverted) || !strings.Contains(err.Error(), mainchain.ErrBadSyncSignature.Error()) {
		t.Fatalf("err = %v, want ErrSyncReverted carrying %v", err, mainchain.ErrBadSyncSignature)
	}
	if rep.SyncsOK != 1 {
		t.Errorf("SyncsOK = %d, want 1 (only epoch 1 synced)", rep.SyncsOK)
	}
	sp := rep.SyncParts
	if sp.SigVerifies <= sp.PartsApplied {
		t.Errorf("%d verifications for %d applied parts: the rejected parts were not verified (%+v)", sp.SigVerifies, sp.PartsApplied, sp)
	}
}

// TestSyncPartsFitTheBlockGasLimit: sync parts are sized from the
// mainchain's block gas limit, so a chain with smaller blocks splits each
// epoch into more parts instead of halting on a part no block can hold.
func TestSyncPartsFitTheBlockGasLimit(t *testing.T) {
	for _, limit := range []uint64{4_000_000, 15_000_000} {
		t.Run(fmt.Sprintf("gas-limit-%dM", limit/1_000_000), func(t *testing.T) {
			sysCfg, drvCfg := multiTestConfigs(11, 64, 2, 3)
			sysCfg.Mainchain = mainchain.DefaultConfig()
			sysCfg.Mainchain.GasLimit = limit
			sys, _, err := NewMultiDriver(sysCfg, drvCfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Run(drvCfg.Epochs)
			if err != nil {
				t.Fatalf("run: %v (%+v)", err, rep.SyncParts)
			}
			if rep.SyncsOK != rep.EpochsRun {
				t.Errorf("%d of %d epochs synced", rep.SyncsOK, rep.EpochsRun)
			}
			if err := sys.Validate(); err != nil {
				t.Errorf("validate: %v", err)
			}
			t.Logf("%d sync parts applied", rep.SyncParts.PartsApplied)
		})
	}
}
