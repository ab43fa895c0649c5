package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"ammboost/internal/gasmodel"
	"ammboost/internal/mainchain"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
)

// sparsePlan names, per epoch, the indexes of the pools that see traffic;
// every other pool is idle that epoch, and an epoch absent from the plan
// is traffic-free.
var sparsePlan = map[uint64][]int{
	1: {0, 3},
	2: {5},
	4: {1, 3, 6},
	5: {2},
	6: {4, 7},
}

// driveSparse submits two swaps on each of the epoch's planned pools at
// its start; traffic depends on the epoch alone, so a reopened node sees
// the stream the uninterrupted run saw.
func driveSparse(t *testing.T, ms *MultiSystem) {
	t.Helper()
	pools := ms.PoolIDs()
	users := ms.cfg.Users
	ms.OnEpochStart = func(epoch uint64) {
		for _, pi := range sparsePlan[epoch] {
			for k := 0; k < 2; k++ {
				tx := &summary.Tx{ID: fmt.Sprintf("sp-e%d-p%d-%d", epoch, pi, k), Kind: gasmodel.KindSwap,
					User: users[k], PoolID: pools[pi], ZeroForOne: k == 0, ExactIn: true,
					Amount: u256.FromUint64(50_000)}
				if _, err := ms.Submit(context.Background(), tx); err != nil {
					t.Errorf("submit %s: %v", tx.ID, err)
				}
			}
		}
	}
}

// sparsePoolsOf returns the pool IDs sparsePlan trades in epoch e, in
// canonical order.
func sparsePoolsOf(ms *MultiSystem, e uint64) []string {
	var ids []string
	for _, pi := range sparsePlan[e] {
		ids = append(ids, ms.PoolIDs()[pi])
	}
	slices.Sort(ids)
	return ids
}

// epochParts returns the sync parts of epoch e the node's mainchain
// holds, in part order.
func epochParts(ms *MultiSystem, e uint64) []*mainchain.MultiSyncArgs {
	var parts []*mainchain.MultiSyncArgs
	for _, id := range ms.uplink.partIDs(e, 64) {
		tx := ms.mc.TxByID(id)
		if tx == nil {
			break
		}
		parts = append(parts, tx.Args.(*mainchain.MultiSyncArgs))
	}
	return parts
}

// runSparse runs sparsePlan over 7 epochs on an 8-pool node whose parts
// hold at most two pools' payloads, so busy epochs sync in several parts.
func runSparse(t *testing.T) *MultiSystem {
	t.Helper()
	cfg := recoveryCfg(17, 8, 2, 2)
	cfg.Mainchain = mainchain.DefaultConfig()
	cfg.Mainchain.GasLimit = 1_500_000
	cfg.Tracer = trace.New(8)
	ms, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	driveSparse(t, ms)
	rep, err := ms.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SyncsOK != rep.EpochsRun || rep.EpochsRun != 7 {
		t.Fatalf("SyncsOK %d over %d epochs, want 7 of 7", rep.SyncsOK, rep.EpochsRun)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestIdlePoolsSendNothing: an epoch's sync parts carry exactly the pools
// it traded, in canonical order, while every pool still has its payload
// digest in the epoch's fingerprint (the sidechain summary is unchanged),
// and the bank ends in parity with the engine. The epoch's chunk span
// counts the pools that synced.
func TestIdlePoolsSendNothing(t *testing.T) {
	ms := runSparse(t)
	fp := ms.Fingerprint(nil)
	chunked := make(map[uint64]int)
	for _, rec := range ms.tr.Snapshot(0) {
		if rec.Stage == trace.StageChunk {
			chunked[rec.Epoch] = rec.Pools
		}
	}
	multiPart := false
	for e := uint64(1); e <= 7; e++ {
		var synced []string
		parts := epochParts(ms, e)
		multiPart = multiPart || len(parts) > 1
		for _, a := range parts {
			for _, p := range a.Payloads {
				synced = append(synced, p.PoolID)
			}
		}
		if want := sparsePoolsOf(ms, e); !slices.Equal(synced, want) {
			t.Errorf("epoch %d: parts carry pools %v, want the traded %v", e, synced, want)
		}
		if chunked[e] != len(synced) {
			t.Errorf("epoch %d: chunk span counts %d pools, %d synced", e, chunked[e], len(synced))
		}
		if n := len(fp.Epochs[e].Payloads); n != 8 {
			t.Errorf("epoch %d: fingerprint holds %d payload digests, want all 8 pools'", e, n)
		}
	}
	if !multiPart {
		t.Error("no epoch synced in more than one part")
	}
}

// TestTrafficFreeEpochSyncsOnePart: an epoch no pool traded in still
// syncs — one part with no payloads, carrying the summary root and the
// next committee key — so SyncsOK keeps pace with the epochs run.
func TestTrafficFreeEpochSyncsOnePart(t *testing.T) {
	ms := runSparse(t)
	for _, e := range []uint64{3, 7} {
		parts := epochParts(ms, e)
		if len(parts) != 1 || len(parts[0].Payloads) != 0 || parts[0].NumParts != 1 {
			t.Fatalf("traffic-free epoch %d synced as %d parts, want one with no payloads", e, len(parts))
		}
		if parts[0].SummaryRoot != ms.SummaryRoots[e] {
			t.Errorf("traffic-free epoch %d: part carries root %x, want %x", e, parts[0].SummaryRoot, ms.SummaryRoots[e])
		}
		if got := ms.Bank().SummaryRoots[e]; got != ms.SummaryRoots[e] {
			t.Errorf("traffic-free epoch %d: bank holds root %x, want %x", e, got, ms.SummaryRoots[e])
		}
	}
}
