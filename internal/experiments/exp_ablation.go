package experiments

import (
	"fmt"

	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// AblationResult quantifies the design choices DESIGN.md §6 calls out:
// pruning, TSQC authentication, summary folding, and mass-sync batching.
type AblationResult struct {
	// Pruning: sidechain bytes with and without meta-block suppression.
	RetainedBytes  int
	UnprunedBytes  int
	PruningSavePct float64

	// TSQC vs naive multi-signature sync authentication (on-chain gas).
	TSQCGas     uint64
	MultisigGas uint64
	TSQCSavePct float64
	CommitteeN  int
	QuorumVotes int

	// Summary folding: per-user payload vs raw per-tx sync payload.
	FoldedSyncBytes int
	RawSyncBytes    int
	FoldSavePct     float64
	TxsSummarized   int

	// Mass-sync: gas of one combined recovery sync vs separate syncs.
	MassSyncGas     uint64
	SeparateSyncGas uint64
	MassSavePct     float64
}

// RunAblations measures the four ablations on a V_D = 500K run.
func RunAblations(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	rep, ledger, err := runAmmBoost(paperDeployment(o, 500_000))
	if err != nil {
		return nil, err
	}
	res := &AblationResult{
		RetainedBytes: rep.SidechainRetainedBytes,
		UnprunedBytes: rep.SidechainUnpruned,
	}
	if res.UnprunedBytes > 0 {
		res.PruningSavePct = 100 * (1 - float64(res.RetainedBytes)/float64(res.UnprunedBytes))
	}

	// TSQC: one pairing + one ecMUL + hash, independent of quorum size.
	// Naive multisig: the contract verifies 2f+2 individual signatures
	// (ecrecover ≈ 3000 gas each) plus calldata for each 65-byte sig.
	n := o.CommitteeSize
	f := (n - 2) / 3
	quorum := 2*f + 2
	sumBytes := 40_000 // representative epoch summary
	res.CommitteeN = n
	res.QuorumVotes = quorum
	res.TSQCGas = gasmodel.SyncAuthGas(sumBytes)
	const ecrecoverGas = 3_000
	const calldataPerSigGas = 65 * 16
	res.MultisigGas = uint64(quorum) * (ecrecoverGas + calldataPerSigGas + gasmodel.KeccakGas(65))
	res.TSQCSavePct = 100 * (1 - float64(res.TSQCGas)/float64(res.MultisigGas))

	// Summary folding: the synced payload vs shipping every sidechain tx.
	var folded, raw, txs int
	for _, sb := range ledger.Summaries() {
		folded += sb.Payload.MainchainBytes()
	}
	txs = ledger.TotalTxs()
	raw = txs * gasmodel.MainnetSwapTxBytes // lower bound: swap-sized entries
	res.FoldedSyncBytes = folded
	res.RawSyncBytes = raw
	res.TxsSummarized = txs
	if raw > 0 {
		res.FoldSavePct = 100 * (1 - float64(folded)/float64(raw))
	}

	// Mass-sync: recovering k epochs in one call amortizes the base cost
	// and the single TSQC verification. This row models the paper's
	// one-call design; the node's mass-sync sends each held epoch's own
	// parts and pays one authentication per carried epoch.
	const k = 3
	payload := &summary.SyncPayload{
		Epoch:        1,
		Payouts:      make([]summary.PayoutEntry, 100),
		Positions:    make([]summary.PositionEntry, 40),
		PoolReserve0: u256.FromUint64(1), PoolReserve1: u256.FromUint64(1),
	}
	per := gasmodel.SyncGas(len(payload.Payouts), len(payload.Positions), payload.MainchainBytes())
	res.SeparateSyncGas = uint64(k) * per
	// One combined call: k× the entry work, 1× base + auth.
	entryWork := per - gasmodel.TxBaseGas - gasmodel.SyncAuthGas(payload.MainchainBytes())
	res.MassSyncGas = gasmodel.TxBaseGas + gasmodel.SyncAuthGas(k*payload.MainchainBytes()) + uint64(k)*entryWork
	res.MassSavePct = 100 * (1 - float64(res.MassSyncGas)/float64(res.SeparateSyncGas))
	return res, nil
}

// Render implements Result.
func (r *AblationResult) Render() string {
	t := &table{
		title:   "Ablations: design-choice contributions (V_D = 500K)",
		headers: []string{"Ablation", "With", "Without", "Saving"},
	}
	t.add("Meta-block pruning (sidechain bytes)",
		fmt.Sprintf("%d", r.RetainedBytes), fmt.Sprintf("%d", r.UnprunedBytes),
		fmt.Sprintf("%.2f%%", r.PruningSavePct))
	t.add(fmt.Sprintf("TSQC vs %d-sig multisig (auth gas)", r.QuorumVotes),
		fmt.Sprintf("%d", r.TSQCGas), fmt.Sprintf("%d", r.MultisigGas),
		fmt.Sprintf("%.2f%%", r.TSQCSavePct))
	t.add(fmt.Sprintf("Summary folding over %d txs (sync bytes)", r.TxsSummarized),
		fmt.Sprintf("%d", r.FoldedSyncBytes), fmt.Sprintf("%d", r.RawSyncBytes),
		fmt.Sprintf("%.2f%%", r.FoldSavePct))
	t.add("Mass-sync over 3 epochs (gas)",
		fmt.Sprintf("%d", r.MassSyncGas), fmt.Sprintf("%d", r.SeparateSyncGas),
		fmt.Sprintf("%.2f%%", r.MassSavePct))
	return t.String()
}
