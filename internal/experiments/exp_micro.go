package experiments

import (
	"fmt"
	"time"

	"ammboost/internal/baseline"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// --- Table II: ammBoost itemized mainchain gas + latency ---

// Table2Result carries the itemized Sync/deposit costs.
type Table2Result struct {
	PayoutEntryGas    uint64
	StoragePerWordGas uint64
	HashToPointGas    string
	EcMulGas          uint64
	PairingGas        uint64
	DepositGas        float64
	SyncMCLatency     time.Duration
	DepositMCLatency  time.Duration // first-time flow: 2 approvals + 2 legs
	DepositSteadyLat  time.Duration // re-deposit: 2 legs only
	AvgSyncGas        float64
	SyncSamples       int
}

// RunTable2 measures the itemized costs with a V_D = 500K (10x Uniswap)
// run, as the paper does.
func RunTable2(o Options) (*Table2Result, error) {
	o = o.withDefaults()
	rep, _, err := runAmmBoost(paperDeployment(o, 500_000))
	if err != nil {
		return nil, err
	}
	syncGas, n := rep.Collector.AvgGas("sync")
	depGas, _ := rep.Collector.AvgGas("deposit")
	syncLat, _ := rep.Collector.AvgMCLatency("sync")
	depLat, _ := rep.Collector.AvgMCLatency("deposit-first")
	depSteady, _ := rep.Collector.AvgMCLatency("deposit")
	return &Table2Result{
		PayoutEntryGas:    gasmodel.PayoutEntryGas,
		StoragePerWordGas: gasmodel.SstoreWordGas,
		HashToPointGas:    fmt.Sprintf("%d + %d/word (Keccak256)", gasmodel.KeccakBaseGas, gasmodel.KeccakWordGas),
		EcMulGas:          gasmodel.EcMulGas,
		PairingGas:        gasmodel.PairingGas,
		DepositGas:        depGas,
		SyncMCLatency:     syncLat,
		DepositMCLatency:  depLat,
		DepositSteadyLat:  depSteady,
		AvgSyncGas:        syncGas,
		SyncSamples:       n,
	}, nil
}

// Render implements Result.
func (r *Table2Result) Render() string {
	t := &table{
		title:   "Table II: mainchain latency and itemized gas cost for ammBoost operations",
		headers: []string{"Component", "Avg. gas", "MC latency (s)"},
	}
	t.add("Sync: payout (each)", fmt.Sprintf("%d", r.PayoutEntryGas), "")
	t.add("Sync: storage (per 32B word)", fmt.Sprintf("%d", r.StoragePerWordGas), "")
	t.add("Sync: auth hash-to-point", r.HashToPointGas, "")
	t.add("Sync: auth ecMUL", fmt.Sprintf("%d", r.EcMulGas), "")
	t.add("Sync: auth pairing", fmt.Sprintf("%d", r.PairingGas), "")
	t.add("Sync: total (measured avg)", fmt.Sprintf("%.0f", r.AvgSyncGas), secs(r.SyncMCLatency))
	t.add("Deposit (2 tokens, first: 2 approvals + 2 legs)", fmt.Sprintf("%.0f", r.DepositGas), secs(r.DepositMCLatency))
	t.add("Deposit (2 tokens, steady state)", fmt.Sprintf("%.0f", r.DepositGas), secs(r.DepositSteadyLat))
	return t.String()
}

// --- Table III: baseline Uniswap per-operation gas + latency ---

// Table3Result reports the baseline per-operation means.
type Table3Result struct {
	Gas     map[gasmodel.TxKind]float64
	Latency map[gasmodel.TxKind]time.Duration
	Samples map[gasmodel.TxKind]int
}

// RunTable3 microbenchmarks each operation kind on the L1 baseline.
func RunTable3(o Options) (*Table3Result, error) {
	o = o.withDefaults()
	r, err := baseline.New(baseline.Config{Sizes: baseline.SizesSepolia})
	if err != nil {
		return nil, err
	}
	gen := workload.New(workload.DefaultConfig(o.Seed))
	// Enough traffic to observe every kind, spread over the run.
	for i := 0; i < 400; i++ {
		at := time.Duration(i) * 3 * time.Second
		r.Sim().At(at, func() { r.Submit(gen.Next()) })
	}
	r.Run(1300 * time.Second)
	res := &Table3Result{
		Gas:     make(map[gasmodel.TxKind]float64),
		Latency: make(map[gasmodel.TxKind]time.Duration),
		Samples: make(map[gasmodel.TxKind]int),
	}
	for _, k := range []gasmodel.TxKind{gasmodel.KindSwap, gasmodel.KindMint, gasmodel.KindBurn, gasmodel.KindCollect} {
		g, n := r.Collector().AvgGas(k.String())
		lat, _ := r.Collector().AvgMCLatency(k.String())
		res.Gas[k], res.Latency[k], res.Samples[k] = g, lat, n
	}
	return res, nil
}

// Render implements Result.
func (r *Table3Result) Render() string {
	t := &table{
		title:   "Table III: mainchain latency and gas cost for baseline Uniswap",
		headers: []string{"Operation", "Avg. gas", "MC latency (s)", "Samples"},
	}
	for _, k := range []gasmodel.TxKind{gasmodel.KindSwap, gasmodel.KindMint, gasmodel.KindBurn, gasmodel.KindCollect} {
		t.add(k.String(), fmt.Sprintf("%.2f", r.Gas[k]), secs(r.Latency[k]), fmt.Sprintf("%d", r.Samples[k]))
	}
	return t.String()
}

// --- Table IV: operation storage overhead ---

// Table4Result reports per-entry byte sizes on both chains.
type Table4Result struct {
	PayoutMainchain   int
	PayoutSidechain   int
	PositionMainchain int
	PositionSidechain int
	GroupKeyBytes     int
	SignatureBytes    int
	UniswapSepolia    map[gasmodel.TxKind]int
	EncoderPayoutOK   bool
	EncoderPositionOK bool
}

// RunTable4 derives the sizes from the actual encoders and cross-checks
// them against the gasmodel constants.
func RunTable4(Options) (*Table4Result, error) {
	// One entry of each kind, encoded alone, so each size is checked on
	// its own.
	payout := (&summary.SyncPayload{
		Payouts: []summary.PayoutEntry{{User: "u", Amount0: u256.FromUint64(5)}},
	}).EncodeBinary()
	position := (&summary.SyncPayload{
		Positions: []summary.PositionEntry{{ID: "p", Owner: "u", Liquidity: u256.FromUint64(9)}},
	}).EncodeBinary()
	res := &Table4Result{
		PayoutMainchain:   gasmodel.ABIPayoutEntryBytes,
		PayoutSidechain:   gasmodel.SCPayoutEntryBytes,
		PositionMainchain: gasmodel.ABIPositionEntryBytes,
		PositionSidechain: gasmodel.SCPositionEntryBytes,
		GroupKeyBytes:     gasmodel.ABIGroupKeyBytes,
		SignatureBytes:    gasmodel.ABISignatureBytes,
		UniswapSepolia: map[gasmodel.TxKind]int{
			gasmodel.KindSwap:    gasmodel.SepoliaSwapTxBytes,
			gasmodel.KindMint:    gasmodel.SepoliaMintTxBytes,
			gasmodel.KindBurn:    gasmodel.SepoliaBurnTxBytes,
			gasmodel.KindCollect: gasmodel.SepoliaCollectTxBytes,
		},
		EncoderPayoutOK:   len(payout) == gasmodel.SCPayoutEntryBytes,
		EncoderPositionOK: len(position) == gasmodel.SCPositionEntryBytes,
	}
	return res, nil
}

// Render implements Result.
func (r *Table4Result) Render() string {
	t := &table{
		title:   "Table IV: operation storage overhead (bytes)",
		headers: []string{"Entry", "Mainchain (ABI)", "Sidechain (binary)"},
	}
	t.add("Payout entry", fmt.Sprintf("%d", r.PayoutMainchain), fmt.Sprintf("%d", r.PayoutSidechain))
	t.add("Position entry", fmt.Sprintf("%d", r.PositionMainchain), fmt.Sprintf("%d", r.PositionSidechain))
	t.add("vk_c", fmt.Sprintf("%d", r.GroupKeyBytes), "")
	t.add("Signature", fmt.Sprintf("%d", r.SignatureBytes), "")
	t.add("", "", "")
	t.add("Uniswap swap tx", fmt.Sprintf("%d", r.UniswapSepolia[gasmodel.KindSwap]), "")
	t.add("Uniswap mint tx", fmt.Sprintf("%d", r.UniswapSepolia[gasmodel.KindMint]), "")
	t.add("Uniswap burn tx", fmt.Sprintf("%d", r.UniswapSepolia[gasmodel.KindBurn]), "")
	t.add("Uniswap collect tx", fmt.Sprintf("%d", r.UniswapSepolia[gasmodel.KindCollect]), "")
	t.add("Encoder check (binary sizes)", fmt.Sprintf("%v", r.EncoderPayoutOK && r.EncoderPositionOK), "")
	return t.String()
}
