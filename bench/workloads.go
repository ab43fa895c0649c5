package main

import (
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/workload"
)

// Fixed drive parameters, shared by every workload. None is derived from
// the host: a 2-producer closed loop on a 1-CPU box is still the same
// offered load, just measured without parallelism (flagged in the report).
const (
	numProducers = 2
	submitBatch  = 64
	numShards    = 2
	numUsers     = 100
	// nominalTrial is what one trial is sized to take on the reference
	// host; -seconds / nominalTrial is the trial count of a run.
	nominalTrial = 5 * time.Second
)

// spec is one workload: a deployment shape plus a traffic mix, sized so a
// trial is about nominalTrial of wall clock on the reference 2-CPU host.
type spec struct {
	name string
	why  string

	pools       int
	mix         workload.Distribution
	epochRounds int
	ingestCap   int
	committee   int
	durable     bool
	// txs is the offered load of one trial across both producers.
	txs int
}

var lpHeavy = workload.Distribution{SwapPct: 40, MintPct: 20, BurnPct: 20, CollectPct: 20}

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names (pinned by TestBenchmarkJSONMatchesHarness).
var workloads = []spec{
	{
		name:  "swap-hot",
		why:   "execute-bound: Zipf-1.2 Table VII traffic on 8 pools, long epochs, so engine/summary/amm/u256 dominate and signing is noise",
		pools: 8, mix: workload.UniswapDistribution, epochRounds: 30, ingestCap: 1024, committee: 20,
		txs: 400_000,
	},
	{
		name:  "lp-churn",
		why:   "same execute layer through the position path: 40/20/20/20 swap/mint/burn/collect, so a swap-only gain paid for by mint/burn/collect or larger sync payloads shows as a loss",
		pools: 8, mix: lpHeavy, epochRounds: 30, ingestCap: 1024, committee: 20,
		txs: 540_000,
	},
	{
		name:  "wide-sparse",
		why:   "commit-bound: 1024 mostly idle pools, 3-round epochs, committee 64, so tsig signing, sync verification, seal and the pipeline stall dominate and execution is bypassed",
		pools: 1024, mix: workload.UniswapDistribution, epochRounds: 3, ingestCap: 512, committee: 64,
		txs: 60_000,
	},
	{
		name:  "durable",
		why:   "store-bound: 64 pools with a real on-disk store, fsync every epoch and compaction every 8, then core.Open on what the run wrote",
		pools: 64, mix: workload.UniswapDistribution, epochRounds: 6, ingestCap: 1024, committee: 20, durable: true,
		txs: 260_000,
	},
}

func findSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// trafficConfig is the generator configuration: the paper's population
// (100 users, a quarter of them LPs) over the workload's pools and mix.
// Larger LP populations are not an option — see README, "found while
// building" (b): a pool's sync payload is never split across parts.
func (w spec) trafficConfig(seed int64) workload.MultiConfig {
	cfg := workload.DefaultMultiConfig(seed, w.pools)
	cfg.Distribution = w.mix
	cfg.NumUsers = numUsers
	return cfg
}

// nodeConfig is the deployment every trial of the workload runs: the
// paper's round length and meta-block size, two shards, pipeline depth 2,
// and an admission wall of one round's worth so producers block in Admit
// until the next drain instead of spinning.
func (w spec) nodeConfig(seed int64, users []string) chain.Config {
	cfg := chain.Config{
		Seed:           seed,
		NumPools:       w.pools,
		NumShards:      numShards,
		PipelineDepth:  2,
		EpochRounds:    w.epochRounds,
		RoundDuration:  7 * time.Second,
		MetaBlockBytes: 1 << 20,
		CommitteeSize:  w.committee,
		IngestCapacity: w.ingestCap,
		IngestMaxWait:  2 * time.Second,
		Users:          users,
	}
	if w.durable {
		cfg.StoreFsyncEvery = 1
		cfg.CompactEvery = 8
	}
	return cfg
}

// streams generates the per-producer transaction streams for one trial.
// Producer 0 opens with a swap on every pool (drawing from the pool's own
// generator until one comes up), so every pool's genesis position has
// earned fees and reached the bank by the end of the run: on a pool that
// saw no swap, MultiSystem.Validate reports the genesis position as
// missing (README, "found while building" (a)), and on 1024 Zipf-ranked
// pools the tail otherwise stays untouched.
func (w spec) streams(seed int64) (txs [][]*summary.Tx, users []string) {
	gens := workload.Producers(w.trafficConfig(seed), numProducers)
	txs = make([][]*summary.Tx, numProducers)
	per := w.txs / numProducers
	for p, g := range gens {
		s := make([]*summary.Tx, 0, per)
		if p == 0 {
			for _, id := range g.PoolIDs() {
				for swapped := false; !swapped; {
					tx := g.NextFor(id)
					swapped = tx.Kind == gasmodel.KindSwap
					s = append(s, tx)
				}
			}
		}
		for len(s) < per {
			s = append(s, g.Next())
		}
		txs[p] = s
	}
	return txs, gens[0].Users()
}
