package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// benchSystem builds a small paper deployment (NewDriver's node, without
// its traffic) for submit-path benchmarks.
func benchSystem(b *testing.B) (*MultiSystem, []*summary.Tx) {
	b.Helper()
	gen := workload.New(workload.DefaultConfig(42))
	sys, err := newMultiSystem(nil, smallConfig(42), gen.Users(), newPaperBank)
	if err != nil {
		b.Fatal(err)
	}
	// A fixed pre-generated stream so both variants submit identical
	// transactions.
	txs := make([]*summary.Tx, 4096)
	for i := range txs {
		txs[i] = gen.Next()
	}
	return sys, txs
}

// BenchmarkSubmitReceipt measures the single-transaction serving path:
// up-front validation (pool, shape, user), receipt allocation, and —
// since the concurrent ingest front end — admission into the sharded
// mempool, with the periodic drain a running lifecycle performs at
// round boundaries amortized in (without it occupancy only grows and
// the benchmark measures a mempool at the capacity wall, a state no
// healthy node serves from).
func BenchmarkSubmitReceipt(b *testing.B) {
	sys, txs := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Submit(context.Background(), txs[i%len(txs)]); err != nil {
			b.Fatal(err)
		}
		if sys.ingest.Len() >= 4096 {
			sys.ingest.Drain()
		}
	}
}

// benchPipelineOpts sizes BenchmarkEpochPipeline: a 256-pool deployment
// where traffic touches at most 10% of the pools (the paper's skewed
// multi-pool regime), enough rounds and signing work per epoch that the
// commit/sync stage is comparable to execution — the pipelining sweet
// spot the ROADMAP's heavy-traffic node lives in.
const (
	benchPipePools      = 256
	benchPipeActive     = 25 // <= 10% of pools carry traffic
	benchPipeShards     = 4
	benchPipeEpochs     = 6
	benchPipeRounds     = 5
	benchPipeTxPerRound = 2000
	benchPipeCommittee  = 180
)

// benchPipelineSystem builds one fully scheduled deployment: committees
// pre-provisioned for every epoch (key dealing is identical work at
// every depth and would only dilute the measured lifecycle), and the
// whole transaction stream pre-scheduled on the simulator.
func benchPipelineSystem(b testing.TB, depth int) *MultiSystem {
	b.Helper()
	cfg := chain.Config{
		Seed:           42,
		NumPools:       benchPipePools,
		NumShards:      benchPipeShards,
		EpochRounds:    benchPipeRounds,
		RoundDuration:  7 * time.Second,
		CommitteeSize:  benchPipeCommittee,
		MetaBlockBytes: 8 << 20, // rounds always pack their full arrivals
		PipelineDepth:  depth,
	}
	wcfg := workload.DefaultMultiConfig(42, benchPipeActive)
	gen := workload.NewMulti(wcfg)
	sys, err := NewMultiSystem(cfg, gen.Users())
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(2); e <= benchPipeEpochs+2; e++ {
		if _, ok := sys.committees[e]; ok {
			continue
		}
		ck, err := provisionCommittee(sys.registry, sys.chainSeed, e, cfg.CommitteeSize)
		if err != nil {
			b.Fatal(err)
		}
		sys.committees[e] = ck
	}
	rd := sys.cfg.RoundDuration
	for r := 0; r < benchPipeEpochs*benchPipeRounds; r++ {
		roundStart := time.Duration(r) * rd
		for i := 0; i < benchPipeTxPerRound; i++ {
			at := roundStart + time.Duration(float64(rd)*float64(i)/float64(benchPipeTxPerRound))
			sys.Sim().At(at, func() { sys.Submit(context.Background(), gen.Next()) })
		}
	}
	return sys
}

// BenchmarkEpochPipeline measures wall-clock epoch throughput of the full
// multi-pool lifecycle — sharded execution, commitment build, chunked
// TSQC-signed sync, confirmation, pruning — at PipelineDepth 1 (a window
// of one) and 2 (commit/sync overlapped with next-epoch
// execution). One op is a complete 6-epoch run.
func BenchmarkEpochPipeline(b *testing.B) {
	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := benchPipelineSystem(b, depth)
				b.StartTimer()
				rep, err := sys.Run(benchPipeEpochs)
				if err != nil {
					b.Fatal(err)
				}
				if rep.SyncsOK != rep.EpochsRun {
					b.Fatalf("SyncsOK = %d, want %d", rep.SyncsOK, rep.EpochsRun)
				}
			}
		})
	}
}

// benchPersist sizes BenchmarkEpochPersist: the PR 2 epoch-close regime
// (256 pools, <= 10% active) run at PipelineDepth 1 so the
// durable store's cost — snapshot encode, receipt suffix, append, fsync
// — lands entirely on the measured path rather than hiding behind the
// pipeline's overlap.
const (
	benchPersistPools      = 256
	benchPersistActive     = 25
	benchPersistShards     = 4
	benchPersistEpochs     = 4
	benchPersistRounds     = 3
	benchPersistTxPerRound = 800
	benchPersistCommittee  = 60
)

// benchPersistSystem builds the deployment; dir == "" runs storeless,
// compactEvery > 0 additionally rewrites the log at that epoch cadence.
func benchPersistSystem(b *testing.B, dir string, compactEvery int) *MultiSystem {
	b.Helper()
	wcfg := workload.DefaultMultiConfig(42, benchPersistActive)
	gen := workload.NewMulti(wcfg)
	cfg := chain.Config{
		Seed:           42,
		NumPools:       benchPersistPools,
		NumShards:      benchPersistShards,
		EpochRounds:    benchPersistRounds,
		RoundDuration:  7 * time.Second,
		CommitteeSize:  benchPersistCommittee,
		MetaBlockBytes: 8 << 20,
		PipelineDepth:  1,
		CompactEvery:   compactEvery,
		Users:          gen.Users(),
	}
	var sys *MultiSystem
	if dir == "" {
		s, err := NewMultiSystem(cfg, cfg.Users)
		if err != nil {
			b.Fatal(err)
		}
		sys = s
	} else {
		node, err := Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys = node.(*MultiSystem)
	}
	for e := uint64(2); e <= benchPersistEpochs+2; e++ {
		if _, ok := sys.committees[e]; ok {
			continue
		}
		ck, err := provisionCommittee(sys.registry, sys.chainSeed, e, cfg.CommitteeSize)
		if err != nil {
			b.Fatal(err)
		}
		sys.committees[e] = ck
	}
	rd := sys.cfg.RoundDuration
	for r := 0; r < benchPersistEpochs*benchPersistRounds; r++ {
		roundStart := time.Duration(r) * rd
		for i := 0; i < benchPersistTxPerRound; i++ {
			at := roundStart + time.Duration(float64(rd)*float64(i)/float64(benchPersistTxPerRound))
			sys.Sim().At(at, func() { sys.Submit(context.Background(), gen.Next()) })
		}
	}
	return sys
}

// BenchmarkEpochPersist measures what durable epoch snapshots cost the
// depth-1 lifecycle: store=off is the in-memory reference, store=on
// persists every retired epoch (snapshot record, sync-part log, receipt
// table, one fsync per epoch) to a real directory, and store=compact
// additionally rewrites the log at a 2-epoch compaction cadence — the
// steady-state restart-at-scale configuration.
func BenchmarkEpochPersist(b *testing.B) {
	for _, variant := range []string{"off", "on", "compact"} {
		b.Run("store="+variant, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := ""
				compactEvery := 0
				if variant != "off" {
					dir = b.TempDir()
				}
				if variant == "compact" {
					compactEvery = 2
				}
				sys := benchPersistSystem(b, dir, compactEvery)
				b.StartTimer()
				rep, err := sys.Run(benchPersistEpochs)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rep.SyncsOK != rep.EpochsRun {
					b.Fatalf("SyncsOK = %d, want %d", rep.SyncsOK, rep.EpochsRun)
				}
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSubmitExecutePath measures the end-to-end per-transaction hot
// path the redesign must not regress: submission with receipt tracking
// plus executor application (the work one meta-block round performs per
// transaction).
func BenchmarkSubmitExecutePath(b *testing.B) {
	sys, txs := benchSystem(b)
	exec := summary.NewExecutor(1, sys.eng.Pool(sys.eng.PoolIDs()[0]), nil)
	for _, u := range sys.users {
		exec.AddDeposit(u, u256.FromUint64(1<<40), u256.FromUint64(1<<40))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := txs[i%len(txs)]
		rc, err := sys.Submit(context.Background(), tx)
		if err != nil {
			b.Fatal(err)
		}
		_ = exec.Apply(tx, 1)
		_ = rc
		sys.queue = sys.queue[:0]
	}
}

// benchConcurrentSystem builds the multi-pool deployment the ingest
// front-end benchmark drives, plus one fixed pre-generated transaction
// stream per producer (disjoint ID spaces, identical across runs).
func benchConcurrentSystem(b *testing.B, producers int) (*MultiSystem, [][]*summary.Tx) {
	b.Helper()
	wcfg := workload.DefaultMultiConfig(42, 8)
	gens := workload.Producers(wcfg, producers)
	cfg := chain.Config{
		Seed:          42,
		NumPools:      8,
		NumShards:     2,
		EpochRounds:   3,
		RoundDuration: 7 * time.Second,
		CommitteeSize: 8,
		// The stand-in drainer below empties the pool continuously; a
		// generous wait keeps momentary bursts from turning into
		// ErrMempoolFull noise in the measurement.
		IngestMaxWait: time.Second,
	}
	sys, err := NewMultiSystem(cfg, gens[0].Users())
	if err != nil {
		b.Fatal(err)
	}
	streams := make([][]*summary.Tx, producers)
	for p := range streams {
		txs := make([]*summary.Tx, 4096)
		for i := range txs {
			txs[i] = gens[p].Next()
		}
		streams[p] = txs
	}
	return sys, streams
}

// benchConcurrentBatch is the SubmitBatch flush size of the concurrent
// benchmark (the serving-path benchmark in bench/ drives closed-loop load).
const benchConcurrentBatch = 64

// BenchmarkConcurrentSubmit measures the multi-producer serving path:
// N goroutines push 64-transaction SubmitBatch calls through validation
// and the sharded ingest pool while a consumer drains round boundaries,
// exactly the shape of a node taking live traffic. One op is one
// transaction.
func BenchmarkConcurrentSubmit(b *testing.B) {
	for _, producers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			sys, streams := benchConcurrentSystem(b, producers)
			// Stand-in for the lifecycle's round boundary: the single
			// consumer the MPSC pool is designed for.
			stop := make(chan struct{})
			var drainer sync.WaitGroup
			drainer.Add(1)
			go func() {
				defer drainer.Done()
				// Paced like a real boundary: drains collect large
				// batches instead of spinning segment locks against the
				// producers (capacity absorbs a millisecond easily).
				for {
					select {
					case <-stop:
						sys.ingest.Drain()
						return
					default:
						sys.ingest.Drain()
						time.Sleep(time.Millisecond)
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				quota := b.N / producers
				if p < b.N%producers {
					quota++
				}
				wg.Add(1)
				go func(p, quota int) {
					defer wg.Done()
					txs := streams[p]
					for sent := 0; sent < quota; {
						n := benchConcurrentBatch
						if quota-sent < n {
							n = quota - sent
						}
						at := sent % len(txs)
						if at+n > len(txs) {
							n = len(txs) - at
						}
						res, err := sys.SubmitBatch(context.Background(), txs[at:at+n])
						if err != nil {
							b.Errorf("producer %d: %v", p, err)
							return
						}
						if res.Accepted != n {
							b.Errorf("producer %d: accepted %d of %d", p, res.Accepted, n)
							return
						}
						sent += n
					}
				}(p, quota)
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			drainer.Wait()
		})
	}
}

// benchFidelity sizes BenchmarkConsensusFidelity: a deliberately small
// deployment (the live variant's cost is per-agreement threshold crypto
// and message fan-out, not throughput), run once per op at each fidelity.
const (
	benchFidelityPools      = 4
	benchFidelityEpochs     = 2
	benchFidelityRounds     = 3
	benchFidelityTxPerEpoch = 32
	benchFidelityCommittee  = 20
)

func benchFidelitySystem(b *testing.B, fidelity chain.ConsensusFidelity) *MultiSystem {
	b.Helper()
	wcfg := workload.DefaultMultiConfig(42, benchFidelityPools)
	gen := workload.NewMulti(wcfg)
	cfg := chain.Config{
		Seed:              42,
		NumPools:          benchFidelityPools,
		NumShards:         1,
		EpochRounds:       benchFidelityRounds,
		RoundDuration:     7 * time.Second,
		CommitteeSize:     benchFidelityCommittee,
		ConsensusFidelity: fidelity,
		Users:             gen.Users(),
	}
	sys, err := NewMultiSystem(cfg, cfg.Users)
	if err != nil {
		b.Fatal(err)
	}
	sys.OnEpochStart = func(epoch uint64) {
		for i := 0; i < benchFidelityTxPerEpoch; i++ {
			sys.Submit(context.Background(), gen.Next())
		}
	}
	return sys
}

// BenchmarkConsensusFidelity measures what routing committee rounds
// through real PBFT over the simulated network (FidelityLive) costs the
// host relative to the analytic agreement model (FidelityModel): per
// round, a DKG-keyed 3f+2 replica core exchanges threshold-signed
// prepare/commit shares instead of one scheduled callback.
func BenchmarkConsensusFidelity(b *testing.B) {
	for _, fidelity := range []chain.ConsensusFidelity{chain.FidelityModel, chain.FidelityLive} {
		b.Run("fidelity="+string(fidelity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := benchFidelitySystem(b, fidelity)
				b.StartTimer()
				rep, err := sys.Run(benchFidelityEpochs)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rep.SyncsOK != rep.EpochsRun {
					b.Fatalf("SyncsOK = %d, want %d", rep.SyncsOK, rep.EpochsRun)
				}
				b.StartTimer()
			}
		})
	}
}
