package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/gasmodel"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// openBenchCfg is deliberately tiny per epoch: BenchmarkOpen measures
// how RESTART cost scales with history length, so everything except the
// per-epoch record count is minimized — 2 pools, 1 shard, 1 round, a
// 4-member committee, one transaction per epoch, and an 8-epoch
// retention window (a long-running node always bounds its tables).
func openBenchCfg(compactEvery int) chain.Config {
	return chain.Config{
		Seed:          42,
		NumPools:      2,
		NumShards:     1,
		EpochRounds:   1,
		RoundDuration: time.Second,
		CommitteeSize: 4,
		PipelineDepth: 1,
		RetainEpochs:  8,
		CompactEvery:  compactEvery,
		Users:         []string{"ob-0", "ob-1"},
	}
}

func attachOpenBenchTraffic(sys *MultiSystem) {
	pools := sys.PoolIDs()
	sys.OnEpochStart = func(epoch uint64) {
		tx := &summary.Tx{
			ID: fmt.Sprintf("ob-e%d", epoch), Kind: gasmodel.KindSwap,
			User: "ob-0", PoolID: pools[int(epoch)%len(pools)],
			ZeroForOne: epoch%2 == 0, ExactIn: true,
			Amount: u256.FromUint64(1000),
		}
		sys.Submit(context.Background(), tx)
	}
}

// openBenchStores caches the generated history images: building the
// 10k-epoch log once per (history, cadence) cell is the expensive part,
// and every iteration only needs a byte copy of it.
var openBenchStores = map[string][]byte{}

func openBenchStore(b testing.TB, hist, compactEvery int) []byte {
	b.Helper()
	key := fmt.Sprintf("%d/%d", hist, compactEvery)
	if data, ok := openBenchStores[key]; ok {
		return data
	}
	fsys := &store.MemFS{}
	node, err := OpenFS(fsys, "", openBenchCfg(compactEvery))
	if err != nil {
		b.Fatal(err)
	}
	attachOpenBenchTraffic(node.(*MultiSystem))
	if _, err := node.Run(hist); err != nil {
		b.Fatal(err)
	}
	if err := node.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := fsys.ReadFile(store.FileName)
	if err != nil {
		b.Fatal(err)
	}
	openBenchStores[key] = data
	return data
}

func plantStore(b testing.TB, data []byte) *store.MemFS {
	b.Helper()
	fsys := &store.MemFS{}
	f, err := fsys.OpenAppend(store.FileName, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		b.Fatal(err)
	}
	f.Close()
	return fsys
}

// BenchmarkOpen measures restart latency against history length: one op
// is a full chain open — scan, checkpoint anchor, pool-root
// re-derivation, tail sync-part replay — on a {100, 10k}-epoch history,
// with compaction off (the whole history is tail records to replay) and
// on (a 64-epoch cadence keeps the replayed tail bounded, so cost should
// flatline; TestRestartCostFlatInHistory pins the image size that makes
// it flat).
func BenchmarkOpen(b *testing.B) {
	for _, hist := range []int{100, 10_000} {
		for _, cell := range []struct {
			name  string
			every int
		}{{"compact=off", 0}, {"compact=on", 64}} {
			b.Run(fmt.Sprintf("hist=%d/%s", hist, cell.name), func(b *testing.B) {
				data := openBenchStore(b, hist, cell.every)
				cfg := openBenchCfg(cell.every)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fsys := plantStore(b, data)
					b.StartTimer()
					node, err := OpenFS(fsys, "", cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if got := node.(*MultiSystem).Epoch(); got != uint64(hist) {
						b.Fatalf("recovered at epoch %d, want %d", got, hist)
					}
					node.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkCompact measures one log rewrite of a 10k-epoch uncompacted
// history: concatenating the writer's fold into a checkpoint (8-epoch
// retained root table, full pool snapshots, bank replay cursor) and the
// write-temp-fsync-rename swap. The open that seeds the fold is not
// timed. The bank state is encoded once from a real restart —
// compaction itself never touches the live node.
func BenchmarkCompact(b *testing.B) {
	const hist = 10_000
	data := openBenchStore(b, hist, 0)
	cfg := openBenchCfg(0)

	node, err := OpenFS(plantStore(b, data), "", cfg)
	if err != nil {
		b.Fatal(err)
	}
	bank := node.(*MultiSystem).Bank().EncodeState()
	node.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fsys := plantStore(b, data)
		_, w, err := store.Open(fsys, "", DeploymentFingerprint(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := w.Compact(hist, hist-8, bank); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		w.Close()
		b.StartTimer()
	}
}
