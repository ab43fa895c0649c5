package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"ammboost/internal/summary"
)

// MultiConfig parameterizes multi-pool traffic: the base per-pool mix
// plus the pool population and its popularity skew. Pool popularity
// follows a Zipf law — a few hot pools draw most of the traffic, the
// long tail stays nearly idle — matching the 2023 Uniswap V3 measurement
// the paper's workload derives from (Appendix D), where volume per pool
// is heavily concentrated.
type MultiConfig struct {
	Config
	// NumPools is the traded pool population (default 1).
	NumPools int
	// PoolIDs overrides the canonical pool naming; len must equal
	// NumPools when set. Defaults to the engine's pool-%04d scheme.
	PoolIDs []string
}

// Pool popularity is Zipf(s, v) over the pools' rank order: zipfS is the
// skew exponent (larger values concentrate more traffic on the hottest
// pools), zipfV the value parameter.
const (
	zipfS = 1.2
	zipfV = 1
)

// DefaultMultiConfig mirrors DefaultConfig across numPools pools.
func DefaultMultiConfig(seed int64, numPools int) MultiConfig {
	return MultiConfig{Config: DefaultConfig(seed), NumPools: numPools}
}

// MultiGenerator produces a deterministic multi-pool transaction stream.
// Each pool owns an independent sub-generator seeded from the base seed
// and the pool ID, so no RNG state is shared between pools: the content
// of pool p's k-th transaction depends only on (seed, p, k), never on how
// traffic interleaves across pools or which shard executes it.
type MultiGenerator struct {
	cfg  MultiConfig
	ids  []string
	pick *rand.Rand // pool-choice stream, separate from tx content
	zipf *rand.Zipf
	gens map[string]*Generator
}

// NewMulti creates a multi-pool generator.
func NewMulti(cfg MultiConfig) *MultiGenerator {
	if cfg.NumPools <= 0 {
		cfg.NumPools = 1
	}
	ids := cfg.PoolIDs
	if len(ids) == 0 {
		ids = make([]string, cfg.NumPools)
		for i := range ids {
			ids[i] = poolName(i)
		}
	}
	pick := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed9001))
	m := &MultiGenerator{
		cfg:  cfg,
		ids:  ids,
		pick: pick,
		zipf: rand.NewZipf(pick, zipfS, zipfV, uint64(len(ids)-1)),
		gens: make(map[string]*Generator, len(ids)),
	}
	for _, id := range ids {
		sub := cfg.Config
		sub.Seed = derivePoolSeed(cfg.Seed, id)
		// Compose with any caller prefix (e.g. a per-producer namespace)
		// so IDs stay collision-free across pools AND producers.
		sub.IDPrefix = cfg.IDPrefix + id + ":"
		m.gens[id] = New(sub)
	}
	return m
}

// poolName matches engine.PoolName without importing the engine.
func poolName(i int) string { return fmt.Sprintf("pool-%04d", i) }

// derivePoolSeed mixes the base seed with the pool ID so every pool's
// sub-generator runs an independent deterministic RNG.
func derivePoolSeed(seed int64, poolID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(poolID))
	return seed ^ int64(h.Sum64())
}

// PoolIDs returns the traded pool IDs, hottest-first (Zipf rank order).
func (m *MultiGenerator) PoolIDs() []string { return m.ids }

// Users returns the shared user population (identical across pools: the
// per-pool sub-generators derive the same user names).
func (m *MultiGenerator) Users() []string { return m.gens[m.ids[0]].Users() }

// LPs returns the shared liquidity-provider subset.
func (m *MultiGenerator) LPs() []string { return m.gens[m.ids[0]].LPs() }

// Next produces the next transaction: a Zipf draw ranks the pool, the
// pool's own sub-generator produces the transaction content, and the
// engine routes it by PoolID.
func (m *MultiGenerator) Next() *summary.Tx {
	id := m.ids[int(m.zipf.Uint64())]
	tx := m.gens[id].Next()
	tx.PoolID = id
	return tx
}

// NextFor produces the next transaction for a specific pool (sweeps that
// want uniform per-pool batches rather than Zipf traffic).
func (m *MultiGenerator) NextFor(poolID string) *summary.Tx {
	g := m.gens[poolID]
	if g == nil {
		return nil
	}
	tx := g.Next()
	tx.PoolID = poolID
	return tx
}
