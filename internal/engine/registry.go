// Package engine is ammBoost's multi-pool parallel execution engine: a
// registry of independent AMM pools whose per-round transaction batches
// a fixed set of workers pull, heaviest pool first. Each pool's batch
// executes sequentially on one worker (per-pool order is submission
// order) while pools run concurrently, and the per-pool state roots fold
// — in canonical pool order, independent of which worker ran what — into
// a single epoch summary root via internal/crypto/merkle. A fixed seed
// therefore yields bit-identical pool roots and summary roots for any
// worker count.
package engine

import (
	"errors"
	"fmt"
	"sort"

	"ammboost/internal/amm"
)

// Registry errors.
var (
	ErrDuplicatePool = errors.New("engine: pool already registered")
	ErrUnknownPool   = errors.New("engine: pool not registered")
)

// PoolName is the canonical identifier for the i-th pool of a deployment;
// workload generators and the engine must agree on it.
func PoolName(i int) string { return fmt.Sprintf("pool-%04d", i) }

// Registry is the ordered set of registered pools. The canonical order
// (sorted pool IDs) defines the leaf order of the epoch summary root.
type Registry struct {
	ids   []string // sorted
	pools map[string]*amm.Pool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{pools: make(map[string]*amm.Pool)}
}

// Register adds a pool under an ID.
func (r *Registry) Register(id string, pool *amm.Pool) error {
	if _, dup := r.pools[id]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicatePool, id)
	}
	r.pools[id] = pool
	i := sort.SearchStrings(r.ids, id)
	r.ids = append(r.ids, "")
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	return nil
}

// Get returns the pool registered under id, or nil.
func (r *Registry) Get(id string) *amm.Pool { return r.pools[id] }

// IDs returns the registered pool IDs in canonical (sorted) order.
func (r *Registry) IDs() []string { return r.ids }

// NumPools returns the number of registered pools.
func (r *Registry) NumPools() int { return len(r.ids) }

// replace swaps the pool stored under an existing ID (epoch advancement).
func (r *Registry) replace(id string, pool *amm.Pool) {
	r.pools[id] = pool
}
