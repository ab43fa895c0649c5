package core

import (
	"errors"
	"fmt"

	"ammboost/internal/chain"
)

// ErrBackendMismatch flags a config handed to the wrong backend
// constructor: NumPools > 0 selects the sharded multi-pool MultiSystem,
// zero the single canonical-pool System.
var ErrBackendMismatch = errors.New("core: config selects the other backend")

// New builds the deployment the config describes behind the unified
// chain.Chain node API, implementing the documented backend selection:
// cfg.NumPools > 0 runs the sharded-engine MultiSystem, zero runs the
// single canonical-pool System.
func New(cfg chain.Config, users []string) (chain.Chain, error) {
	if cfg.NumPools > 0 {
		return NewMultiSystem(cfg, users)
	}
	return NewSystem(cfg, users)
}

// checkSinglePool rejects a multi-pool config handed to the single-pool
// backend, so the documented NumPools contract cannot be silently
// ignored.
func checkSinglePool(cfg chain.Config) error {
	if cfg.NumPools > 0 {
		return fmt.Errorf("%w: NumPools = %d selects the sharded backend (use core.New or NewMultiSystem)",
			ErrBackendMismatch, cfg.NumPools)
	}
	return nil
}
