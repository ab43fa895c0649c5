package core

import (
	"errors"
	"fmt"

	"ammboost/internal/chain"
)

// ErrBackendMismatch flags a config handed to the wrong backend
// constructor: the single canonical-pool NewSystem refuses a config with
// NumPools > 0, which only NewMultiSystem accepts.
var ErrBackendMismatch = errors.New("core: config selects the other backend")

// checkSinglePool rejects a multi-pool config handed to the single-pool
// backend, so the documented NumPools contract cannot be silently
// ignored.
func checkSinglePool(cfg chain.Config) error {
	if cfg.NumPools > 0 {
		return fmt.Errorf("%w: NumPools = %d selects the sharded backend (use NewMultiSystem)",
			ErrBackendMismatch, cfg.NumPools)
	}
	return nil
}
