package core

import (
	"errors"
	"fmt"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/mainchain"
	"ammboost/internal/sidechain/pbft"
)

// viewChangeTimeout is how long a committee waits on a silent leader
// before changing view, on both fidelities.
const viewChangeTimeout = 3 * time.Second

// agreementModel is the Table XII agreement-time calibration that paces
// model-fidelity rounds and summary checkpoints.
var agreementModel = pbft.DefaultModel()

// syncPartGas caps one sync part's declared gas at two thirds of the
// mainchain's block gas limit (20M under the default 30M), so every part
// fits an empty block; an epoch whose payloads exceed it splits into
// several parts.
func syncPartGas(mc mainchain.Config) uint64 { return mc.GasLimit / 3 * 2 }

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
