package core

import (
	"time"

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
