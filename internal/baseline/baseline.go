// Package baseline implements the paper's comparison baseline: Uniswap V3
// deployed directly on the layer-1 (Sepolia in the paper). Every swap,
// mint, burn, and collect is a mainchain transaction charged the measured
// Table III gas and sized per the observed calldata, preceded by the ERC20
// approval transactions the real flow requires (one for swaps, two for
// mints) — which is what stretches per-operation confirmation latency to
// multiple blocks.
//
// Pool semantics reuse the identical amm engine through a
// summary.Executor with unbounded deposits, so cross-layer parity with the
// ammBoost sidechain is testable.
package baseline

import (
	"fmt"
	"time"

	"ammboost/internal/gasmodel"
	"ammboost/internal/mainchain"
	"ammboost/internal/metrics"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"

	"ammboost/internal/amm"
)

// SizeModel selects which measured transaction sizes accrue to chain
// growth.
type SizeModel int

const (
	// SizesSepolia uses the simple-router sizes (Table IV).
	SizesSepolia SizeModel = iota
	// SizesMainnet uses the universal-router sizes (Table VII).
	SizesMainnet
)

// Config parameterizes a baseline deployment.
type Config struct {
	Mainchain mainchain.Config
	Sizes     SizeModel
}

// Runner drives Uniswap-on-L1.
type Runner struct {
	cfg    Config
	sim    *sim.Simulator
	mc     *mainchain.Chain
	router *router
	col    *metrics.Collector
	seq    int
}

// router is the interface contract routing operations into the pool,
// mirroring the paper's deployment (SwapRouter + NFPM behind one
// interface contract).
type router struct {
	exec *summary.Executor
}

func (r *router) Name() string { return "uniswap-router" }

func (r *router) Execute(env *mainchain.Env, method string, args any) error {
	if method == "approve" {
		// ERC20 approval leg: one storage slot.
		return env.Gas.Charge(gasmodel.TxBaseGas + gasmodel.SstoreWordGas)
	}
	tx, ok := args.(*summary.Tx)
	if !ok {
		return mainchain.ErrBadArgs
	}
	if err := env.Gas.Charge(gasmodel.UniswapOpGas(tx.Kind)); err != nil {
		return err
	}
	// Round number for deadlines is the block number on L1.
	return r.exec.Apply(tx, env.BlockNum)
}

// New builds a baseline deployment with a seeded pool.
func New(cfg Config) (*Runner, error) {
	if cfg.Mainchain.BlockInterval == 0 {
		cfg.Mainchain = mainchain.DefaultConfig()
	}
	s := sim.New()
	mc := mainchain.New(s, cfg.Mainchain)
	pool, _, err := amm.NewGenesisPool("genesis-pos", amm.GenesisLiquidity)
	if err != nil {
		return nil, err
	}
	// Unbounded deposits: the L1 flow funds per-op via ERC20 approvals,
	// modeled by the approval transactions themselves.
	exec := summary.NewExecutor(0, pool, nil)
	r := &router{exec: exec}
	mc.Deploy(r)
	return &Runner{cfg: cfg, sim: s, mc: mc, router: r, col: metrics.New()}, nil
}

// Sim exposes the simulator.
func (r *Runner) Sim() *sim.Simulator { return r.sim }

// Mainchain exposes the chain.
func (r *Runner) Mainchain() *mainchain.Chain { return r.mc }

// Pool returns the live pool state.
func (r *Runner) Pool() *amm.Pool { return r.router.exec.Pool }

// Collector exposes metrics.
func (r *Runner) Collector() *metrics.Collector { return r.col }

// EnsureUser funds a user with effectively unlimited deposit balance in
// the executor (the ERC20 legs are modeled by approval transactions).
func (r *Runner) EnsureUser(user string) {
	if _, ok := r.router.exec.Deposit(user); !ok {
		big := u256.Shl(u256.One, 200)
		r.router.exec.AddDeposit(user, big, big)
	}
}

// approvalsFor returns how many ERC20 approval transactions precede an
// operation on L1 (Section VI-B's latency analysis).
func approvalsFor(kind gasmodel.TxKind) int {
	switch kind {
	case gasmodel.KindSwap:
		return 1
	case gasmodel.KindMint:
		return 2
	default:
		return 0
	}
}

// txBytes returns the operation's calldata size under the size model.
func (r *Runner) txBytes(kind gasmodel.TxKind) int {
	if r.cfg.Sizes == SizesMainnet {
		return gasmodel.MainnetTxBytes(kind)
	}
	return gasmodel.SepoliaTxBytes(kind)
}

// Submit schedules one AMM operation: its approval chain followed by the
// operation transaction. Completion is recorded in the collector.
func (r *Runner) Submit(tx *summary.Tx) {
	r.EnsureUser(tx.User)
	r.seq++
	submitted := r.sim.Now()
	var deps []string
	for i := 0; i < approvalsFor(tx.Kind); i++ {
		id := fmt.Sprintf("bl-ap-%d-%d", r.seq, i)
		ap := &mainchain.Tx{
			ID: id, From: tx.User, To: "uniswap-router", Method: "approve", Size: 100,
			DependsOn: deps,
		}
		ap.OnConfirmed = func(t *mainchain.Tx) { r.col.ObserveGas("approve", t.GasUsed) }
		deps = []string{id}
		r.mc.Submit(ap)
	}
	opID := fmt.Sprintf("bl-op-%d", r.seq)
	op := &mainchain.Tx{
		ID: opID, From: tx.User, To: "uniswap-router", Method: "op",
		Args: tx, Size: r.txBytes(tx.Kind), DependsOn: deps,
	}
	kind := tx.Kind
	op.OnConfirmed = func(t *mainchain.Tx) {
		if t.Status != mainchain.TxConfirmed {
			return // rejected ops (slippage etc.) are reverts on L1
		}
		r.col.ObserveGas(kind.String(), t.GasUsed)
		r.col.ObserveMCLatency(kind.String(), t.ConfirmedAt-submitted)
		r.col.ObserveTx(metrics.TxObservation{
			Kind:        kind,
			SubmittedAt: submitted,
			MinedAt:     t.ConfirmedAt,
			PayoutAt:    t.ConfirmedAt, // L1 settles tokens at confirmation
		})
	}
	r.mc.Submit(op)
}

// Run drives the simulation until the mempool drains after the given
// duration of scheduled traffic, then stops the chain.
func (r *Runner) Run(until time.Duration) {
	r.sim.RunUntil(until)
	for r.mc.PendingTxs() > 0 {
		r.sim.RunUntil(r.sim.Now() + r.cfg.Mainchain.BlockInterval)
	}
	r.mc.Stop()
	r.sim.RunUntil(r.sim.Now() + r.cfg.Mainchain.BlockInterval)
}
