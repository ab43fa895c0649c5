// Package rollup implements ammOP, the Optimism-inspired rollup baseline
// the paper compares against (Section VI-D): transactions are processed in
// 1.8 MB batches taking ~35 s each (three Ethereum rounds), the batch
// transcript is posted to the mainchain as calldata (no pruning — the
// defining storage cost of optimistic rollups), and token payouts finalize
// only after the 7-day contestation period.
package rollup

import (
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/metrics"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// Config parameterizes ammOP.
type Config struct {
	// BatchBytes is the rollup batch capacity (Optimism: 1.8 MB).
	BatchBytes int
	// BatchInterval is the batch processing cadence (~3 Ethereum rounds).
	BatchInterval time.Duration
	// Contestation is the fraud-proof window delaying withdrawals.
	Contestation time.Duration
}

// DefaultConfig mirrors the paper's ammOP parameters.
func DefaultConfig() Config {
	return Config{
		BatchBytes:    1_800_000,
		BatchInterval: 35 * time.Second,
		Contestation:  7 * 24 * time.Hour,
	}
}

// Runner drives the ammOP simulation.
type Runner struct {
	cfg  Config
	sim  *sim.Simulator
	exec *summary.Executor
	col  *metrics.Collector

	queue   []*summary.Tx
	stopped bool

	// Batches posted on the mainchain (transcript bytes, never pruned).
	BatchesPosted  int
	MainchainBytes int
	Processed      int
	Rejected       int
}

// New builds an ammOP deployment with a seeded pool.
func New(cfg Config) (*Runner, error) {
	if cfg.BatchBytes == 0 {
		cfg = DefaultConfig()
	}
	pool, _, err := amm.NewGenesisPool("genesis-pos", amm.GenesisLiquidity)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:  cfg,
		sim:  sim.New(),
		exec: summary.NewExecutor(0, pool, nil),
		col:  metrics.New(),
	}
	return r, nil
}

// Sim exposes the simulator for traffic scheduling.
func (r *Runner) Sim() *sim.Simulator { return r.sim }

// Collector exposes metrics.
func (r *Runner) Collector() *metrics.Collector { return r.col }

// Submit queues a transaction at the current virtual time.
func (r *Runner) Submit(tx *summary.Tx) {
	if _, ok := r.exec.Deposit(tx.User); !ok {
		big := u256.Shl(u256.One, 200)
		r.exec.AddDeposit(tx.User, big, big)
	}
	tx.SubmittedAt = r.sim.Now()
	r.queue = append(r.queue, tx)
}

// Run processes batches until `traffic` has elapsed and the queue drains,
// then reports.
func (r *Runner) Run(traffic time.Duration) {
	r.scheduleBatch()
	r.sim.RunUntil(traffic)
	// Drain.
	for len(r.queue) > 0 {
		r.sim.RunUntil(r.sim.Now() + r.cfg.BatchInterval)
	}
	r.stopped = true
	r.sim.RunUntil(r.sim.Now() + r.cfg.BatchInterval)
}

func (r *Runner) scheduleBatch() {
	r.sim.After(r.cfg.BatchInterval, func() {
		r.processBatch()
		if !r.stopped {
			r.scheduleBatch()
		}
	})
}

func (r *Runner) processBatch() {
	now := r.sim.Now()
	bytes := 0
	consumed := 0
	for _, tx := range r.queue {
		if tx.SubmittedAt > now {
			break
		}
		if bytes+tx.Size() > r.cfg.BatchBytes {
			break
		}
		consumed++
		if err := r.exec.Apply(tx, uint64(now/r.cfg.BatchInterval)); err != nil {
			r.Rejected++
			continue
		}
		bytes += tx.Size()
		r.Processed++
		r.col.ObserveTx(metrics.TxObservation{
			Kind:        tx.Kind,
			SubmittedAt: tx.SubmittedAt,
			MinedAt:     now,
			// Withdrawals finalize after the contestation window.
			PayoutAt: now + r.cfg.Contestation,
		})
	}
	r.queue = r.queue[consumed:]
	if bytes > 0 {
		r.BatchesPosted++
		// The whole transcript lands on the mainchain and stays there.
		r.MainchainBytes += bytes + 600 // batch framing overhead
	}
}
