// Package mainchain simulates the smart-contract-enabled layer-1 the AMM is
// deployed on (Sepolia in the paper): 12-second blocks, a 30M gas limit,
// a FIFO mempool with dependency-aware packing, per-transaction gas
// metering through a contract runtime, and reorg injection for the
// mass-sync recovery experiments.
//
// Only the pieces the paper measures are modeled — block cadence, gas
// accounting, calldata byte growth, and confirmation ordering — which is
// exactly what the reported quantities (latency in blocks, gas units, chain
// growth in bytes) depend on.
package mainchain

import (
	"errors"
	"fmt"
	"time"

	"ammboost/internal/sim"
)

// Chain errors.
var (
	ErrUnknownContract = errors.New("mainchain: unknown contract")
	ErrOutOfGas        = errors.New("mainchain: out of gas")
	ErrReorgTooDeep    = errors.New("mainchain: reorg deeper than chain")
)

// Config parameterizes the chain simulator.
type Config struct {
	// BlockInterval is the block time (Sepolia: 12 s).
	BlockInterval time.Duration
	// GasLimit is the block gas limit (Ethereum: 30M).
	GasLimit uint64
	// PropagationDelay models submission → miner visibility.
	PropagationDelay time.Duration
	// ReceiptLag models the delay between block production and the
	// client observing the confirmation (receipt polling).
	ReceiptLag time.Duration
	// BlockHeaderBytes is the per-block storage overhead.
	BlockHeaderBytes int
}

// DefaultConfig mirrors the paper's Sepolia deployment.
func DefaultConfig() Config {
	return Config{
		BlockInterval:    12 * time.Second,
		GasLimit:         30_000_000,
		PropagationDelay: 1500 * time.Millisecond,
		ReceiptLag:       1500 * time.Millisecond,
		BlockHeaderBytes: 600,
	}
}

// TxStatus is the lifecycle state of a transaction.
type TxStatus int

const (
	TxPending TxStatus = iota
	TxConfirmed
	TxFailed // included but reverted
)

// Tx is a mainchain transaction: a call into a registered contract.
type Tx struct {
	ID     string
	From   string
	To     string // contract name
	Method string
	Args   any
	// Size is the calldata byte footprint added to chain growth.
	Size int
	// GasLimit is the gas the sender declares the transaction may use. A
	// block includes the transaction only when that much gas is left in
	// it, and execution is metered against it: running out of one's own
	// declared gas is a revert. 0 is undeclared — the transaction takes
	// whatever the block has left and, when that runs out in a non-empty
	// block, is retried in the next one.
	GasLimit uint64
	// DependsOn lists transaction IDs that must be confirmed before this
	// transaction becomes eligible (models sequential approve→transfer
	// flows, which is what stretches deposit latency to ~4 blocks).
	DependsOn []string

	Status      TxStatus
	SubmittedAt time.Duration
	EligibleAt  time.Duration
	ConfirmedAt time.Duration // block boundary + receipt lag
	BlockNum    uint64
	GasUsed     uint64
	Err         error
	// OnConfirmed fires after the transaction executes (success or
	// revert), at confirmation time.
	OnConfirmed func(*Tx)
	// Gate, when set, fences the transaction's inclusion: the first block
	// that would include it calls Gate first and waits for it in
	// wall-clock time only, so the block, its virtual time and every
	// confirmation stay what they would be without it. A nil return lets
	// the transaction in; an error drops it from the mempool unexecuted
	// (Err records it, OnConfirmed never fires) — Gate itself reports the
	// fault to the sender.
	Gate func() error
}

// Block is a produced mainchain block.
type Block struct {
	Number  uint64
	MinedAt time.Duration
	Txs     []*Tx
	GasUsed uint64
	SizeB   int
	Reorged bool
}

// Env is the execution environment handed to contracts.
type Env struct {
	Chain    *Chain
	Caller   string
	BlockNum uint64
	Now      time.Duration
	Gas      *GasMeter
}

// Contract is a deployed smart contract: a named object executing methods
// under gas metering.
type Contract interface {
	Name() string
	Execute(env *Env, method string, args any) error
}

// GasMeter charges gas during contract execution.
type GasMeter struct {
	limit uint64
	used  uint64
}

// Charge consumes gas, failing when the limit is exceeded.
func (g *GasMeter) Charge(amount uint64) error {
	g.used += amount
	if g.used > g.limit {
		return ErrOutOfGas
	}
	return nil
}

// Used returns gas consumed so far.
func (g *GasMeter) Used() uint64 { return g.used }

// Chain is the mainchain simulator. It is driven by the shared
// discrete-event simulator; all methods must be called from simulator
// callbacks or before Run.
type Chain struct {
	cfg       Config
	sim       *sim.Simulator
	contracts map[string]Contract

	mempool []*Tx
	txByID  map[string]*Tx
	blocks  []*Block
	stopped bool
	// retain bounds the in-memory block history (0 = keep all);
	// prunedBlocks counts blocks dropped from the front so Height stays
	// monotone.
	retain       int
	prunedBlocks uint64

	// Growth accounting.
	TotalBytes int
	TotalGas   uint64

	// OnBlock observers fire after each block is produced.
	OnBlock []func(*Block)
}

// New creates a chain on the simulator and schedules block production.
func New(s *sim.Simulator, cfg Config) *Chain {
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 12 * time.Second
	}
	if cfg.GasLimit == 0 {
		cfg.GasLimit = 30_000_000
	}
	c := &Chain{
		cfg:       cfg,
		sim:       s,
		contracts: make(map[string]Contract),
		txByID:    make(map[string]*Tx),
	}
	c.scheduleNextBlock()
	return c
}

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// Deploy registers a contract.
func (c *Chain) Deploy(contract Contract) {
	c.contracts[contract.Name()] = contract
}

// ContractByName returns a deployed contract or nil.
func (c *Chain) ContractByName(name string) Contract { return c.contracts[name] }

// Height returns the number of blocks ever produced (including any the
// history retention dropped from memory).
func (c *Chain) Height() uint64 { return c.prunedBlocks + uint64(len(c.blocks)) }

// Blocks returns the retained blocks (all of them unless SetRetention
// bounded the history; do not mutate).
func (c *Chain) Blocks() []*Block { return c.blocks }

// SetRetention bounds the in-memory block (and confirmed-transaction)
// history to the newest n blocks; 0 keeps everything. A real chain's
// history lives on disk — a simulated long run must not hold every
// confirmed sync payload in RAM. The horizon must comfortably exceed
// the longest DependsOn distance in flight (the node sizes it from its
// epoch retention), or dependent transactions would stall on evicted
// parents.
func (c *Chain) SetRetention(n int) { c.retain = n }

// pruneHistory drops blocks behind the retention horizon along with
// their confirmed transactions' index entries.
func (c *Chain) pruneHistory() {
	if c.retain <= 0 || len(c.blocks) <= c.retain {
		return
	}
	drop := len(c.blocks) - c.retain
	for _, blk := range c.blocks[:drop] {
		for _, tx := range blk.Txs {
			delete(c.txByID, tx.ID)
		}
	}
	// Copy the tail so the dropped prefix's backing array is released.
	c.blocks = append([]*Block(nil), c.blocks[drop:]...)
	c.prunedBlocks += uint64(drop)
}

// Stop halts block production after the current block.
func (c *Chain) Stop() { c.stopped = true }

// Submit queues a transaction for inclusion. The transaction becomes
// eligible after the propagation delay and once its dependencies confirm.
// Re-submitting a transaction the chain already tracks (pending in the
// mempool or confirmed in a retained block) is a no-op, like a node
// deduping gossip by hash — the behavior retransmission over a lossy
// submission path depends on: a duplicated or resent sync part must not
// double-execute. A *different* transaction reusing a tracked ID keeps
// the historical last-writer-wins index behavior.
func (c *Chain) Submit(tx *Tx) {
	if tx.ID != "" {
		if prev, dup := c.txByID[tx.ID]; dup && prev == tx {
			return
		}
	}
	tx.Status = TxPending
	tx.SubmittedAt = c.sim.Now()
	tx.EligibleAt = c.sim.Now() + c.cfg.PropagationDelay
	c.mempool = append(c.mempool, tx)
	if tx.ID != "" {
		c.txByID[tx.ID] = tx
	}
}

// TxByID returns the tracked transaction with the given ID, or nil if it
// was never submitted (or its block fell behind the retention horizon).
// Senders retransmitting over a lossy submission link use this to tell a
// dropped submission (absent) from one still waiting in the mempool.
func (c *Chain) TxByID(id string) *Tx { return c.txByID[id] }

// Call executes a read-only contract call outside a transaction (like
// eth_call): no gas accounting against a block, no state-root change
// expected. The contract may still mutate state if the method does; use
// only with view-style methods.
func (c *Chain) Call(contract, method string, args any) error {
	ct := c.contracts[contract]
	if ct == nil {
		return fmt.Errorf("%w: %s", ErrUnknownContract, contract)
	}
	env := &Env{Chain: c, Caller: "viewer", BlockNum: c.Height(), Now: c.sim.Now(), Gas: &GasMeter{limit: ^uint64(0)}}
	return ct.Execute(env, method, args)
}

func (c *Chain) scheduleNextBlock() {
	c.sim.After(c.cfg.BlockInterval, func() {
		c.produceBlock()
		if !c.stopped {
			c.scheduleNextBlock()
		}
	})
}

// dependenciesMet reports whether every dependency was confirmed in an
// earlier block: a client submits the next step only after observing the
// previous receipt, so dependent transactions occupy consecutive blocks
// (the behavior behind the paper's ~4-block deposit latency).
func (c *Chain) dependenciesMet(tx *Tx, currentBlock uint64) bool {
	for _, dep := range tx.DependsOn {
		d, ok := c.txByID[dep]
		if !ok {
			// Under history retention a missing id should only be a
			// transaction confirmed in a block already pruned from
			// memory: only confirmed transactions are evicted, and
			// reorged ones keep their entries. Treat it as met —
			// blocking on it would strand the dependent forever. The
			// trade: a dependency that was never submitted at all (a
			// caller bug) executes early here and fails loudly at its
			// contract instead of hanging the run silently.
			if c.retain > 0 && c.prunedBlocks > 0 {
				continue
			}
			return false
		}
		if d.Status == TxPending || d.BlockNum >= currentBlock {
			return false
		}
	}
	return true
}

func (c *Chain) produceBlock() {
	now := c.sim.Now()
	blk := &Block{
		Number:  c.Height() + 1,
		MinedAt: now,
		SizeB:   c.cfg.BlockHeaderBytes,
	}
	var remaining []*Tx
	for _, tx := range c.mempool {
		if tx.EligibleAt > now || !c.dependenciesMet(tx, blk.Number) {
			remaining = append(remaining, tx)
			continue
		}
		if blk.GasUsed >= c.cfg.GasLimit {
			remaining = append(remaining, tx)
			continue
		}
		// A declared transaction that does not fit waits for a block with
		// room, unexecuted, as a miner packing by gas limit would leave it.
		// (One larger than a whole block gets its turn in an empty block
		// and fails there.)
		if tx.GasLimit > c.cfg.GasLimit-blk.GasUsed && blk.GasUsed > 0 {
			remaining = append(remaining, tx)
			continue
		}
		if tx.Gate != nil {
			if err := tx.Gate(); err != nil {
				tx.Err = err
				continue
			}
			tx.Gate = nil
		}
		if deferred := c.executeTx(tx, blk); deferred {
			remaining = append(remaining, tx)
		}
	}
	c.mempool = remaining
	c.blocks = append(c.blocks, blk)
	c.pruneHistory()
	c.TotalBytes += blk.SizeB
	c.TotalGas += blk.GasUsed
	for _, fn := range c.OnBlock {
		fn(blk)
	}
	// Fire confirmations after the receipt lag.
	txs := blk.Txs
	c.sim.After(c.cfg.ReceiptLag, func() {
		for _, tx := range txs {
			if tx.OnConfirmed != nil {
				tx.OnConfirmed(tx)
			}
		}
	})
}

func (c *Chain) executeTx(tx *Tx, blk *Block) (deferToNext bool) {
	meter := &GasMeter{limit: c.cfg.GasLimit - blk.GasUsed}
	if tx.GasLimit != 0 {
		meter.limit = min(meter.limit, tx.GasLimit)
	}
	env := &Env{Chain: c, Caller: tx.From, BlockNum: blk.Number, Now: blk.MinedAt, Gas: meter}
	contract := c.contracts[tx.To]
	var err error
	if contract == nil {
		err = fmt.Errorf("%w: %s", ErrUnknownContract, tx.To)
	} else {
		err = contract.Execute(env, tx.Method, tx.Args)
	}
	if errors.Is(err, ErrOutOfGas) && blk.GasUsed > 0 && tx.GasLimit == 0 {
		// An undeclared transaction didn't fit in the remaining block
		// space: a real miner would not have included it. Retry in the next
		// block. (A transaction that exceeds even an empty block's limit, or
		// its own declared one, fails permanently below.)
		return true
	}
	tx.GasUsed = meter.Used()
	tx.BlockNum = blk.Number
	tx.ConfirmedAt = blk.MinedAt + c.cfg.ReceiptLag
	if err != nil {
		tx.Status = TxFailed
		tx.Err = err
	} else {
		tx.Status = TxConfirmed
	}
	blk.Txs = append(blk.Txs, tx)
	blk.GasUsed += tx.GasUsed
	blk.SizeB += tx.Size
	return false
}

// Reorg abandons the last depth blocks: their transactions return to the
// mempool as pending and their byte/gas contribution is removed from
// growth accounting. Contract state is NOT rolled back — like the paper,
// recovery relies on application-level mass-syncing, and the only reorged
// transactions exercised by the experiments are Sync calls whose effects
// the next committee's mass-sync makes idempotent.
func (c *Chain) Reorg(depth int) error {
	if depth <= 0 {
		return nil
	}
	if depth > len(c.blocks) {
		return ErrReorgTooDeep
	}
	cut := len(c.blocks) - depth
	for _, blk := range c.blocks[cut:] {
		blk.Reorged = true
		c.TotalBytes -= blk.SizeB
		c.TotalGas -= blk.GasUsed
		for _, tx := range blk.Txs {
			tx.Status = TxPending
			tx.Err = nil
			tx.GasUsed = 0
			c.mempool = append(c.mempool, tx)
		}
	}
	c.blocks = c.blocks[:cut]
	return nil
}

// PendingTxs returns the mempool size.
func (c *Chain) PendingTxs() int { return len(c.mempool) }
