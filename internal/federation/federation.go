// Package federation runs K ammBoost sidechains against ONE shared
// simulated mainchain on one virtual clock. Each member is a full
// core.MultiSystem — its own seed-derived committees, pool set, epoch
// lifecycle, fault plan, and (optionally) durable store — but every
// sync part lands in the same mainchain mempool, so the chains contend
// for block gas in the packer exactly as K rollup-style tenants would
// on a real L1. A mainchain escrow contract carries cross-sidechain
// token flow: withdraw-on-A → escrow lock → deposit-on-B, with refunds
// when a chain halts mid-transfer (DESIGN.md "Federation", invariant 12).
//
// Determinism: members are created and scheduled in chain-ID order at
// t=0, every runner hook executes synchronously on the simulator
// goroutine, and all iteration is in slice (input) order — two runs of
// the same configuration produce bit-identical per-chain summary roots,
// transfer receipts, AND mainchain block/tx history (the Result's
// MainchainDigest folds the latter).
package federation

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/mainchain"
	"ammboost/internal/sim"
	"ammboost/internal/store"
	"ammboost/internal/workload"
)

// Federation errors.
var (
	ErrBadFederation = errors.New("federation: invalid configuration")
	ErrBadTransfer   = errors.New("federation: invalid transfer")
)

// NodeConfig describes one member sidechain.
type NodeConfig struct {
	// Chain is the member's node configuration. ChainID must be set and
	// unique within the federation; Mainchain is ignored (the shared
	// chain's config comes from Config.Mainchain).
	Chain chain.Config
	// Epochs overrides Config.Epochs for this member (0 = inherit).
	Epochs int
	// DailyVolume > 0 pre-schedules Zipf multi-pool traffic for the
	// member's whole run, exactly like core.NewMultiDriver.
	DailyVolume int
	// Workload parameterizes that traffic (defaults derive from the
	// chain seed and pool count).
	Workload workload.MultiConfig
	// ExtraUsers join the member's user set beyond the workload
	// population — cross-chain transfer principals live here.
	ExtraUsers []string
	// StoreDir, when set, opens the member as a durable node rooted
	// there (per-member directories; the store fingerprint pins the
	// chain ID). StoreFS overrides the filesystem (defaults to the OS).
	StoreDir string
	StoreFS  store.FS
	// KillAtEpoch > 0 injects a member crash: when the member confirms
	// epoch KillAtEpoch on the mainchain, it is torn down kill -9 style —
	// store descriptor closed without flushing, no halt record, in-flight
	// mainchain transactions left in flight. Requires StoreDir (revival
	// recovers from the durable log). Siblings keep running throughout.
	KillAtEpoch uint64
	// ReviveAfter is the virtual delay between the kill and the member's
	// revival: the store directory reopens through the full recovery path
	// (checkpoint anchor, root re-derivation, sync replay) and the member
	// resumes at its durable boundary while the federation keeps moving.
	ReviveAfter time.Duration
	// OnEpochStart, when set, runs on the simulator goroutine at every
	// epoch start of this member — including epochs after a revival,
	// which makes it the traffic hook that survives kill/revive
	// (DailyVolume's pre-scheduled arrivals target the original system
	// object and die with it). Keyed traffic derived from the epoch
	// number keeps a killed-and-revived member bit-identical to an
	// uninterrupted one.
	OnEpochStart func(sys *core.MultiSystem, epoch uint64)
}

// Config describes a federation run.
type Config struct {
	// Mainchain configures the ONE shared chain (zero value = paper
	// defaults).
	Mainchain mainchain.Config
	// Epochs is the default epoch count members run.
	Epochs int
	// Nodes are the member sidechains (order is irrelevant; members are
	// sorted by chain ID).
	Nodes []NodeConfig
	// Transfers are cross-sidechain token transfers the runner drives.
	Transfers []Transfer
}

// Node is one member's runtime handle.
type Node struct {
	ID     string
	Sys    *core.MultiSystem
	epochs int
	// finished is set by the member's onFinished notification: it will
	// put nothing further on the mainchain (done or halted). A finished
	// member cannot accept deposits anymore.
	finished bool
	halted   bool
	// Kill/revive state: cfg and users are retained so revival can
	// reopen the member's store with the identical deployment config.
	cfg       NodeConfig
	users     []string
	killed    bool
	revived   bool
	reviveErr error
	// owed holds the refund claims and credits due to the member while
	// it is down; revive runs them against the recovered system.
	owed []func()
}

// down reports whether the member was killed and has not revived (or
// failed to revive) yet.
func (n *Node) down() bool { return n.killed && !n.revived && !n.finished }

// NodeResult is one member's outcome.
type NodeResult struct {
	ChainID string
	Report  *chain.Report
	Err     error
	// Revived reports that the member was killed mid-run and successfully
	// resumed from its durable store (NodeConfig.KillAtEpoch).
	Revived bool
}

// Result is a federation run's outcome.
type Result struct {
	// Nodes in chain-ID order.
	Nodes []*NodeResult
	// Transfers in input order; every receipt is terminal.
	Transfers []*chain.TransferReceipt
	// MainchainDigest folds the shared chain's full block/tx history
	// (number, mined-at, per-tx ID/status/gas) — the cross-chain
	// determinism fingerprint of invariant 12.
	MainchainDigest [32]byte
	// Duration is the run's virtual length.
	Duration time.Duration
}

// Federation owns the shared runtime: one simulator, one mainchain, one
// escrow, K member nodes.
type Federation struct {
	sim    *sim.Simulator
	mc     *mainchain.Chain
	escrow *mainchain.Escrow

	shared *core.Shared
	nodes  []*Node // chain-ID order
	byID   map[string]*Node
	closer []func() error

	transfers []*transferState // input order

	finishedNodes  int
	escrowInFlight int // lock/release/refund/claim txs awaiting confirmation
	stopped        bool

	histDigest [32]byte
	ran        bool
}

// New builds the federation: the shared simulator, the shared mainchain
// with the escrow deployed, and every member node in chain-ID order
// (construction order fixes each member's RNG stream and the t=0 event
// order, pinning cross-chain determinism).
func New(cfg Config) (*Federation, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%w: no member nodes", ErrBadFederation)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	nodes := append([]NodeConfig(nil), cfg.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Chain.ChainID < nodes[j].Chain.ChainID })
	for i, nc := range nodes {
		if nc.Chain.ChainID == "" {
			return nil, fmt.Errorf("%w: member %d has no ChainID", ErrBadFederation, i)
		}
		if i > 0 && nodes[i-1].Chain.ChainID == nc.Chain.ChainID {
			return nil, fmt.Errorf("%w: duplicate ChainID %q", ErrBadFederation, nc.Chain.ChainID)
		}
		if nc.KillAtEpoch > 0 && nc.StoreDir == "" {
			return nil, fmt.Errorf("%w: member %q: KillAtEpoch requires StoreDir (revival recovers from the durable log)",
				ErrBadFederation, nc.Chain.ChainID)
		}
	}

	f := &Federation{
		sim:    sim.New(),
		escrow: mainchain.NewEscrow(),
		byID:   make(map[string]*Node, len(nodes)),
	}
	f.mc = mainchain.New(f.sim, cfg.Mainchain)
	f.mc.Deploy(f.escrow)
	// Fold every produced block into the history digest as it appears:
	// the observer runs on the simulator goroutine in block order.
	f.mc.OnBlock = append(f.mc.OnBlock, f.foldBlock)

	f.shared = &core.Shared{Sim: f.sim, MC: f.mc}
	retention := 0
	bounded := true
	for _, nc := range nodes {
		node, err := f.buildNode(f.shared, nc, cfg.Epochs)
		if err != nil {
			f.closeAll()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		f.byID[node.ID] = node
		if r := core.MainchainRetentionBlocks(nc.Chain); r > 0 {
			if r > retention {
				retention = r
			}
		} else {
			bounded = false
		}
	}
	// The shared chain keeps history for its most demanding member; one
	// member without a retention horizon keeps it unbounded.
	if bounded && retention > 0 {
		f.mc.SetRetention(retention)
	}

	if err := f.initTransfers(cfg.Transfers); err != nil {
		f.closeAll()
		return nil, err
	}
	return f, nil
}

// buildNode constructs one member and wires the runner's hooks.
func (f *Federation) buildNode(shared *core.Shared, nc NodeConfig, defaultEpochs int) (*Node, error) {
	epochs := nc.Epochs
	if epochs <= 0 {
		epochs = defaultEpochs
	}
	var gen *workload.MultiGenerator
	users := append([]string(nil), nc.ExtraUsers...)
	if nc.DailyVolume > 0 {
		wcfg := nc.Workload
		if wcfg.Seed == 0 {
			wcfg.Seed = nc.Chain.Seed
		}
		if wcfg.NumPools == 0 {
			wcfg.NumPools = nc.Chain.NumPools
		}
		gen = workload.NewMulti(wcfg)
		users = append(gen.Users(), users...)
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("%w: member %q has no users (set DailyVolume or ExtraUsers)",
			ErrBadFederation, nc.Chain.ChainID)
	}

	var sys *core.MultiSystem
	var err error
	if nc.StoreDir != "" {
		fsys := nc.StoreFS
		if fsys == nil {
			fsys = store.OSFS{}
		}
		cfg := nc.Chain
		cfg.Users = users
		sys, err = core.OpenFederatedFS(shared, fsys, nc.StoreDir, cfg)
		if err == nil {
			f.closer = append(f.closer, sys.Close)
		}
	} else {
		sys, err = core.NewFederatedSystem(shared, nc.Chain, users)
	}
	if err != nil {
		return nil, fmt.Errorf("federation: member %q: %w", nc.Chain.ChainID, err)
	}

	node := &Node{ID: nc.Chain.ChainID, Sys: sys, epochs: epochs, cfg: nc, users: users}
	f.wireNode(node)

	if gen != nil {
		// The member's Zipf arrivals for its whole run, at the constant
		// rate core.NewMultiDriver schedules.
		cfg := nc.Chain.WithDefaults()
		rho := workload.Rho(nc.DailyVolume, cfg.RoundDuration.Seconds())
		workload.ConstantRate(rho, epochs*cfg.EpochRounds, cfg.RoundDuration, func(at time.Duration) {
			sys.Sim().At(at, func() { sys.Submit(context.Background(), gen.Next()) })
		})
	}
	return node, nil
}

// wireNode attaches the runner's hooks to the node's CURRENT system —
// called once at construction and again on every revival, because hooks
// live on the system object and die with it.
func (f *Federation) wireNode(node *Node) {
	sys := node.Sys
	// The member serves the escrow's claimable-refund surface
	// (Claimable/ClaimRefund) — a revived origin chain's users claim
	// refunds parked while the chain was down.
	sys.AttachEscrow(f.escrow)
	if node.cfg.OnEpochStart != nil {
		hook := node.cfg.OnEpochStart
		sys.OnEpochStart = func(e uint64) { hook(sys, e) }
	}
	sys.SetOnFinished(func(halted bool) {
		node.finished = true
		node.halted = node.halted || halted
		f.finishedNodes++
		f.maybeStop()
	})
	sys.OnEvent(func(ev chain.Event) {
		switch ev.Type {
		case chain.EventEpochStart:
			f.onEpochStart(node, ev.Epoch)
		case chain.EventSyncConfirmed:
			f.onSyncConfirmed(node, ev.Epoch)
			if node.cfg.KillAtEpoch > 0 && !node.killed && ev.Epoch >= node.cfg.KillAtEpoch {
				f.scheduleKill(node)
			}
		case chain.EventHalted:
			node.halted = true
			f.onHalted(node)
		}
	})
}

// scheduleKill tears the member down at the next simulator step (not
// inside the confirmation callback that triggered it) and books its
// revival. The member's pre-scheduled events no-op against the dead
// system; its in-flight mainchain transactions stay in flight.
func (f *Federation) scheduleKill(node *Node) {
	node.killed = true
	f.sim.At(f.sim.Now(), func() {
		node.Sys.Kill()
		f.sim.At(f.sim.Now()+node.cfg.ReviveAfter, func() { f.revive(node) })
	})
}

// revive reopens a killed member's store directory through the full
// recovery path — checkpoint anchoring, pool-root re-derivation, sync
// replay — on the shared simulator and mainchain, swaps the node handle
// to the recovered system, rewires the runner's hooks, runs what the
// member was owed while down, and resumes the member's remaining epochs.
// Siblings never stopped.
func (f *Federation) revive(node *Node) {
	fsys := node.cfg.StoreFS
	if fsys == nil {
		fsys = store.OSFS{}
	}
	cfg := node.cfg.Chain
	cfg.Users = node.users
	sys, err := core.OpenFederatedFS(f.shared, fsys, node.cfg.StoreDir, cfg)
	if err != nil {
		// The corpse stays dead: record the failure and let the run end
		// without it (its finished notification was suppressed by Kill).
		node.reviveErr = fmt.Errorf("federation: revive member %q: %w", node.ID, err)
		node.finished = true
		node.halted = true
		f.finishedNodes++
		f.maybeStop()
		return
	}
	f.closer = append(f.closer, sys.Close)
	node.Sys = sys
	node.revived = true
	f.wireNode(node)
	for _, pay := range node.owed {
		pay()
	}
	node.owed = nil
	sys.StartEpochs(node.epochs)
}

// Node returns a member's system by chain ID (nil when unknown) — for
// pre-run setup such as funding transfer principals with SubmitDeposit.
func (f *Federation) Node(chainID string) *core.MultiSystem {
	if n := f.byID[chainID]; n != nil {
		return n.Sys
	}
	return nil
}

// Sim exposes the shared simulator for pre-run scheduling.
func (f *Federation) Sim() *sim.Simulator { return f.sim }

// Mainchain exposes the shared chain.
func (f *Federation) Mainchain() *mainchain.Chain { return f.mc }

// Escrow exposes the cross-chain escrow for post-run conservation checks.
func (f *Federation) Escrow() *mainchain.Escrow { return f.escrow }

// Run drives every member's full epoch lifecycle on the shared clock and
// returns per-member reports plus terminal transfer receipts. The first
// member halt does NOT end the run — siblings keep going, which is the
// point of fault isolation — so Run only returns an error for runner-
// level failures; per-member faults live in NodeResult.Err.
func (f *Federation) Run() (*Result, error) {
	if f.ran {
		return nil, fmt.Errorf("%w: federation already ran", ErrBadFederation)
	}
	f.ran = true
	// Chain-ID order fixes the t=0 event sequence: member i's first
	// epoch schedules before member i+1's.
	for _, n := range f.nodes {
		n.Sys.StartEpochs(n.epochs)
	}
	f.sim.Run()

	res := &Result{Duration: f.sim.Now(), MainchainDigest: f.histDigest}
	for _, n := range f.nodes {
		rep, err := n.Sys.CollectReport()
		if n.reviveErr != nil {
			err = n.reviveErr
		}
		res.Nodes = append(res.Nodes, &NodeResult{ChainID: n.ID, Report: rep, Err: err, Revived: n.revived})
	}
	for _, t := range f.transfers {
		res.Transfers = append(res.Transfers, t.rc)
	}
	f.closeAll()

	// Post-run sanity the runner owes its caller regardless of member
	// faults: escrow books balance and nothing stays in custody limbo.
	if err := f.escrow.Conserved(); err != nil {
		return res, err
	}
	if n := f.escrow.LockedCount(); n != 0 {
		return res, fmt.Errorf("federation: %d escrow entries still locked after run", n)
	}
	for _, t := range f.transfers {
		if !t.rc.Status.Terminal() {
			return res, fmt.Errorf("federation: transfer %s ended non-terminal (%s)", t.rc.ID, t.rc.Status)
		}
	}
	return res, nil
}

// maybeStop stops the shared chain once every member has finished, no
// escrow call is in flight, and every transfer is terminal. Transfers
// that can no longer progress (both endpoints quiesced) are settled
// here: custody-holding ones refund, custody-free ones abort.
func (f *Federation) maybeStop() {
	if f.stopped || f.finishedNodes < len(f.nodes) || f.escrowInFlight > 0 {
		return
	}
	for _, t := range f.transfers {
		if t.rc.Status.Terminal() || t.settleInFlight || t.lockInFlight {
			continue
		}
		switch t.rc.Status {
		case chain.TransferInitiated:
			f.abort(t, errors.New("federation: run ended before the transfer's submit epoch"))
		case chain.TransferWithdrawn:
			f.abort(t, errors.New("federation: origin never synced the withdraw epoch; no escrow was funded"))
		case chain.TransferEscrowed, chain.TransferDeposited:
			// Custody exists but the destination can no longer finalize.
			f.submitRefund(t, errors.New("federation: destination quiesced before the deposit synced"))
		}
	}
	if f.escrowInFlight > 0 || f.stopped {
		return
	}
	f.stopped = true
	f.mc.Stop()
}

// foldBlock extends the mainchain history digest with one block.
func (f *Federation) foldBlock(b *mainchain.Block) {
	h := sha256.New()
	h.Write(f.histDigest[:])
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(b.Number)
	put(uint64(b.MinedAt))
	put(b.GasUsed)
	put(uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		h.Write([]byte(tx.ID))
		put(uint64(tx.Status))
		put(tx.GasUsed)
	}
	h.Sum(f.histDigest[:0])
}

func (f *Federation) closeAll() {
	for _, c := range f.closer {
		_ = c()
	}
	f.closer = nil
}
