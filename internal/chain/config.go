package chain

import (
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/mainchain"
	"ammboost/internal/metrics"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
)

// ConsensusFidelity selects how a node's committee reaches agreement each
// round.
type ConsensusFidelity string

const (
	// FidelityModel advances the clock by the calibrated analytic
	// agreement-time model (the default: 500-member committees without the
	// wall-clock cost of real signature rounds).
	FidelityModel ConsensusFidelity = "model"
	// FidelityLive routes every committee round through real PBFT
	// replicas exchanging threshold-signature shares over the simulated
	// (and optionally faulted) network. Observable outputs — summary
	// roots, sync payload digests, receipt stage sequences — are pinned
	// identical to the model path when no faults are injected
	// (invariant 11); only timing differs.
	FidelityLive ConsensusFidelity = "live"
)

// FaultPlan schedules the interruptions the paper's recovery mechanisms
// handle, plus the unrecoverable faults the typed-error path surfaces.
// Node support: ViewChangeStormRounds and CorruptSyncEpochs work on
// every node; SkipSyncEpochs (the mass-sync recovery chain) works on
// every node without a store — a node with a store rejects it with a
// typed error rather than silently ignoring it.
type FaultPlan struct {
	// SkipSyncEpochs marks epochs whose committee fails to issue the
	// Sync call (malicious leader at epoch end): the epoch's signed Sync
	// is held and goes out just before the next epoch's (a mass-sync). A
	// skip at or after the final planned epoch syncs normally.
	SkipSyncEpochs map[uint64]bool
	// CorruptSyncEpochs marks epochs whose committee signs a corrupted
	// digest: the bank's TSQC verification fails, the Sync reverts
	// on-chain, and Run surfaces ErrSyncReverted (there is no recovery
	// path for an equivocating committee).
	CorruptSyncEpochs map[uint64]bool
	// ByzantineReplicas assigns an adversarial strategy to live-fidelity
	// committee replicas by index (equivocate on roots, vote-then-stall,
	// propose corrupt digests, stay silent). Live fidelity only: the
	// analytic model cannot represent per-replica behavior, so every
	// node's constructor rejects the combination with
	// ErrUnsupportedFault instead of silently ignoring it.
	ByzantineReplicas map[int]pbft.Byzantine
	// ViewChangeStormRounds marks (epoch, round) pairs that suffer k
	// consecutive silent leaders: the committee burns through k view
	// changes before the (k+1)-th leader proposes; a single silent leader
	// is a storm of 1. Works on both fidelities (the model charges k
	// timeout+view-change delays; live replicas genuinely stay mute k
	// views in a row). k <= 0 is ignored.
	ViewChangeStormRounds map[[2]uint64]int
}

// StormLength returns how many consecutive leaders stay silent at
// (epoch, round) — 0 when the round is storm-free.
func (f FaultPlan) StormLength(epoch, round uint64) int {
	k := f.ViewChangeStormRounds[[2]uint64{epoch, round}]
	if k < 0 {
		return 0
	}
	return k
}

// Config parameterizes a deployment. Zero values take the paper's
// defaults (WithDefaults). The constructor picks the bank, not the
// config: core.NewMultiSystem and core.Open run MultiBank over NumPools
// pools (zero means one), and core.NewDriver runs the paper's TokenBank,
// which embeds a MultiBank, on one pool.
type Config struct {
	Seed int64
	// ChainID names this sidechain inside a federation (empty for the
	// single-tenant default). It scopes the node's mainchain footprint —
	// bank contract account, sync transaction IDs — so K chains coexist
	// on one shared mainchain, and it feeds the durable store's
	// deployment fingerprint so per-node stores cannot be cross-wired.
	ChainID string
	// EpochRounds is ω, the rounds per epoch (default 30).
	EpochRounds int
	// RoundDuration is the sidechain round length (default 7 s).
	RoundDuration time.Duration
	// MetaBlockBytes caps the meta-block size (default 1 MB).
	MetaBlockBytes int
	// CommitteeSize is the PBFT committee size (default 500).
	CommitteeSize int
	// MinerPopulation is the sidechain miner count (default committee
	// size + 100).
	MinerPopulation int
	// InitialLiquidity seeds each pool's genesis full-range position
	// (default amm.GenesisLiquidity).
	InitialLiquidity u256.Int

	// NumPools is the engine's registered pool count (zero means one).
	NumPools int
	// NumShards is the engine's worker-shard count (default GOMAXPROCS).
	NumShards int
	// PipelineDepth bounds how many epochs the node keeps in flight at
	// once: the executing epoch plus the sealed epochs whose
	// asynchronous commitment/sync stage has not yet retired (default 2).
	// Depth 1 is a window of one: each epoch's commitment build and
	// signing finish (wall clock) before the next epoch starts. Depth >= 2
	// overlaps epoch N's commit stage with epoch N+1's execution, so
	// commitment hashing, chunking, and TSQC signing run concurrently with
	// next-epoch execution. At every depth the next epoch starts on the
	// round grid, never waiting for the summary agreement. The computed
	// state (summary roots, payload digests) is identical at every depth;
	// only timing changes. An epoch whose Sync is skipped leaves the
	// window when it seals.
	PipelineDepth int

	// Users registers the deployment's known user set up front. A node
	// requires it when it is constructed through Open (there is no
	// workload generator to supply users at recovery);
	// NewMultiDriver fills it from the generator. The durable store's
	// deployment fingerprint covers it.
	Users []string

	// RetainEpochs bounds per-epoch bookkeeping on long-running nodes:
	// when > 0, summary-root history (node and bank) older than the
	// newest pruned epoch minus RetainEpochs is compacted away, tied to
	// the prune horizon exactly like the sidechain's meta-block pruning.
	// 0 retains everything (experiment runs that compare all roots).
	RetainEpochs int
	// CompactEvery, when > 0, compacts the durable store every n
	// mainchain-confirmed epochs: records up to the confirmation cursor
	// fold into a single checkpoint and the log rewrites atomically, so
	// Open on a long history restores from the checkpoint instead of
	// replaying every epoch. The compaction runs beside the lifecycle,
	// which joins it before its next store write. 0 never compacts (the
	// log grows without bound, but every historical record survives).
	// Like shard count and pipeline depth, the setting changes storage
	// layout only — state is bit-identical either way — so it is absent
	// from the deployment fingerprint and may differ across restarts of
	// the same store.
	CompactEvery int
	// StoreFsyncEvery batches the durable store's fsyncs to every n-th
	// epoch retirement (default 1 = every epoch). Larger values trade
	// the last <n epochs on a crash for lower epoch-close latency.
	StoreFsyncEvery int

	// Ingest front end: the thread-safe admission layer
	// in front of the epoch lifecycle. IngestCapacity bounds the mempool
	// (default ingest.DefaultCapacity); a producer finding it full blocks
	// up to IngestMaxWait wall-clock (default ingest.DefaultMaxWait; < 0
	// never blocks) for a drain, then gets a typed ErrMempoolFull with a
	// retry hint. IngestSoftMark, when set below capacity, sheds whole
	// batches arriving above it with ErrThrottled — load shedding before
	// the hard wall (default: disabled). WithDefaults leaves all three
	// as given; ingest.New fills them.
	IngestCapacity int
	IngestSoftMark int
	IngestMaxWait  time.Duration
	// ArrivalLog, when non-nil, records the canonical arrival order at
	// every drain boundary for single-producer replay (invariant 13).
	ArrivalLog *ArrivalLog

	// Tracer, when non-nil, records a span per lifecycle stage per epoch
	// (submit, per-shard execute, seal, commit build, chunking, signing,
	// store append/fsync, sync submit/confirm, prune) with bounded
	// memory, exportable as Chrome trace-event JSON and summarized into
	// the Report's stage rows. Nil disables tracing at zero cost.
	// Tracing never perturbs computed state: roots and payload digests
	// are bit-identical with tracing on or off.
	Tracer *trace.Tracer
	// TraceBuffer, when positive, re-bounds the tracer's retained-epoch
	// window; zero keeps the window the tracer was built with. Older
	// epochs' spans rotate out, so tracing holds constant memory on
	// arbitrarily long runs.
	TraceBuffer int

	// ConsensusFidelity routes every node's committee rounds through the
	// analytic cost model (default) or real PBFT replicas over the
	// simulated network.
	ConsensusFidelity ConsensusFidelity
	// NetFaults, when non-nil, installs a deterministic fault schedule on
	// the live network (drop/duplicate/reorder, link degradation,
	// scheduled partitions, crash windows). Live fidelity only.
	NetFaults *netsim.FaultSchedule
	// LiveRoundTimeout bounds one live round's simulated duration: a
	// committee that cannot decide within it (partition outlasting the
	// window, > f byzantine replicas) halts the node deterministically
	// with ErrConsensusStalled (default 20 × RoundDuration).
	LiveRoundTimeout time.Duration
	// SyncFaults, when non-nil, installs a deterministic fault schedule
	// on the sidechain→mainchain submission path: sync parts traverse a
	// lossy uplink (drop/duplicate/delay per the schedule) instead of
	// landing in the mempool directly. Dropped parts are retransmitted on
	// a deterministic watchdog; a part that exhausts its retry budget
	// halts the node with ErrSyncUnreachable. Works on both fidelities —
	// the uplink is independent of the committee fabric.
	SyncFaults *netsim.FaultSchedule

	// Mainchain is the chain the node syncs to (default the paper's
	// Sepolia deployment). An epoch whose payloads exceed two thirds of
	// its block gas limit splits into several sync parts, so every part
	// fits an empty block.
	Mainchain mainchain.Config
	Faults    FaultPlan
}

// WithDefaults fills zero values with the paper's configuration. Every
// node constructor applies it, so a Config literal only sets what it
// changes.
func (c Config) WithDefaults() Config {
	if c.EpochRounds == 0 {
		c.EpochRounds = 30
	}
	if c.RoundDuration == 0 {
		c.RoundDuration = 7 * time.Second
	}
	if c.MetaBlockBytes == 0 {
		c.MetaBlockBytes = 1 << 20
	}
	if c.CommitteeSize == 0 {
		c.CommitteeSize = 500
	}
	if c.MinerPopulation == 0 {
		c.MinerPopulation = c.CommitteeSize + 100
	}
	if c.InitialLiquidity.IsZero() {
		c.InitialLiquidity = amm.GenesisLiquidity
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 2
	}
	if c.PipelineDepth < 1 {
		c.PipelineDepth = 1
	}
	if c.StoreFsyncEvery < 1 {
		c.StoreFsyncEvery = 1
	}
	if c.ConsensusFidelity == "" {
		c.ConsensusFidelity = FidelityModel
	}
	if c.LiveRoundTimeout == 0 {
		c.LiveRoundTimeout = 20 * c.RoundDuration
	}
	if c.Mainchain.BlockInterval == 0 {
		c.Mainchain = mainchain.DefaultConfig()
	}
	return c
}

// Report is the unified run summary a node returns from Run.
type Report struct {
	Collector *metrics.Collector

	EpochsRun  int
	Duration   time.Duration
	Throughput float64

	AvgSCLatency     time.Duration
	AvgPayoutLatency time.Duration

	MainchainBytes int
	MainchainGas   uint64

	SidechainRetainedBytes int
	SidechainPeakBytes     int
	SidechainPrunedBytes   int
	SidechainUnpruned      int

	NumPools  int
	NumShards int

	SyncsOK     int
	MassSyncs   int
	ViewChanges int
	Rejected    int
	QueuePeak   int
	// SyncParts counts MultiBank's sync-part executions behind SyncsOK:
	// attempted vs applied (equal unless parts were rejected — blocks pack
	// a part by its declared gas, so it executes once) and the TSQC checks
	// computed.
	SyncParts mainchain.SyncStats

	// Ingest front-end telemetry: admission outcomes across the run
	// (producer-side counters folded in at report time) and the peak
	// mempool occupancy admission control observed.
	IngestAdmitted  uint64
	IngestRejFull   uint64
	IngestThrottled uint64
	IngestCanceled  uint64
	IngestPeak      int

	// NetStats is the live committee network's traffic summary (zero for
	// model-fidelity runs: no messages actually flow there).
	NetStats netsim.Stats

	PositionsLive int
	// SummaryRoots[epoch] is the folded multi-pool root per epoch.
	SummaryRoots map[uint64][32]byte

	// Pipeline telemetry. PipelineDepth echoes the
	// configured in-flight window; PipelineOccupancy is the mean number
	// of commit/sync stages still in flight when each epoch sealed (0 at
	// depth 1, approaching PipelineDepth-1 when the commit stage is the
	// bottleneck); PipelineStallWall is the wall-clock time the run loop
	// spent blocked waiting for the asynchronous commit stage to retire an
	// epoch. At depth 1 the window is one epoch, so the stall is the whole
	// commit stage of every epoch.
	PipelineDepth     int
	PipelineOccupancy float64
	PipelineStallWall time.Duration

	// Tracing-derived summaries (empty unless Config.Tracer was set), all
	// folded by trace.Summarize from the tracer's retained window — the
	// window /metrics serves. Stages carries one wall-clock summary per
	// lifecycle stage; ShardImbalance* report the per-epoch max/mean shard
	// execute-time ratio (1.0 = perfectly balanced) on average, at its
	// worst, and the epoch that hit the worst; PipelineStallByStage
	// attributes the window's pipeline stalls to the commit-stage phase
	// the run loop found the oldest in-flight epoch blocked in.
	Stages                 []StageSummary
	ShardImbalanceAvg      float64
	ShardImbalanceMax      float64
	ShardImbalanceMaxEpoch uint64
	PipelineStallByStage   map[string]time.Duration
}

// StageSummary is one lifecycle stage's wall-clock summary.
type StageSummary = trace.StageSummary
