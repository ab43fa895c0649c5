package core

import (
	"sync"
	"sync/atomic"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/trace"
)

// commitJob is one sealed epoch queued for the asynchronous commit/sync
// stage. Everything the stage needs is captured at seal time on the
// simulator goroutine — the sealed engine hand-off, the epoch's
// committee, the next committee's group key, and the fault plan's
// verdicts for this epoch — so the stage worker never touches MultiSystem
// state.
type commitJob struct {
	epoch   uint64
	sealed  *engine.SealedEpoch
	ck      *committeeKeys
	nextKey tsig.GroupKey
	// skip marks an epoch whose sync is lost: retirement holds its signed
	// parts until the next epoch's go out (a mass-sync).
	skip      bool
	corrupt   bool
	gasBudget uint64
	// persist asks the stage worker to also encode the epoch's durable
	// snapshot and sync-part record payloads, keeping that serialization
	// off the simulator goroutine; suffixLen is the exact length of the
	// receipt table and run counters the store queue appends to the
	// snapshot record, so the worker sizes that record once.
	persist   bool
	suffixLen int
	// tr is the lifecycle tracer (nil = disabled); the stage worker
	// records its commit-build / chunk / sign / encode spans through it.
	tr *trace.Tracer

	// stage marks the commit-stage phase the worker is currently in, for
	// stall attribution: when the run loop blocks on this job, the phase
	// it reads here names what retirement is waiting on.
	stage atomic.Int32

	done chan struct{} // closed by the stage worker once pkg is set
	pkg  *syncPackage
}

// Commit-stage phases, in worker order (stall attribution labels).
const (
	jobQueued int32 = iota // submitted, worker not started yet
	jobBuild               // engine fold (Finalize)
	jobSign                // gas chunking + TSQC signing
	jobEncode              // durable-store blob encoding
)

// jobStageName labels a commit-stage phase for stall attribution.
func jobStageName(st int32) string {
	switch st {
	case jobBuild:
		return trace.StageCommitBuild.String()
	case jobSign:
		return trace.StageSign.String()
	case jobEncode:
		return trace.StageEncode.String()
	}
	return "queued"
}

// syncPackage is the commit/sync stage's output for one epoch: the folded
// engine result plus the fully signed, chunked mainchain sync parts. The
// simulator goroutine consumes it at retirement — publishing the summary
// checkpoint, advancing receipts, and submitting the pre-signed parts —
// so every externally observable effect still happens in deterministic
// per-epoch order on the simulator goroutine.
type syncPackage struct {
	res *engine.EpochResult
	// txs are the signed sync part transactions.
	txs []*mainchain.Tx
	// scBytes is the epoch's total sidechain summary size (drives the
	// summary agreement delay).
	scBytes int
	// snapPrefix/partsBlob are the pre-encoded durable-store record
	// payloads (nil when the node has no store); the store queue appends
	// the receipt table and writes them.
	snapPrefix []byte
	partsBlob  []byte
	// err is a commit-stage fault (today: TSQC signing failure). The
	// retiring goroutine surfaces it as chain.ErrCommitStage wrapping the
	// underlying sentinel.
	err error
}

// commitPipeline is the bounded asynchronous commit/sync stage of the
// epoch lifecycle; PipelineDepth 1 is a window of one. One stage worker
// consumes sealed epochs in FIFO order — an idle pool answers from the
// root its last touched epoch's Finalize cached, so epochs finalize
// sequentially — and each job's Finalize fans out across the engine's
// shard workers, so the stage is a bounded worker pool: one
// coordinator plus numShards hashing workers, all overlapping the
// simulator goroutine's execution of later epochs.
//
// The inflight window is owned by the simulator goroutine; only the jobs
// channel and each job's done/pkg pair cross goroutines.
type commitPipeline struct {
	jobs     chan *commitJob
	wg       sync.WaitGroup
	closed   sync.Once
	inflight []*commitJob
}

// newCommitPipeline starts the stage worker. depth bounds the number of
// sealed-but-unretired epochs the caller will ever allow, sizing the
// queue so submission never blocks the simulator goroutine.
func newCommitPipeline(depth int) *commitPipeline {
	p := &commitPipeline{jobs: make(chan *commitJob, depth)}
	p.wg.Add(1)
	go p.run()
	return p
}

func (p *commitPipeline) run() {
	defer p.wg.Done()
	for job := range p.jobs {
		job.pkg = buildSyncPackage(job)
		close(job.done)
	}
}

// submit queues a sealed epoch for the stage. The caller keeps at most
// depth-1 epochs in flight before a submit (it retires down to that right
// after each one), so the send never blocks.
func (p *commitPipeline) submit(job *commitJob) {
	p.inflight = append(p.inflight, job)
	p.jobs <- job
}

// depth returns the number of sealed epochs not yet retired.
func (p *commitPipeline) depth() int { return len(p.inflight) }

// awaitOldest blocks until the oldest in-flight epoch's package is ready
// and removes it from the window. This is the pipeline's only
// synchronization point: virtual time is untouched — only wall-clock is
// spent here, and only when the commit stage is still behind.
func (p *commitPipeline) awaitOldest() *commitJob {
	job := p.inflight[0]
	<-job.done
	p.inflight = p.inflight[1:]
	return job
}

// close shuts the stage down after the simulator drained: the worker
// finishes any queued jobs (a halted run may abandon their packages) and
// exits. Blocks until the worker goroutine is gone, so Run never leaks a
// goroutine still touching engine state. Kill closes the stage early, so
// a second close (the killed node's report) only waits.
func (p *commitPipeline) close() {
	p.closed.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// buildSyncPackage runs the heavy half of epoch close on the stage
// worker: the engine fold (payloads, state roots, summary root), then the
// sync parts' chunking and TSQC signing (including the fault plan's
// digest corruption). When the job carries a tracer it records
// commit-build / chunk / sign / encode spans; the phase marker advances
// alongside for stall attribution. Tracing never touches the package's
// payload bytes.
func buildSyncPackage(job *commitJob) *syncPackage {
	job.stage.Store(jobBuild)
	spBuild := job.tr.Start(trace.StageCommitBuild, job.epoch)
	res := job.sealed.Finalize()
	pkg := &syncPackage{res: res}
	spBuild.Pools = len(res.PoolIDs)
	spBuild.End()
	for _, p := range res.Payloads {
		pkg.scBytes += p.SidechainBytes()
	}
	job.stage.Store(jobSign)
	parts, err := signSyncParts(job.epoch, res, job.ck, job.nextKey, job.corrupt, job.gasBudget, job.tr)
	if err != nil {
		pkg.err = err
		return pkg
	}
	pkg.txs = partTxs(parts)
	if job.persist {
		job.stage.Store(jobEncode)
		spEnc := job.tr.Start(trace.StageEncode, job.epoch)
		pkg.snapPrefix, pkg.partsBlob = encodeEpochBlobs(job.sealed, res, pkg.txs, job.suffixLen)
		spEnc.Bytes = len(pkg.snapPrefix) + len(pkg.partsBlob)
		spEnc.End()
	}
	return pkg
}
