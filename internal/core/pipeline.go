package core

import (
	"sync/atomic"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/engine"
	"ammboost/internal/mainchain"
	"ammboost/internal/trace"
)

// commitJob is one sealed epoch issued to the commit lane, the
// asynchronous commit/sync stage. Everything the stage needs is captured
// at seal time on the simulator goroutine — the sealed engine hand-off,
// the epoch's committee, the next committee's group key, and the fault
// plan's verdicts for this epoch — so the stage never touches
// MultiSystem state.
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
	// persist asks the stage to also encode the epoch's durable snapshot
	// and sync-part record payloads, keeping that serialization off the
	// simulator goroutine; suffixLen is the exact length of the receipt
	// table and run counters the store lane appends to the snapshot
	// record, so the stage sizes that record once.
	persist   bool
	suffixLen int
	// tr is the lifecycle tracer (nil = disabled); the stage records its
	// commit-build / chunk / sign / encode spans through it.
	tr *trace.Tracer

	// stage marks the commit-stage phase the job is currently in, for
	// stall attribution: when the run loop blocks on this job, the phase
	// it reads here names what retirement is waiting on.
	stage atomic.Int32

	run *task // the job on the commit lane; pkg is set once it finishes
	pkg *syncPackage
}

// Commit-stage phases, in stage order (stall attribution labels).
const (
	jobQueued int32 = iota // issued, an earlier job still running
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
	// payloads (nil when the node has no store); the store lane appends
	// the receipt table and writes them.
	snapPrefix []byte
	partsBlob  []byte
	// err is a commit-stage fault (today: TSQC signing failure). The
	// retiring goroutine surfaces it as chain.ErrCommitStage wrapping the
	// underlying sentinel.
	err error
}

// buildSyncPackage runs the heavy half of epoch close on the commit
// lane: the engine fold (payloads, state roots, summary root), then the
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
