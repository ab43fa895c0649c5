// Package trace is ammBoost's epoch-lifecycle span tracer: a bounded,
// production-safe recorder for where an epoch's wall-clock goes —
// submit/validate, per-shard execution, seal, the asynchronous commit
// stage (commitment build, gas chunking, TSQC signing, blob encoding),
// store append/fsync and compaction, mainchain sync submit/confirm, and
// prune.
//
// The tracer is designed to be left attached in production:
//
//   - Disabled tracing is a nil receiver. Every method on a nil *Tracer
//     is a no-op, Start returns a zero Span, and Span.End on a zero Span
//     returns immediately — zero allocations, a handful of instructions.
//   - Enabled tracing is bounded-memory. Spans bucket per epoch; the
//     tracer retains the newest retention-window epochs (SetRetention)
//     and each epoch's bucket is a ring capped at the span cap, so a
//     10k-epoch soak holds the same memory as a 10-epoch run.
//   - Recording never touches simulation state: the tracer only reads
//     the wall clock, so roots and payload digests are bit-identical
//     with tracing on or off (pinned by core's TestWorld).
//
// Spans are recorded from multiple goroutines (shard workers, the node's
// commit and store lanes, the simulator goroutine); the tracer is
// internally synchronized. Export is Chrome trace-event JSON
// (WriteChrome), loadable in Perfetto or chrome://tracing with one track
// per lifecycle stage group and one per execute shard.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Stage identifies one lifecycle stage a span belongs to.
type Stage uint8

const (
	// StageSubmit aggregates an epoch's submission-time validation work
	// (one span per epoch; Txs carries the accepted submission count).
	StageSubmit Stage = iota
	// StageExecute is one engine worker's transaction execution for one
	// epoch (one span per worker slot a round started, annotated with
	// the pool batches it pulled, tx count, and gas so skew is visible
	// at a glance).
	StageExecute
	// StageSeal is the epoch seal: executor settlement, pulled by the
	// engine's workers.
	StageSeal
	// StageCommitBuild is the commitment build: the per-pool payload and
	// state-root fold (SealedEpoch.Finalize).
	StageCommitBuild
	// StageChunk is gas chunking: splitting payloads into sync parts.
	StageChunk
	// StageSign is TSQC signing of an epoch's sync parts: one signature
	// over the Merkle root of their digests.
	StageSign
	// StageEncode is durable-store blob encoding (snapshot prefix and
	// sync-part record payloads) on the node's commit lane.
	StageEncode
	// StageStoreAppend is the durable store's epoch append (both records
	// plus buffered write, excluding the fsync), on the node's store
	// queue.
	StageStoreAppend
	// StageStoreFsync is the store's file sync (absent on epochs a
	// batched fsync policy skipped).
	StageStoreFsync
	// StageSyncSubmit is mainchain sync-part submission.
	StageSyncSubmit
	// StageSyncConfirm spans submission to the last part's confirmation;
	// in a pipelined run it overlaps later epochs' execution.
	StageSyncConfirm
	// StagePrune is meta-block pruning plus receipt finalization.
	StagePrune
	// StageStall is pipeline backpressure: wall-clock the run loop spent
	// blocked waiting for the commit stage to retire an epoch.
	StageStall
	// StageStoreCompact is one store compaction: fold, temp-file write,
	// fsync and rename (Bytes carries the checkpoint). It runs on the
	// node's store lane, overlapping later epochs.
	StageStoreCompact

	numStages
)

// String renders the stage label used in exports and metrics keys.
func (s Stage) String() string {
	switch s {
	case StageSubmit:
		return "submit"
	case StageExecute:
		return "execute-shard"
	case StageSeal:
		return "seal"
	case StageCommitBuild:
		return "commit-build"
	case StageChunk:
		return "chunk"
	case StageSign:
		return "sign"
	case StageEncode:
		return "store-encode"
	case StageStoreAppend:
		return "store-append"
	case StageStoreFsync:
		return "store-fsync"
	case StageSyncSubmit:
		return "sync-submit"
	case StageSyncConfirm:
		return "sync-confirm"
	case StagePrune:
		return "prune"
	case StageStall:
		return "pipeline-stall"
	case StageStoreCompact:
		return "store-compact"
	}
	return "unknown"
}

// SpanRecord is one completed span. Start is the offset from the
// tracer's creation (wall clock); annotation fields are zero where not
// meaningful for the stage.
type SpanRecord struct {
	Stage Stage
	Shard int32
	Epoch uint64
	Start time.Duration
	Dur   time.Duration
	Pools int
	Txs   int
	Bytes int
	Gas   uint64
	// WaitedOn names the commit phase a pipeline-stall span waited on:
	// "queued", "commit-build", "sign" or "store-encode".
	WaitedOn string
}

// Span is an in-progress measurement returned by Start. It is a value
// type: callers may set the annotation fields before End, and a Span
// from a nil tracer is inert. Spans must not outlive the call stack that
// started them (End records and forgets).
type Span struct {
	tr    *Tracer
	stage Stage
	epoch uint64
	start time.Duration

	// Annotations, recorded at End.
	Shard int
	Pools int
	Txs   int
	Bytes int
	Gas   uint64
}

// End completes the span and records it. No-op for a zero Span.
func (sp *Span) End() {
	if sp.tr == nil {
		return
	}
	end := sp.tr.Since()
	sp.tr.Record(SpanRecord{
		Stage: sp.stage, Shard: int32(sp.Shard), Epoch: sp.epoch,
		Start: sp.start, Dur: end - sp.start,
		Pools: sp.Pools, Txs: sp.Txs, Bytes: sp.Bytes, Gas: sp.Gas,
	})
}

// Default bounds: retain the newest 8 epochs, at most 512 spans each.
// The lifecycle records ~(numShards + 12) spans per epoch, so the span
// cap only bites on pathological callers.
const (
	DefaultRetention = 8
	DefaultSpanCap   = 512
)

// epochBucket is one epoch's span ring.
type epochBucket struct {
	epoch uint64
	spans []SpanRecord
	next  int // ring write cursor once len(spans) == cap
}

// Tracer records lifecycle spans with bounded memory. The zero value is
// not usable — construct with New. A nil *Tracer is the disabled tracer:
// every method is a safe no-op.
type Tracer struct {
	start time.Time

	mu       sync.Mutex
	epochCap int
	spanCap  int
	// buckets hold the retained epochs in increasing epoch order.
	buckets []*epochBucket
	total   uint64
	dropped uint64
}

// New creates a tracer retaining the newest `epochs` epochs of spans
// (<= 0 takes DefaultRetention).
func New(epochs int) *Tracer {
	t := &Tracer{start: time.Now(), spanCap: DefaultSpanCap}
	t.SetRetention(epochs)
	return t
}

// SetRetention re-bounds the retained-epoch window (<= 0 restores the
// default), evicting the oldest epochs if the window shrank.
func (t *Tracer) SetRetention(epochs int) {
	if t == nil {
		return
	}
	if epochs <= 0 {
		epochs = DefaultRetention
	}
	t.mu.Lock()
	t.epochCap = epochs
	t.evictLocked()
	t.mu.Unlock()
}

// Since returns the wall-clock offset from the tracer's creation — the
// timebase every SpanRecord.Start uses. Zero on a nil tracer.
func (t *Tracer) Since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Start opens a span for a stage of an epoch. On a nil tracer it returns
// a zero Span whose End is a no-op, without allocating.
func (t *Tracer) Start(stage Stage, epoch uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, stage: stage, epoch: epoch, start: t.Since()}
}

// Record inserts a completed span (for pre-measured work, e.g. per-shard
// execution accumulated across an epoch's rounds). Safe from any
// goroutine; no-op on a nil tracer.
func (t *Tracer) Record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	b := t.bucketLocked(rec.Epoch)
	if b == nil {
		// Late span for an epoch the retention window already evicted
		// (a deeply pipelined commit stage finishing after the window
		// moved on): count the loss rather than resurrecting the epoch.
		t.dropped++
		return
	}
	if len(b.spans) < t.spanCap {
		b.spans = append(b.spans, rec)
		return
	}
	// Ring full: overwrite the oldest span of this epoch, visibly.
	b.spans[b.next] = rec
	b.next = (b.next + 1) % len(b.spans)
	t.dropped++
}

// bucketLocked finds or creates the bucket for an epoch, evicting the
// oldest epochs past the retention window. Returns nil for epochs older
// than the window's floor.
func (t *Tracer) bucketLocked(epoch uint64) *epochBucket {
	n := len(t.buckets)
	// Fast path: spans overwhelmingly target the newest epochs.
	for i := n - 1; i >= 0; i-- {
		b := t.buckets[i]
		if b.epoch == epoch {
			return b
		}
		if b.epoch < epoch {
			break
		}
	}
	if n >= t.epochCap && n > 0 && epoch < t.buckets[0].epoch {
		return nil // older than a full window's floor
	}
	i := sort.Search(n, func(i int) bool { return t.buckets[i].epoch >= epoch })
	b := &epochBucket{epoch: epoch}
	t.buckets = append(t.buckets, nil)
	copy(t.buckets[i+1:], t.buckets[i:])
	t.buckets[i] = b
	t.evictLocked()
	return b
}

func (t *Tracer) evictLocked() {
	for len(t.buckets) > t.epochCap {
		t.buckets[0] = nil
		t.buckets = t.buckets[1:]
	}
}

// Snapshot copies the retained spans of the newest lastN epochs (<= 0
// means every retained epoch), sorted by (epoch, start). Nil tracer or
// empty window yields nil.
func (t *Tracer) Snapshot(lastN int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	buckets := t.buckets
	if lastN > 0 && len(buckets) > lastN {
		buckets = buckets[len(buckets)-lastN:]
	}
	var out []SpanRecord
	for _, b := range buckets {
		out = append(out, b.spans...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch < out[j].Epoch
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Epochs lists the retained epoch numbers in increasing order.
func (t *Tracer) Epochs() []uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(t.buckets))
	for i, b := range t.buckets {
		out[i] = b.epoch
	}
	return out
}

// Total counts every span ever recorded (including later-dropped ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped counts spans lost to the per-epoch ring cap or to late
// arrival behind the retention window. Rotation of whole epochs out of
// the window is by design and is not counted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
