package trace

import (
	"encoding/json"
	"io"
)

// Track (tid) layout for the Chrome export: one track per lifecycle
// stage group plus one per execute shard, so Perfetto renders the epoch
// pipeline as parallel lanes — submission, execution shards, seal, the
// commit stage, the durable store, mainchain sync, prune, and stalls.
const (
	tidSubmit = 1
	tidSeal   = 2
	tidCommit = 3
	tidStore  = 4
	tidSync   = 5
	tidPrune  = 6
	tidStall  = 7
	// Execute shards occupy tidShardBase+shard.
	tidShardBase = 16
)

func (rec *SpanRecord) tid() int {
	switch rec.Stage {
	case StageSubmit:
		return tidSubmit
	case StageExecute:
		return tidShardBase + int(rec.Shard)
	case StageSeal:
		return tidSeal
	case StageCommitBuild, StageChunk, StageSign, StageEncode:
		return tidCommit
	case StageStoreAppend, StageStoreFsync, StageStoreCompact:
		return tidStore
	case StageSyncSubmit, StageSyncConfirm:
		return tidSync
	case StagePrune:
		return tidPrune
	case StageStall:
		return tidStall
	}
	return 0
}

func trackName(tid int) string {
	switch tid {
	case tidSubmit:
		return "submit"
	case tidSeal:
		return "seal"
	case tidCommit:
		return "commit stage"
	case tidStore:
		return "store"
	case tidSync:
		return "sync"
	case tidPrune:
		return "prune"
	case tidStall:
		return "pipeline stall"
	}
	return "execute shards"
}

// chromeEvent is one trace-event JSON object ("X" complete spans and
// "M" thread_name metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChrome exports the newest lastN retained epochs (<= 0 = all) as
// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
// Timestamps are microseconds since the tracer's creation. A nil tracer
// writes an empty (still valid) trace.
func (t *Tracer) WriteChrome(w io.Writer, lastN int) error {
	spans := t.Snapshot(lastN)
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans)+16)}

	seenTids := make(map[int]bool)
	emitMeta := func(tid int, name string) {
		if seenTids[tid] {
			return
		}
		seenTids[tid] = true
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, rec := range spans {
		tid := rec.tid()
		if rec.Stage == StageExecute {
			emitMeta(tid, "execute shard "+itoa(int(rec.Shard)))
		} else {
			emitMeta(tid, trackName(tid))
		}
		args := map[string]any{"epoch": rec.Epoch}
		if rec.Stage == StageExecute {
			args["shard"] = rec.Shard
		}
		if rec.Pools > 0 {
			args["pools"] = rec.Pools
		}
		if rec.Txs > 0 {
			args["txs"] = rec.Txs
		}
		if rec.Bytes > 0 {
			args["bytes"] = rec.Bytes
		}
		if rec.Gas > 0 {
			args["gas"] = rec.Gas
		}
		dur := float64(rec.Dur.Nanoseconds()) / 1e3
		if dur <= 0 {
			// Perfetto drops zero-duration complete events; pin a floor so
			// instantaneous stages stay visible.
			dur = 0.001
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: rec.Stage.String() + " e" + utoa(rec.Epoch),
			Cat:  "lifecycle", Ph: "X",
			Ts:  float64(rec.Start.Nanoseconds()) / 1e3,
			Dur: dur, Pid: 1, Tid: tid, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func itoa(v int) string {
	if v < 0 {
		return "-" + utoa(uint64(-v))
	}
	return utoa(uint64(v))
}

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
