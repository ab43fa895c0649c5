package chain

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"ammboost/internal/mainchain"
	"ammboost/internal/trace"
)

// Admin is a node's live telemetry surface: an event-driven view of the
// epoch lifecycle exported over HTTP. It subscribes to the node's event
// bus and maintains its own state (current epoch, last synced epoch,
// halt/recovery status, per-type event counts), so every endpoint is
// safe to serve concurrently with Run — handlers never touch the node
// beyond the internally synchronized tracer.
//
// Endpoints (see Handler):
//
//	/healthz       liveness + epoch height; 503 while halted
//	/metrics       plaintext key-value gauges and counters
//	/trace?epochs=N  Chrome trace-event JSON of the newest N epochs
//	/debug/vars    expvar (Go runtime memstats)
//	/debug/pprof/  the standard pprof profiles
type Admin struct {
	node Chain
	tr   *trace.Tracer
	ch   <-chan Event
	done chan struct{}

	mu          sync.Mutex
	epoch       uint64
	synced      uint64
	halted      bool
	haltReason  string
	recovered   bool
	runDone     bool
	laggedDrops int
	syncParts   mainchain.SyncStats
	counts      map[string]uint64
}

// NewAdmin attaches a telemetry surface to a node. tr may be nil (the
// /trace endpoint then reports 404 and /metrics omits span counters);
// when non-nil it should be the tracer wired into the node's Config so
// the surface reflects the run being observed. Call Close to release
// the event subscription when the surface is torn down before the run
// ends.
func NewAdmin(node Chain, tr *trace.Tracer) *Admin {
	a := &Admin{
		node:   node,
		tr:     tr,
		ch:     node.Subscribe(MaskAll),
		done:   make(chan struct{}),
		counts: make(map[string]uint64),
	}
	go a.watch()
	return a
}

// watch folds the event stream into the admin's snapshot state. The
// channel closes when the run finishes (or on Close), ending the loop.
func (a *Admin) watch() {
	defer close(a.done)
	for ev := range a.ch {
		a.mu.Lock()
		a.counts[ev.Type.String()]++
		switch ev.Type {
		case EventEpochStart:
			a.epoch = ev.Epoch
		case EventSyncConfirmed:
			if ev.Epoch > a.synced {
				a.synced = ev.Epoch
			}
			a.syncParts = ev.SyncParts
		case EventHalted:
			a.halted = true
			if ev.Err != nil {
				a.haltReason = ev.Err.Error()
			}
		case EventRecovered:
			a.recovered = true
			a.epoch = ev.Epoch
		case EventLagged:
			a.laggedDrops += ev.Dropped
		}
		a.mu.Unlock()
	}
	a.mu.Lock()
	a.runDone = true
	a.mu.Unlock()
}

// Close releases the admin's event subscription. Idempotent; also safe
// after the run already closed the channel.
func (a *Admin) Close() {
	a.node.Unsubscribe(a.ch)
	<-a.done
}

// Handler returns the admin HTTP mux. Mount it on a loopback listener —
// the pprof endpoints expose process internals.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.serveHealthz)
	mux.HandleFunc("/metrics", a.serveMetrics)
	mux.HandleFunc("/trace", a.serveTrace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveHealthz reports liveness as JSON: epoch height, sync height, and
// halt/recovery state. A halted node answers 503 so load-balancer-style
// checks fail over without parsing the body.
func (a *Admin) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	epoch, synced := a.epoch, a.synced
	halted, reason, recovered, done := a.halted, a.haltReason, a.recovered, a.runDone
	a.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if halted {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "{\"status\":%q,\"epoch\":%d,\"synced_epoch\":%d,\"halted\":%t,\"recovered\":%t,\"run_done\":%t",
		healthStatus(halted), epoch, synced, halted, recovered, done)
	if reason != "" {
		fmt.Fprintf(w, ",\"halt_reason\":%q", reason)
	}
	fmt.Fprint(w, "}\n")
}

func healthStatus(halted bool) string {
	if halted {
		return "halted"
	}
	return "ok"
}

// serveMetrics renders the plaintext key-value metric surface: lifecycle
// gauges, per-type event counters, and — when a tracer is attached —
// span totals plus per-stage latency quantiles: trace.Summarize over the
// retained window, the same fold behind Report.Stages (the tracer is the
// only node-shared structure that is safe to read concurrently with Run).
func (a *Admin) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	epoch, synced := a.epoch, a.synced
	halted, recovered, done := a.halted, a.recovered, a.runDone
	lagged, sp := a.laggedDrops, a.syncParts
	counts := make(map[string]uint64, len(a.counts))
	for k, v := range a.counts {
		counts[k] = v
	}
	a.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ammboost_epoch %d\n", epoch)
	fmt.Fprintf(w, "ammboost_synced_epoch %d\n", synced)
	fmt.Fprintf(w, "ammboost_halted %d\n", b2i(halted))
	fmt.Fprintf(w, "ammboost_recovered %d\n", b2i(recovered))
	fmt.Fprintf(w, "ammboost_run_done %d\n", b2i(done))
	fmt.Fprintf(w, "ammboost_events_lagged_dropped %d\n", lagged)
	fmt.Fprintf(w, "ammboost_sync_part_execs_total %d\n", sp.PartExecs)
	fmt.Fprintf(w, "ammboost_sync_parts_applied_total %d\n", sp.PartsApplied)
	fmt.Fprintf(w, "ammboost_sync_sig_verifies_total %d\n", sp.SigVerifies)
	for _, k := range sortedKeys(counts) {
		fmt.Fprintf(w, "ammboost_event_total{type=%q} %d\n", k, counts[k])
	}

	if a.tr == nil {
		return
	}
	fmt.Fprintf(w, "ammboost_trace_spans_total %d\n", a.tr.Total())
	fmt.Fprintf(w, "ammboost_trace_spans_dropped %d\n", a.tr.Dropped())
	// Only the stage rows are served; the shard count feeds imbalance alone.
	for _, st := range trace.Summarize(a.tr.Snapshot(0), 0).Stages {
		fmt.Fprintf(w, "ammboost_stage_seconds{stage=%q,q=\"0.50\"} %s\n", st.Stage, secs(st.P50))
		fmt.Fprintf(w, "ammboost_stage_seconds{stage=%q,q=\"0.95\"} %s\n", st.Stage, secs(st.P95))
		fmt.Fprintf(w, "ammboost_stage_seconds{stage=%q,q=\"0.99\"} %s\n", st.Stage, secs(st.P99))
		fmt.Fprintf(w, "ammboost_stage_count{stage=%q} %d\n", st.Stage, st.Count)
	}
}

// serveTrace streams the retained trace window as Chrome trace-event
// JSON. ?epochs=N limits the export to the newest N epochs.
func (a *Admin) serveTrace(w http.ResponseWriter, r *http.Request) {
	if a.tr == nil {
		http.Error(w, "tracing disabled (no tracer configured)", http.StatusNotFound)
		return
	}
	lastN := 0
	if s := r.URL.Query().Get("epochs"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "epochs must be a non-negative integer", http.StatusBadRequest)
			return
		}
		lastN = n
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	if err := a.tr.WriteChrome(w, lastN); err != nil {
		// Headers are gone; all we can do is cut the stream short.
		return
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// secs renders a duration as decimal seconds for the metric surface.
func secs(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 9, 64)
}
