package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/summary"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {25, 20}, {99, 49.6}, {100, 50}, {62.5, 35},
	} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	unsorted := []float64{5, 1, 4, 2}
	if got := median(unsorted); !near(got, 3) {
		t.Errorf("median = %v, want 3", got)
	}
	if !reflect.DeepEqual(unsorted, []float64{5, 1, 4, 2}) {
		t.Errorf("median reordered its input: %v", unsorted)
	}
	if lo, hi := minMax(unsorted); lo != 1 || hi != 5 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

func TestBoundArithmetic(t *testing.T) {
	// Lower is better: 110 against 100 is 10% worse.
	if got := worsening(100, 110, false); !near(got, 0.10) {
		t.Errorf("worsening lower-better = %v", got)
	}
	// Higher is better: 90 against 100 is 10% worse, 120 is 20% better.
	if got := worsening(100, 90, true); !near(got, 0.10) {
		t.Errorf("worsening higher-better = %v", got)
	}
	if got := worsening(100, 120, true); !near(got, -0.20) {
		t.Errorf("improvement should be negative, got %v", got)
	}
	tput := metricDef{Name: "txs_per_s", Better: "higher", Bound: 0.05}
	if gap, ok := runGap([]float64{100, 97, 99}, tput); !near(gap, 0.03) || !ok {
		t.Errorf("runGap = %v, %v", gap, ok)
	}
	lat := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	if gap, ok := runGap([]float64{10, 12}, lat); !near(gap, 0.20) || ok {
		t.Errorf("runGap = %v, %v", gap, ok)
	}
}

// TestIQRShareMatchesPython pins iqrShare to Python's
// statistics.quantiles(values, n=4) (exclusive method), which is what the
// acceptance driver computes over ten seeds.
func TestIQRShareMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := iqrShare(vals), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// quantiles([10, 20, 40], n=4) == [10, 20, 40]; median 20.
	if got, want := iqrShare([]float64{40, 10, 20}), 30.0/20; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one value = %v", got)
	}
}

// TestJoinStampsReceiptsByRound pins the receipt/event join: a
// transaction executed in round r gets round r's meta-block stamp and its
// epoch's prune stamp, measured from its batch's offer time; a
// transaction the executor rejected, and one the node never accepted,
// are failures and appear in no latency sample.
func TestJoinStampsReceiptsByRound(t *testing.T) {
	msec := time.Millisecond
	stream := make([]*summary.Tx, submitBatch+1)
	for i := range stream {
		stream[i] = &summary.Tx{}
	}
	log := &producerLog{
		receipts: make([]*chain.Receipt, len(stream)),
		offers:   []time.Duration{1 * msec, 15 * msec},
	}
	log.receipts[0] = &chain.Receipt{Status: chain.StatusPruned, Epoch: 1, Round: 1}
	log.receipts[1] = &chain.Receipt{Status: chain.StatusPruned, Epoch: 1, Round: 2}
	log.receipts[2] = &chain.Receipt{Status: chain.StatusRejected, Epoch: 1, Round: 2, Err: chain.ErrExecutionRejected}
	// Second batch (offered at 15 ms), executed in epoch 2.
	log.receipts[submitBatch] = &chain.Receipt{Status: chain.StatusPruned, Epoch: 2, Round: 1}
	stamps := []stamp{
		{chain.EventMetaBlock, 1, 1, 10 * msec},
		{chain.EventMetaBlock, 1, 2, 20 * msec},
		{chain.EventMetaBlock, 2, 1, 30 * msec},
		{chain.EventPruned, 1, 0, 100 * msec},
		{chain.EventPruned, 2, 0, 200 * msec},
	}
	tr := &trial{offered: len(stream)}
	tr.join([][]*summary.Tx{stream}, []*producerLog{log}, stamps)

	if tr.accepted != 4 || tr.pruned != 3 {
		t.Fatalf("accepted %d pruned %d, want 4 and 3", tr.accepted, tr.pruned)
	}
	if got, want := tr.failed(), len(stream)-3; got != want {
		t.Errorf("failed = %d, want %d (rejected and never-accepted transactions)", got, want)
	}
	if want := []float64{9, 15, 19}; !reflect.DeepEqual(tr.execMs, want) {
		t.Errorf("exec latencies %v, want %v", tr.execMs, want)
	}
	if want := []float64{99, 99, 185}; !reflect.DeepEqual(tr.pruneMs, want) {
		t.Errorf("prune latencies %v, want %v", tr.pruneMs, want)
	}
	if len(tr.gate) != 1 {
		t.Errorf("gate misses %v, want exactly the not-pruned receipt", tr.gate)
	}
}

// scriptedNode stands in for the node's SubmitBatch: it accepts at most
// room transactions per call and turns the rest away with
// ErrMempoolFull, refuses the transaction with ID "bad" as malformed
// without stopping the batch, and closes once closeAfter transactions are
// in.
type scriptedNode struct {
	room, closeAfter int
	calls, accepted  int
	seen             map[*summary.Tx]int
}

func (n *scriptedNode) SubmitBatch(_ context.Context, txs []*summary.Tx) (*chain.BatchResult, error) {
	n.calls++
	if n.accepted >= n.closeAfter {
		return nil, &chain.AdmissionError{Err: chain.ErrClosed}
	}
	res := &chain.BatchResult{Receipts: make([]*chain.Receipt, len(txs)), Errs: make([]error, len(txs))}
	full := &chain.AdmissionError{Err: chain.ErrMempoolFull}
	for i, tx := range txs {
		switch {
		case tx.ID == "bad":
			res.Errs[i] = chain.ErrMalformedTx
		case res.Accepted == n.room:
			res.Errs[i] = full
		default:
			n.seen[tx]++
			res.Receipts[i] = &chain.Receipt{TxID: tx.ID}
			res.Accepted++
		}
	}
	n.accepted += res.Accepted
	return res, nil
}

// TestReofferAccounting pins the producer against a mempool smaller than
// one batch: every call is a partial accept, the remainder is re-offered
// until it fits, and each transaction is accepted exactly once; a
// transaction the node refuses outright is abandoned without being
// offered again or blocking the ones behind it; when the node closes,
// everything not yet accepted is abandoned; and a batch's offer stamp is
// taken once, before its first call.
func TestReofferAccounting(t *testing.T) {
	const n = 3*submitBatch + 10
	stream := make([]*summary.Tx, n)
	for i := range stream {
		stream[i] = &summary.Tx{ID: "ok"}
	}
	stream[70].ID = "bad"
	newLog := func() *producerLog {
		return &producerLog{receipts: make([]*chain.Receipt, n), offers: make([]time.Duration, 4)}
	}
	primes := 0
	prime := func() { primes++ }

	node := &scriptedNode{room: submitBatch / 4, closeAfter: n, seen: make(map[*summary.Tx]int)}
	log := newLog()
	produce(context.Background(), node, stream, log, time.Now(), prime)
	for i, tx := range stream {
		switch {
		case tx.ID == "bad":
			if node.seen[tx] != 0 || log.receipts[i] != nil {
				t.Errorf("refused tx %d: accepted %d times, receipt %v", i, node.seen[tx], log.receipts[i])
			}
		case node.seen[tx] != 1 || log.receipts[i] == nil:
			t.Errorf("tx %d accepted %d times, receipt %v", i, node.seen[tx], log.receipts[i])
		}
	}
	if log.abandoned != 1 {
		t.Errorf("abandoned %d, want only the refused transaction", log.abandoned)
	}
	// A batch of 64 through a room of 16 takes 4 calls, 3 of them
	// carrying a turned-away remainder; the last batch of 10 fits.
	if want := 3 * 3; log.reoffers != want {
		t.Errorf("reoffers %d, want %d", log.reoffers, want)
	}
	if node.calls != log.reoffers+4 {
		t.Errorf("%d calls for %d re-offers over 4 batches", node.calls, log.reoffers)
	}
	if primes != node.calls {
		t.Errorf("prime called %d times over %d calls; the trial relies on it after every call", primes, node.calls)
	}
	for b := 1; b < len(log.offers); b++ {
		if log.offers[b] < log.offers[b-1] {
			t.Errorf("offer stamps not taken in batch order: %v", log.offers)
		}
	}

	node = &scriptedNode{room: submitBatch, closeAfter: submitBatch, seen: make(map[*summary.Tx]int)}
	log = newLog()
	produce(context.Background(), node, stream, log, time.Now(), prime)
	if want := n - submitBatch; log.abandoned != want {
		t.Errorf("after the node closed: abandoned %d, want %d", log.abandoned, want)
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the harness's
// own tables: workloads with their reasons, every metric's name, unit,
// direction and bound, and the contract's structural limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n json %v\n code %v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table:\n json %v\n code %v", c.PerLayer, perLayer)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, harness %s / %s", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[def.Name] {
			t.Errorf("metric name %s used twice", def.Name)
		}
		seen[def.Name] = true
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %s: direction %q", def.Name, def.Better)
		}
		if def.Name == "setup_s" {
			hasSetup = def.Unit == "s" && def.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || time.Duration(c.RunSeconds)*time.Second < nominalTrial {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths %v", c.Paths)
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func resultNames(r *result) []string {
	out := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeAllWorkloads runs every workload at about 2k transactions, one
// trial, gate on: a timing run must print exactly the end-to-end metrics
// (none of them zero), a traced run exactly the per-layer metrics with
// the single-goroutine replay reproducing the two-producer roots, and the
// store layer must be non-zero on the durable workload only.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w.txs = 2_048
		t.Run(w.name, func(t *testing.T) {
			// An admission wall of two batches keeps both producers parked
			// at it, as at benchmark size: with the workload's own wall the
			// whole 2k stream fits in the mempool, the node races through
			// empty rounds, and whether it closes under a descheduled
			// producer is up to the scheduler (README, found (f)).
			opts := trialOpts{tmpRoot: t.TempDir(), configure: func(c *chain.Config) {
				c.IngestCapacity = 2 * submitBatch
			}}
			rep, res, err := timingRun(w, 11, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.txs {
				t.Fatalf("timing run: correct=%v attempted=%d failed=%d misses=%v", res.Correct, res.Attempted, res.Failed, rep.GateMisses)
			}
			if got, want := resultNames(res), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("timing run printed %v, want %v", got, want)
			}
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be zero", name, v.Value)
				}
			}

			rep, res, err = tracedRun(w, 11, t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d misses=%v", res.Correct, res.Failed, rep.GateMisses)
			}
			if got, want := resultNames(res), metricNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run printed %v, want %v", got, want)
			}
			for _, name := range []string{"store.append_ms_per_epoch", "store.bytes_per_epoch", "store.open_ms", "store.compact_ms", "store.snapshot_bytes"} {
				if v := res.Metrics[name].Value; (v > 0) != w.durable {
					t.Errorf("%s = %v on a workload with durable=%v", name, v, w.durable)
				}
			}
			for _, name := range []string{"engine.execute_busy_ms", "tsig.sign_busy_ms", "core.replay_txs_per_s", "core.traced_cpu_share", "summary.apply_ns_per_tx.swap"} {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a measurement", name, v)
				}
			}
		})
	}
}
