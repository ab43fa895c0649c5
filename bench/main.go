// Command bench is the serving-path benchmark of the ammBoost
// reproduction: it drives a real core.MultiSystem through its public
// serving surface — SubmitBatch from two producer goroutines while Run
// executes the epoch lifecycle (ingest, execute, seal, commit, sign,
// store, mainchain sync, prune) — and reports wall-clock throughput,
// Submit→Executed and Submit→Pruned latency percentiles, allocations and
// the paper's mainchain cost per transaction, with a correctness gate on
// every trial. With -trace 1 it reports the per-layer budget instead.
// README.md in this directory is the manual; ../BENCHMARK.json is the
// contract the output is checked against.
//
//	go run -C bench ammboost/bench -workload swap-hot -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) higherBetter() bool { return m.Better == "higher" }

// endToEnd is the end-to-end metric table. BENCHMARK.json carries the
// same names, units, directions and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txs_per_s", "tx/s", "higher", 0.20},
	{"exec_latency_p99_ms", "ms", "lower", 0.25},
	{"prune_latency_p50_ms", "ms", "lower", 0.20},
	{"prune_latency_p99_ms", "ms", "lower", 0.25},
	{"allocs_per_tx", "count", "lower", 0.02},
	{"mainchain_gas_per_tx", "gas", "lower", 0.05},
	{"mainchain_bytes_per_tx", "B", "lower", 0.03},
}

// endToEnd returns the trial's value of every end-to-end metric.
func (t *trial) endToEnd() map[string]float64 {
	pruned := float64(max(t.pruned, 1))
	m := map[string]float64{
		"setup_s":              t.setup.Seconds(),
		"txs_per_s":            float64(t.pruned) / t.wall.Seconds(),
		"exec_latency_p99_ms":  percentile(t.execMs, 99),
		"prune_latency_p50_ms": percentile(t.pruneMs, 50),
		"prune_latency_p99_ms": percentile(t.pruneMs, 99),
		"allocs_per_tx":        float64(t.mallocs) / float64(max(t.offered, 1)),
	}
	if t.rep != nil {
		m["mainchain_gas_per_tx"] = float64(t.rep.MainchainGas) / pruned
		m["mainchain_bytes_per_tx"] = float64(t.rep.MainchainBytes) / pruned
	}
	return m
}

// metricValue is one metric of the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly the keys the
// benchmark contract names.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricReport is one metric in the human-facing report: the run value
// (median over trials for end-to-end metrics) with the trials' range and,
// for percentiles, the sample count behind it.
type metricReport struct {
	metricDef
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Trials  []float64 `json:"trials,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Parallel   bool   `json:"parallel"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostInfo {
	h := hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown",
	}
	h.Parallel = h.GOMAXPROCS >= 2
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report is the detailed record printed before the result line. Claim is
// last and null: defining the benchmark claims no gain.
type report struct {
	Workload    string         `json:"workload"`
	Why         string         `json:"why"`
	Seed        int64          `json:"seed"`
	Traced      bool           `json:"traced"`
	Host        hostInfo       `json:"host"`
	Producers   int            `json:"producers"`
	Trials      int            `json:"trials"`
	TxsPerTrial int            `json:"txs_per_trial"`
	Epochs      int            `json:"epochs_per_trial"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	FailedShare float64        `json:"failed_share"`
	Reoffers    int            `json:"reoffers"`
	Abandoned   int            `json:"abandoned"`
	GateMisses  []string       `json:"gate_misses"`
	Metrics     []metricReport `json:"metrics"`
	Claim       *string        `json:"claim"`
}

// trialSeed derives trial i's input seed from the run seed, so the trials
// of a run see different (but reproducible) streams.
func trialSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// timingRun is a run of a workload: trials fresh-node trials with tracing
// off, every end-to-end metric the median over the trials.
func timingRun(w spec, seed int64, trials int, opts trialOpts) (*report, *result, error) {
	rep := newReport(w, seed, false)
	per := make(map[string][]float64)
	samples := 0
	for i := 0; i < trials; i++ {
		t, err := runTrial(w, trialSeed(seed, i), opts)
		if err != nil {
			return nil, nil, err
		}
		rep.addTrial(t, i)
		for name, v := range t.endToEnd() {
			per[name] = append(per[name], v)
		}
		samples += len(t.execMs)
	}
	res := &result{Metrics: make(map[string]metricValue, len(endToEnd))}
	for _, def := range endToEnd {
		vals := per[def.Name]
		mr := metricReport{metricDef: def, Value: median(vals), Trials: vals}
		mr.Min, mr.Max = minMax(vals)
		if strings.Contains(def.Name, "latency") {
			mr.Samples = samples
		}
		rep.Metrics = append(rep.Metrics, mr)
		res.Metrics[def.Name] = metricValue{mr.Value, def.Unit}
	}
	rep.finish(res)
	return rep, res, nil
}

func newReport(w spec, seed int64, traced bool) *report {
	return &report{
		Workload: w.name, Why: w.why, Seed: seed, Traced: traced, Host: host(),
		Producers: numProducers, TxsPerTrial: w.txs, GateMisses: []string{},
	}
}

func (r *report) addTrial(t *trial, i int) {
	r.Trials++
	r.Epochs = t.epochs
	r.Attempted += t.offered
	r.Failed += t.failed()
	r.Reoffers += t.reoffers
	r.Abandoned += t.abandoned
	for _, miss := range t.gate {
		r.GateMisses = append(r.GateMisses, fmt.Sprintf("trial %d: %s", i, miss))
	}
}

func (r *report) finish(res *result) {
	r.FailedShare = float64(r.Failed) / float64(max(r.Attempted, 1))
	res.Correct = len(r.GateMisses) == 0
	res.Attempted = r.Attempted
	res.Failed = r.Failed
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: swap-hot, lp-churn, wide-sparse, durable (all of them with -repeat)")
		seed         = flag.Int64("seed", 1, "input seed: the same seed gives the same transaction streams")
		seconds      = flag.Int("seconds", 25, "measuring budget of one run; a run makes seconds/5 trials (at least 1)")
		traceOn      = flag.Int("trace", 0, "0: timing run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat       = flag.Int("repeat", 0, "self-check: make this many timing runs per workload and fail if their medians disagree by more than the bounds")
		outDir       = flag.String("out", "", "traced run: write the lifecycle spans as Chrome trace JSON into this directory")
	)
	flag.Parse()
	trials := max(1, int(time.Duration(*seconds)*time.Second/nominalTrial))

	tmpRoot, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		fatal(err)
	}
	opts := trialOpts{tmpRoot: tmpRoot}
	code := func() int {
		defer os.RemoveAll(tmpRoot)
		if *repeat > 0 {
			return repeatCheck(*workloadName, *seed, trials, *repeat, opts)
		}
		w, ok := findSpec(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		var rep *report
		var res *result
		if *traceOn != 0 {
			rep, res, err = tracedRun(w, *seed, *outDir, opts)
		} else {
			rep, res, err = timingRun(w, *seed, trials, opts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printJSON(rep, true)
		printJSON(res, false)
		if !res.Correct {
			return 1
		}
		return 0
	}()
	os.Exit(code)
}

func printJSON(v any, indent bool) {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
