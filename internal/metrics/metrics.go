// Package metrics collects the quantities the paper's evaluation reports:
// throughput (tx/s), sidechain transaction latency (submission →
// meta-block), payout latency (submission → Sync confirmation on the
// mainchain), gas per operation, and byte growth of both chains.
//
// Counts and averages are maintained as exact running aggregates, so
// they cost O(1) memory regardless of run length; no raw sample is kept.
//
// Stage timing is not collected here: trace.Summarize folds it from the
// tracer's span window.
package metrics

import (
	"sort"
	"time"

	"ammboost/internal/gasmodel"
)

// TxObservation records one transaction's lifecycle timestamps. Zero
// values mean "not reached".
type TxObservation struct {
	Kind        gasmodel.TxKind
	SubmittedAt time.Duration
	MinedAt     time.Duration // appeared in a meta-block (or L1 block)
	PayoutAt    time.Duration // epoch Sync confirmed on the mainchain
}

type gasAgg struct {
	sum   uint64
	count int
}

type latAgg struct {
	sum   time.Duration
	count int
}

// Collector aggregates observations from one run.
type Collector struct {
	// Transaction lifecycle aggregates.
	processed       int
	processedByKind map[gasmodel.TxKind]int
	lastMinedAt     time.Duration
	scLatencySum    float64 // seconds; see AvgSCLatency on overflow
	payoutSum       float64
	payoutCount     int

	// Gas and confirmation latency per mainchain operation label.
	gasByOp   map[string]*gasAgg
	mcLatency map[string]*latAgg
	// lifecycle counts epoch lifecycle events by stage label (fed from
	// the chain event bus: epoch-start, meta-block, sync-confirmed, …).
	lifecycle map[string]int
	// eventDrops counts bus events shed for slow subscribers.
	eventDrops int
	// Pipeline occupancy: one sample per epoch seal, counting the
	// commit/sync stages still in flight at that moment.
	pipelineSamples int
	pipelineSum     int
}

// New creates an empty collector.
func New() *Collector {
	return &Collector{
		processedByKind: make(map[gasmodel.TxKind]int),
		gasByOp:         make(map[string]*gasAgg),
		mcLatency:       make(map[string]*latAgg),
		lifecycle:       make(map[string]int),
	}
}

// ObserveLifecycle counts one epoch lifecycle event for a stage label.
func (c *Collector) ObserveLifecycle(stage string) { c.lifecycle[stage]++ }

// LifecycleCount returns how many events a stage recorded.
func (c *Collector) LifecycleCount(stage string) int { return c.lifecycle[stage] }

// LifecycleStages lists the stage labels with observations, sorted.
func (c *Collector) LifecycleStages() []string {
	out := make([]string, 0, len(c.lifecycle))
	for s := range c.lifecycle {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ObserveEventDrops accumulates bus events dropped for slow subscribers.
func (c *Collector) ObserveEventDrops(n int) {
	if n > 0 {
		c.eventDrops += n
	}
}

// EventDrops returns the total bus events shed for slow subscribers; a
// nonzero value means at least one subscriber's view has gaps (each also
// received EventLagged markers).
func (c *Collector) EventDrops() int { return c.eventDrops }

// ObserveTx records a sidechain transaction lifecycle.
func (c *Collector) ObserveTx(o TxObservation) {
	if o.MinedAt > 0 {
		c.processed++
		c.processedByKind[o.Kind]++
		if o.MinedAt > c.lastMinedAt {
			c.lastMinedAt = o.MinedAt
		}
		// Sums accumulate in float64 seconds: a week-long payout window
		// over 10^5 observations overflows int64 nanoseconds.
		c.scLatencySum += (o.MinedAt - o.SubmittedAt).Seconds()
	}
	if o.PayoutAt > 0 {
		c.payoutSum += (o.PayoutAt - o.SubmittedAt).Seconds()
		c.payoutCount++
	}
}

// ObservePipeline records one epoch-seal observation of the lifecycle
// pipeline: inflight is the number of earlier epochs whose asynchronous
// commit/sync stage had not yet retired when this epoch sealed.
func (c *Collector) ObservePipeline(inflight int) {
	c.pipelineSamples++
	c.pipelineSum += inflight
}

// AvgPipelineOccupancy is the mean in-flight commit/sync stage count over
// all epoch seals (0 when the run never overlapped stages).
func (c *Collector) AvgPipelineOccupancy() float64 {
	if c.pipelineSamples == 0 {
		return 0
	}
	return float64(c.pipelineSum) / float64(c.pipelineSamples)
}

// ObserveGas records gas for a labeled mainchain operation.
func (c *Collector) ObserveGas(op string, gas uint64) {
	g := c.gasByOp[op]
	if g == nil {
		g = &gasAgg{}
		c.gasByOp[op] = g
	}
	g.sum += gas
	g.count++
}

// ObserveMCLatency records a mainchain confirmation latency for a label.
func (c *Collector) ObserveMCLatency(op string, d time.Duration) {
	l := c.mcLatency[op]
	if l == nil {
		l = &latAgg{}
		c.mcLatency[op] = l
	}
	l.sum += d
	l.count++
}

// NumProcessed counts transactions that reached a meta-block.
func (c *Collector) NumProcessed() int { return c.processed }

// NumProcessedByKind counts processed transactions per kind.
func (c *Collector) NumProcessedByKind() map[gasmodel.TxKind]int {
	out := make(map[gasmodel.TxKind]int, len(c.processedByKind))
	for k, n := range c.processedByKind {
		out[k] = n
	}
	return out
}

// Throughput returns processed transactions per second over the window
// ending at the last processing event.
func (c *Collector) Throughput() float64 {
	if c.lastMinedAt == 0 {
		return 0
	}
	return float64(c.processed) / c.lastMinedAt.Seconds()
}

// AvgSCLatency is the mean submission → meta-block delay.
func (c *Collector) AvgSCLatency() time.Duration {
	if c.processed == 0 {
		return 0
	}
	return time.Duration(c.scLatencySum / float64(c.processed) * float64(time.Second))
}

// AvgPayoutLatency is the mean submission → Sync-confirmation delay.
func (c *Collector) AvgPayoutLatency() time.Duration {
	if c.payoutCount == 0 {
		return 0
	}
	return time.Duration(c.payoutSum / float64(c.payoutCount) * float64(time.Second))
}

// AvgGas returns the mean gas for an operation label, with the sample
// count.
func (c *Collector) AvgGas(op string) (float64, int) {
	g := c.gasByOp[op]
	if g == nil || g.count == 0 {
		return 0, 0
	}
	return float64(g.sum) / float64(g.count), g.count
}

// TotalGas sums gas across every labeled operation.
func (c *Collector) TotalGas() uint64 {
	var sum uint64
	for _, g := range c.gasByOp {
		sum += g.sum
	}
	return sum
}

// AvgMCLatency returns the mean confirmation latency for a label.
func (c *Collector) AvgMCLatency(op string) (time.Duration, int) {
	l := c.mcLatency[op]
	if l == nil || l.count == 0 {
		return 0, 0
	}
	return l.sum / time.Duration(l.count), l.count
}

// Ops lists the labels with gas observations.
func (c *Collector) Ops() []string {
	out := make([]string, 0, len(c.gasByOp))
	for op := range c.gasByOp {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}
