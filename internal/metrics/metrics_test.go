package metrics

import (
	"testing"
	"time"

	"ammboost/internal/gasmodel"
)

func obs(kind gasmodel.TxKind, sub, mined, payout time.Duration) TxObservation {
	return TxObservation{Kind: kind, SubmittedAt: sub, MinedAt: mined, PayoutAt: payout}
}

func TestLatencyAverages(t *testing.T) {
	c := New()
	c.ObserveTx(obs(gasmodel.KindSwap, 0, 10*time.Second, 100*time.Second))
	c.ObserveTx(obs(gasmodel.KindSwap, 5*time.Second, 25*time.Second, 105*time.Second))
	if got := c.AvgSCLatency(); got != 15*time.Second {
		t.Errorf("AvgSCLatency = %s", got)
	}
	if got := c.AvgPayoutLatency(); got != 100*time.Second {
		t.Errorf("AvgPayoutLatency = %s", got)
	}
}

func TestThroughput(t *testing.T) {
	c := New()
	for i := 1; i <= 10; i++ {
		c.ObserveTx(obs(gasmodel.KindSwap, 0, time.Duration(i)*time.Second, 0))
	}
	if got := c.Throughput(); got != 1.0 {
		t.Errorf("Throughput = %f, want 1.0 (10 tx over 10s)", got)
	}
	if New().Throughput() != 0 {
		t.Error("empty collector throughput should be 0")
	}
}

func TestUnprocessedExcluded(t *testing.T) {
	c := New()
	c.ObserveTx(obs(gasmodel.KindSwap, 0, 10*time.Second, 0))
	c.ObserveTx(TxObservation{Kind: gasmodel.KindSwap, SubmittedAt: time.Second}) // never mined
	if got := c.NumProcessed(); got != 1 {
		t.Errorf("NumProcessed = %d", got)
	}
	if got := c.AvgPayoutLatency(); got != 0 {
		t.Errorf("payout latency over unpaid txs = %s", got)
	}
}

func TestGasAccounting(t *testing.T) {
	c := New()
	c.ObserveGas("sync", 100)
	c.ObserveGas("sync", 300)
	c.ObserveGas("deposit", 50)
	avg, n := c.AvgGas("sync")
	if avg != 200 || n != 2 {
		t.Errorf("AvgGas(sync) = %f x%d", avg, n)
	}
	if got := c.TotalGas(); got != 450 {
		t.Errorf("TotalGas = %d", got)
	}
	if _, n := c.AvgGas("missing"); n != 0 {
		t.Error("missing op should report 0 samples")
	}
	ops := c.Ops()
	if len(ops) != 2 || ops[0] != "deposit" || ops[1] != "sync" {
		t.Errorf("Ops = %v", ops)
	}
}

func TestMCLatency(t *testing.T) {
	c := New()
	c.ObserveMCLatency("sync", 10*time.Second)
	c.ObserveMCLatency("sync", 20*time.Second)
	avg, n := c.AvgMCLatency("sync")
	if avg != 15*time.Second || n != 2 {
		t.Errorf("AvgMCLatency = %s x%d", avg, n)
	}
}

func TestByKindCounts(t *testing.T) {
	c := New()
	c.ObserveTx(obs(gasmodel.KindSwap, 0, time.Second, 0))
	c.ObserveTx(obs(gasmodel.KindSwap, 0, time.Second, 0))
	c.ObserveTx(obs(gasmodel.KindMint, 0, time.Second, 0))
	byKind := c.NumProcessedByKind()
	if byKind[gasmodel.KindSwap] != 2 || byKind[gasmodel.KindMint] != 1 {
		t.Errorf("byKind = %v", byKind)
	}
}

func TestPipelineOccupancy(t *testing.T) {
	c := New()
	if c.AvgPipelineOccupancy() != 0 {
		t.Error("fresh collector should report zero pipeline occupancy")
	}
	for _, inflight := range []int{0, 1, 1, 2} {
		c.ObservePipeline(inflight)
	}
	if got := c.AvgPipelineOccupancy(); got != 1.0 {
		t.Errorf("avg occupancy = %v, want 1.0", got)
	}
}
