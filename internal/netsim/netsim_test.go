package netsim

import (
	"testing"
	"time"

	"ammboost/internal/sim"
)

func TestSendDelivers(t *testing.T) {
	s := sim.New()
	n := New(s, Config{BaseLatency: time.Millisecond, BandwidthBps: 1e9})
	var got any
	var from string
	n.Register("b", func(f string, p any) { from, got = f, p })
	n.Send("a", "b", 100, "hello")
	s.Run()
	if got != "hello" || from != "a" {
		t.Errorf("got %v from %q", got, from)
	}
	if s.Now() < time.Millisecond {
		t.Errorf("delivered before latency elapsed: %s", s.Now())
	}
}

func TestBandwidthDelay(t *testing.T) {
	s := sim.New()
	// 1 MB at 8 Mbps = 1 s serialization.
	n := New(s, Config{BaseLatency: 0, BandwidthBps: 8e6})
	var at time.Duration
	n.Register("b", func(string, any) { at = s.Now() })
	n.Send("a", "b", 1_000_000, nil)
	s.Run()
	if at != time.Second {
		t.Errorf("1MB at 8Mbps delivered at %s, want 1s", at)
	}
}

func TestUnknownEndpointDropped(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig())
	n.Send("a", "ghost", 10, nil) // must not panic
	s.Run()
}

func TestPartitionAndHeal(t *testing.T) {
	s := sim.New()
	n := New(s, Config{BaseLatency: time.Millisecond, BandwidthBps: 1e9})
	var count int
	n.Register("b", func(string, any) { count++ })
	n.Partition("a", "b")
	n.Send("a", "b", 10, nil)
	s.Run()
	if count != 0 {
		t.Error("partitioned message delivered")
	}
	n.Heal("a", "b")
	n.Send("a", "b", 10, nil)
	s.Run()
	if count != 1 {
		t.Error("healed link should deliver")
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	s := sim.New()
	n := New(s, Config{BaseLatency: time.Millisecond, BandwidthBps: 1e9})
	got := make(map[string]int)
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		n.Register(id, func(string, any) { got[id]++ })
	}
	n.Broadcast("a", 100, "blk")
	s.Run()
	if got["a"] != 0 {
		t.Error("sender received its own broadcast")
	}
	for _, id := range []string{"b", "c", "d"} {
		if got[id] != 1 {
			t.Errorf("%s got %d messages", id, got[id])
		}
	}
}

func TestBroadcastSerializesOnUplink(t *testing.T) {
	s := sim.New()
	// 1 MB per copy at 8 Mbps = 1 s per receiver; the last of 3 receivers
	// should see it after ~3 s.
	n := New(s, Config{BaseLatency: 0, BandwidthBps: 8e6})
	var last time.Duration
	for _, id := range []string{"b", "c", "d"} {
		n.Register(id, func(string, any) {
			if s.Now() > last {
				last = s.Now()
			}
		})
	}
	n.Register("a", func(string, any) {})
	n.Broadcast("a", 1_000_000, nil)
	s.Run()
	if last != 3*time.Second {
		t.Errorf("last delivery at %s, want 3s", last)
	}
}

func TestCrashDropsInFlightDelivery(t *testing.T) {
	s := sim.New()
	n := New(s, Config{BaseLatency: time.Millisecond, BandwidthBps: 1e9})
	count := 0
	n.Register("b", func(string, any) { count++ })
	n.Send("a", "b", 10, nil)
	n.Crash("b") // crash before delivery
	s.Run()
	if count != 0 {
		t.Error("message delivered to a crashed node")
	}
}

func TestStats(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig())
	n.Register("b", func(string, any) {})
	n.Send("a", "b", 123, nil)
	n.Send("a", "b", 77, nil)
	if n.MessagesSent != 2 || n.BytesSent != 200 {
		t.Errorf("stats: %d msgs %d bytes", n.MessagesSent, n.BytesSent)
	}
}
