// Package netsim models message delivery between simulated nodes with a
// configurable propagation latency and per-link bandwidth, layered on the
// discrete-event simulator. The paper's testbed is a cluster with 1 Gbps
// links; the defaults mirror that.
//
// Beyond the healthy fabric, the package provides a deterministic,
// seed-derived fault model (FaultSchedule): per-link latency/jitter
// overrides, probabilistic drop/duplication/reorder, partitions that form
// and heal at scheduled simulation times, and per-node crash/restart
// windows. Every random decision derives from (schedule seed, message
// sequence), never from shared RNG state or map iteration order, so a
// faulted run replays bit-identically under the same seed.
package netsim

import (
	"fmt"
	"time"

	"ammboost/internal/sim"
)

// Config describes the simulated network fabric.
type Config struct {
	// BaseLatency is the one-way propagation delay between any two nodes.
	BaseLatency time.Duration
	// BandwidthBps is the per-link bandwidth in bits per second; message
	// serialization time = size*8/BandwidthBps.
	BandwidthBps float64
	// Jitter adds a deterministic pseudo-random extra delay in
	// [0, Jitter) derived from the message sequence, keeping runs
	// reproducible without a shared RNG. Applied to unicast sends AND to
	// every broadcast copy (a committee behind real switches never sees
	// perfectly synchronized delivery).
	Jitter time.Duration
}

// DefaultConfig mirrors the paper's cluster: 1 Gbps links, ~2 ms one-way
// latency inside the data center.
func DefaultConfig() Config {
	return Config{
		BaseLatency:  2 * time.Millisecond,
		BandwidthBps: 1e9,
		Jitter:       500 * time.Microsecond,
	}
}

// Handler consumes a delivered message.
type Handler func(from string, payload any)

// Stats counts the network's observable traffic. Sent/Bytes count only
// messages that actually entered a link; drops (partition, crash, or the
// fault model's probabilistic loss) are counted separately so tests and
// experiments can assert on them.
type Stats struct {
	MessagesSent       uint64
	BytesSent          uint64
	MessagesDropped    uint64
	BytesDropped       uint64
	MessagesDuplicated uint64
}

// Network delivers messages between registered endpoints.
type Network struct {
	cfg   Config
	sim   *sim.Simulator
	nodes map[string]Handler
	// order is the registration order of node IDs: the deterministic
	// iteration order for Broadcast. Map iteration would randomize both
	// the per-copy serialization slot and the simulator scheduling
	// sequence, silently breaking run-to-run determinism.
	order []string
	seq   uint64

	// Partitioned pairs drop messages (scheduled by FaultSchedule windows
	// or set directly by tests).
	partitioned map[[2]string]bool
	// crashed nodes neither send nor receive until their restart fires
	// (fail-stop modeled as network isolation; the node's state machine
	// survives, as a real process restarted from its WAL would).
	crashed map[string]bool

	// faults is the installed deterministic fault model (nil = healthy).
	faults *FaultSchedule

	Stats
}

// New creates a network on the given simulator.
func New(s *sim.Simulator, cfg Config) *Network {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = 1e9
	}
	return &Network{
		cfg:         cfg,
		sim:         s,
		nodes:       make(map[string]Handler),
		partitioned: make(map[[2]string]bool),
		crashed:     make(map[string]bool),
	}
}

// Register attaches a handler for node id, replacing any previous one.
func (n *Network) Register(id string, h Handler) {
	if _, known := n.nodes[id]; !known {
		n.order = append(n.order, id)
	}
	n.nodes[id] = h
}

// Partition blocks both directions between a and b until Heal.
func (n *Network) Partition(a, b string) {
	n.partitioned[[2]string{a, b}] = true
	n.partitioned[[2]string{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b string) {
	delete(n.partitioned, [2]string{a, b})
	delete(n.partitioned, [2]string{b, a})
}

// Crash isolates a node: messages from and to it drop until Restart.
func (n *Network) Crash(id string) { n.crashed[id] = true }

// Restart ends a node's crash window.
func (n *Network) Restart(id string) { delete(n.crashed, id) }

// Crashed reports whether id is inside a crash window.
func (n *Network) Crashed(id string) bool { return n.crashed[id] }

// Delay returns the modeled delivery delay for a message of size bytes.
func (n *Network) Delay(size int) time.Duration {
	ser := time.Duration(float64(size*8) / n.cfg.BandwidthBps * float64(time.Second))
	return n.cfg.BaseLatency + ser
}

// jitter derives the deterministic pseudo-random extra delay for the
// seq-th message from the configured jitter bound.
func (n *Network) jitter(seq uint64) time.Duration {
	if n.cfg.Jitter <= 0 {
		return 0
	}
	return time.Duration(seq*2654435761) % n.cfg.Jitter
}

// drop records a message that never entered its link.
func (n *Network) drop(size int) {
	n.MessagesDropped++
	n.BytesDropped += uint64(size)
}

// deliver runs the shared per-message path: fault-model verdicts
// (drop/duplicate/extra delay), partition and crash checks, stats, and
// delivery scheduling. base is the healthy-path delay (latency +
// serialization slot) computed by the caller.
func (n *Network) deliver(from, to string, size int, base time.Duration, payload any) {
	n.seq++
	seq := n.seq
	if _, known := n.nodes[to]; !known {
		n.drop(size)
		return
	}
	if n.crashed[from] || n.crashed[to] || n.partitioned[[2]string{from, to}] {
		n.drop(size)
		return
	}
	delay := base + n.jitter(seq)
	copies := 1
	if n.faults != nil {
		verdict := n.faults.verdict(from, to, seq)
		if verdict.drop {
			n.drop(size)
			return
		}
		delay += verdict.extraDelay
		if verdict.duplicate {
			copies = 2
			n.MessagesDuplicated++
		}
	}
	for c := 0; c < copies; c++ {
		n.MessagesSent++
		n.BytesSent += uint64(size)
		at := delay
		if c > 0 {
			// The duplicate trails its original by a fresh jitter draw
			// (re-transmission after a lost ack, not a tee).
			at += n.cfg.BaseLatency + n.faults.dupLag(seq)
		}
		n.sim.After(at, func() {
			// Receiver state is checked again at delivery time: a node
			// that crashed while the message was in flight misses it.
			if n.crashed[to] {
				return
			}
			if h, ok := n.nodes[to]; ok {
				h(from, payload)
			}
		})
	}
}

// Send schedules delivery of payload (modeled at size bytes) from -> to.
// Messages to unknown, crashed, or partitioned endpoints are dropped, like
// packets on a real network — counted in MessagesDropped, never in
// MessagesSent.
func (n *Network) Send(from, to string, size int, payload any) {
	n.deliver(from, to, size, n.Delay(size), payload)
}

// Broadcast sends payload from one node to every other registered node.
// Each copy is serialized on the sender's uplink sequentially, modeling a
// leader pushing a proposal to a large committee; per-copy jitter applies
// exactly as for unicast sends. Recipients are walked in registration
// order so the serialization slots — and with them the whole downstream
// event schedule — are deterministic.
func (n *Network) Broadcast(from string, size int, payload any) {
	ser := time.Duration(float64(size*8) / n.cfg.BandwidthBps * float64(time.Second))
	i := 0
	for _, id := range n.order {
		if id == from {
			continue
		}
		// The i-th copy leaves the uplink after i serialization slots.
		n.deliver(from, id, size, n.cfg.BaseLatency+time.Duration(i+1)*ser, payload)
		i++
	}
}

// String describes the network configuration.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{lat=%s bw=%.0fMbps nodes=%d}",
		n.cfg.BaseLatency, n.cfg.BandwidthBps/1e6, len(n.nodes))
}
