// Package netsim is the discrete-event model of the paper's testbed: a
// cluster of homogeneous machines on a fully switched 100 Mbit/s Ethernet.
// It stands in for the Itanium cluster of the paper's Section 5.
//
// Physical model, matching the paper's Section 3 assumptions:
//
//   - Fully switched: every directed pair is a separate collision domain,
//     so transmissions never interfere across links.
//   - Full duplex: a node's transmit and receive paths are independent.
//   - Store and forward: a frame arrives at the receiver one wire time
//     plus PropDelay after its transmission starts.
//   - Processing cost: the testbed machines are dual-processor, so each
//     node is modeled with two serial pipelines. The network CPU charges
//     RxFixed + wireBytes*RxPerByte per received frame before the engine
//     reacts (forwarding path). The delivery CPU charges DeliverFixed +
//     payloadBytes*DeliverPerByte per TO-delivered segment — the full
//     middleware upcall: deserialize, order, copy to the application.
//     Delivery dominates, and every process TO-delivers every segment
//     exactly once, so the saturated throughput it induces is independent
//     of both the ring size n and the sender count k — precisely the
//     paper's Figures 8 and 9. The calibrated delivery constants
//     reproduce the gap between raw Ethernet goodput (~94 Mb/s, Table 1)
//     and FSR's measured 79 Mb/s — the paper's own gap comes from the
//     per-message cost of its Java/DREAM stack (paper §5).
//
// FSR rides a ring, so each node receives from exactly one predecessor;
// receive-side link contention therefore never occurs and is not modeled.
package netsim

import (
	"fmt"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
	"fsr/internal/sim"
	"fsr/internal/wire"
)

// Defaults modeling the paper's testbed.
const (
	// DefaultBandwidth is Fast Ethernet: 100 Mbit/s.
	DefaultBandwidth = 100e6
	// DefaultPropDelay covers wire plus one switch hop.
	DefaultPropDelay = 30 * time.Microsecond
	// DefaultFrameOverhead is the physical per-frame cost in bytes beyond
	// the FSR payload: Ethernet header+FCS (18) + preamble (8) + interframe
	// gap (12) + IP (20) + UDP (8) and a little framing slack.
	DefaultFrameOverhead = 74
	// DefaultRxFixed is the fixed cost of receiving one frame (interrupt,
	// syscall, dispatch).
	DefaultRxFixed = 30 * time.Microsecond
	// DefaultRxPerByte is the per-byte receive cost (copy out of the
	// socket).
	DefaultRxPerByte = 10 * time.Nanosecond
	// DefaultDeliverFixed is the fixed cost of TO-delivering one segment
	// (ordering bookkeeping, upcall into the application layer).
	DefaultDeliverFixed = 40 * time.Microsecond
	// DefaultDeliverPerByte is the per-byte delivery cost ((de)serialization
	// and copying in the middleware stack — the dominant cost in the
	// paper's Java/DREAM implementation). Together with DefaultDeliverFixed
	// it is calibrated so a saturated ring delivers ~79 Mb/s of payload
	// with 8 KiB segments — the paper's headline number, and the single
	// tuned quantity in the whole reproduction. Because
	// every process TO-delivers every segment exactly once, a delivery-
	// dominated CPU makes the saturated throughput independent of both the
	// ring size n and the sender count k — precisely the paper's Figures 8
	// and 9.
	DefaultDeliverPerByte = 96 * time.Nanosecond
)

// Config parameterizes the simulated cluster.
type Config struct {
	// Bandwidth is the link speed in bits per second.
	Bandwidth float64
	// PropDelay is the one-way propagation (wire + switch) delay.
	PropDelay time.Duration
	// RxFixed is the fixed per-received-frame processing cost.
	RxFixed time.Duration
	// RxPerByte is the per-wire-byte receive processing cost.
	RxPerByte time.Duration
	// DeliverFixed is the fixed per-delivered-segment cost.
	DeliverFixed time.Duration
	// DeliverPerByte is the per-payload-byte delivery cost.
	DeliverPerByte time.Duration
	// FrameOverhead is added to every frame's encoded size on the wire.
	FrameOverhead int
	// SegmentSize configures the engines' segmentation.
	SegmentSize int
	// MaxFrameData configures the engines' per-frame segment batching.
	// The default of 1 models the paper's stack, which sent exactly one
	// segment per frame; the modern profile raises it so per-frame costs
	// (RxFixed, FrameOverhead) amortize across a batch.
	MaxFrameData int
	// T is the number of tolerated failures (backup processes).
	T int
}

func (c Config) withDefaults() Config {
	if c.Bandwidth <= 0 {
		c.Bandwidth = DefaultBandwidth
	}
	if c.PropDelay <= 0 {
		c.PropDelay = DefaultPropDelay
	}
	if c.RxFixed <= 0 {
		c.RxFixed = DefaultRxFixed
	}
	if c.RxPerByte <= 0 {
		c.RxPerByte = DefaultRxPerByte
	}
	if c.DeliverFixed <= 0 {
		c.DeliverFixed = DefaultDeliverFixed
	}
	if c.DeliverPerByte <= 0 {
		c.DeliverPerByte = DefaultDeliverPerByte
	}
	if c.FrameOverhead <= 0 {
		c.FrameOverhead = DefaultFrameOverhead
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = core.DefaultSegmentSize
	}
	if c.MaxFrameData <= 0 {
		c.MaxFrameData = 1
	}
	return c
}

// Modern testbed constants: the same protocol on hardware and software we
// actually have. The link steps up to gigabit Ethernet, and the per-segment
// middleware costs are re-measured against this repository's Go stack after
// the hot-path overhaul (pooled zero-alloc codec, batched frames, reused
// delivery buffers) instead of the paper's Java/DREAM stack:
// BenchmarkEngineRelayHotPath clocks the full per-hop pipeline — decode,
// protocol handling, batched frame assembly, encode — at ~0.5 µs and
// 0 allocs per 8 KiB segment, and the delivery pump adds a bounded
// dispatch cost per segment. The constants below round those measurements
// up generously (5 µs fixed + 2 ns/byte per delivered segment) so the
// model stays pessimistic about the software while the receive path keeps
// the paper's kernel costs (30 µs per frame + 10 ns per wire byte) — with
// 16-segment frames those amortize to ~2 µs and the receive copy becomes
// the bottleneck the simulation reports.
const (
	// ModernBandwidth is gigabit Ethernet.
	ModernBandwidth = 1e9
	// ModernMaxFrameData is the frame batching depth of the modern stack.
	ModernMaxFrameData = 16
	// ModernDeliverFixed is the measured-and-rounded fixed cost of
	// TO-delivering one segment through the overhauled Go stack.
	ModernDeliverFixed = 5 * time.Microsecond
	// ModernDeliverPerByte is the per-byte delivery cost of the zero-copy
	// path (bodies alias the receive buffer; one copy into the app).
	ModernDeliverPerByte = 2 * time.Nanosecond
)

// ModernConfig models the overhauled stack on gigabit hardware. The paper
// figures keep the zero-value Config (paper calibration); Figure 7x runs
// this one.
func ModernConfig() Config {
	return Config{
		Bandwidth:      ModernBandwidth,
		MaxFrameData:   ModernMaxFrameData,
		DeliverFixed:   ModernDeliverFixed,
		DeliverPerByte: ModernDeliverPerByte,
	}
}

// Cluster is a simulated FSR ring: n protocol engines wired through the
// timed network model onto one event loop.
type Cluster struct {
	Loop *sim.Loop
	cfg  Config

	nodes []*Node
	// OnDeliver, when set, observes every TO-delivery (node ring position,
	// delivery, virtual time).
	OnDeliver func(pos int, d core.Delivery, now time.Duration)
	err       error
}

// Node is one simulated machine: two serial CPU pipelines (network
// receive path, delivery upcall path) plus the transmitter.
type Node struct {
	c           *Cluster
	pos         int
	engine      *core.Engine
	sending     bool
	cpuFree     time.Duration // network CPU: receive processing
	deliverFree time.Duration // delivery CPU: TO-delivery upcalls
}

// NewCluster builds an n-node simulated ring (IDs 0..n-1, leader 0).
func NewCluster(n int, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		return nil, fmt.Errorf("netsim: cluster size %d", n)
	}
	members := make([]ring.ProcID, n)
	for i := range members {
		members[i] = ring.ProcID(i)
	}
	r, err := ring.New(members, min(cfg.T, n-1))
	if err != nil {
		return nil, err
	}
	view := core.View{ID: 1, Ring: r}
	c := &Cluster{Loop: &sim.Loop{}, cfg: cfg}
	for i := range members {
		engine, err := core.NewEngine(core.Config{
			Self:         members[i],
			SegmentSize:  cfg.SegmentSize,
			MaxFrameData: cfg.MaxFrameData,
		}, view)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &Node{c: c, pos: i, engine: engine})
	}
	return c, nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.nodes) }

// Node returns the node at ring position pos.
func (c *Cluster) Node(pos int) *Node { return c.nodes[pos] }

// Engine exposes a node's protocol engine (for stats in tests).
func (c *Cluster) Engine(pos int) *core.Engine { return c.nodes[pos].engine }

// Err returns the first protocol error raised inside the simulation.
func (c *Cluster) Err() error { return c.err }

// Broadcast submits a payload at the node at ring position pos, at the
// current virtual time.
func (c *Cluster) Broadcast(pos int, payload []byte) (wire.MsgID, error) {
	id, err := c.nodes[pos].engine.Broadcast(payload)
	if err != nil {
		return id, err
	}
	c.nodes[pos].drainDeliveries() // single-node rings deliver inline
	c.nodes[pos].trySend()
	return id, nil
}

// PendingOwn reports how many own segments a node still has queued.
func (c *Cluster) PendingOwn(pos int) int { return c.nodes[pos].engine.PendingOwn() }

// Run drives the simulation until quiescence or the virtual-time horizon.
func (c *Cluster) Run(until time.Duration) { c.Loop.Run(until) }

// wireBytes returns a frame's size on the wire.
func (c *Cluster) wireBytes(encodedSize int) int { return encodedSize + c.cfg.FrameOverhead }

// txTime returns the wire occupancy of a frame.
func (c *Cluster) txTime(wireBytes int) time.Duration {
	return time.Duration(float64(wireBytes) * 8 / c.cfg.Bandwidth * float64(time.Second))
}

// rxCPU returns the protocol-CPU cost of receiving a frame.
func (c *Cluster) rxCPU(wireBytes int) time.Duration {
	return c.cfg.RxFixed + time.Duration(wireBytes)*c.cfg.RxPerByte
}

// deliverCPU returns the protocol-CPU cost of TO-delivering a segment.
func (c *Cluster) deliverCPU(payloadBytes int) time.Duration {
	return c.cfg.DeliverFixed + time.Duration(payloadBytes)*c.cfg.DeliverPerByte
}

// trySend starts transmitting the node's next frame if the transmitter is
// idle and the engine has output.
func (n *Node) trySend() {
	if n.sending || n.c.err != nil {
		return
	}
	f, ok := n.engine.NextFrame()
	if !ok {
		return
	}
	n.drainDeliveries() // a leader's own send may deliver at t=0
	wire := n.c.wireBytes(f.EncodedSize())
	now := n.c.Loop.Now()
	tx := n.c.txTime(wire)
	n.sending = true
	succ := n.c.nodes[(n.pos+1)%len(n.c.nodes)]
	loop := n.c.Loop
	loop.At(now+tx, func() {
		n.sending = false
		n.trySend()
	})
	loop.At(now+tx+n.c.cfg.PropDelay, func() {
		succ.receive(f)
	})
}

// receive runs the frame through the node's serial protocol CPU, then the
// engine.
func (n *Node) receive(f *wire.Frame) {
	loop := n.c.Loop
	start := max(loop.Now(), n.cpuFree)
	done := start + n.c.rxCPU(n.c.wireBytes(f.EncodedSize()))
	n.cpuFree = done
	loop.At(done, func() {
		if n.c.err != nil {
			return
		}
		if err := n.engine.HandleFrame(f); err != nil {
			n.c.err = fmt.Errorf("netsim: node %d: %w", n.pos, err)
			return
		}
		n.drainDeliveries()
		n.trySend()
	})
}

// drainDeliveries routes fresh engine deliveries through the node's
// delivery CPU: each TO-delivery is a full middleware upcall (deserialize,
// order, copy to the application) and is reported — and counted by the
// benchmarks — only when that pipeline completes it.
func (n *Node) drainDeliveries() {
	ds := n.engine.Deliveries()
	if len(ds) == 0 {
		return
	}
	now := n.c.Loop.Now()
	for _, d := range ds {
		d := d
		done := max(n.deliverFree, now) + n.c.deliverCPU(len(d.Body))
		n.deliverFree = done
		n.c.Loop.At(done, func() {
			if n.c.OnDeliver != nil {
				n.c.OnDeliver(n.pos, d, done)
			}
		})
	}
}

// RawGoodput simulates a netperf-style unidirectional stream over one link
// of the modeled network: back-to-back frames of mssPayload bytes with
// perFrameOverhead wire bytes each, for the given duration. It returns the
// application goodput in bits per second — the Table 1 experiment.
func RawGoodput(bandwidth float64, mssPayload, perFrameOverhead int, duration time.Duration) float64 {
	var loop sim.Loop
	frameTime := time.Duration(float64(mssPayload+perFrameOverhead) * 8 / bandwidth * float64(time.Second))
	var received int
	var send func()
	send = func() {
		if loop.Now()+frameTime > duration {
			return
		}
		loop.After(frameTime, func() {
			received += mssPayload
			send()
		})
	}
	send()
	loop.Run(duration)
	elapsed := loop.Now()
	if elapsed <= 0 {
		return 0
	}
	return float64(received) * 8 / elapsed.Seconds()
}

// Framing constants for the Table 1 raw-network experiment.
const (
	// TCPSegmentPayload is the MSS with timestamps on 1500-byte MTU.
	TCPSegmentPayload = 1448
	// TCPFrameOverhead is TCP(20)+options(12)+IP(20)+Ethernet(18)+
	// preamble(8)+IFG(12).
	TCPFrameOverhead = 90
	// UDPDatagramPayload fills the MTU: 1500 - 20 (IP) - 8 (UDP).
	UDPDatagramPayload = 1472
	// UDPFrameOverhead is UDP(8)+IP(20)+Ethernet(18)+preamble(8)+IFG(12).
	UDPFrameOverhead = 66
)
