// Package mem implements the transport interface in process memory: a
// Network hub connecting any number of endpoints with reliable FIFO
// unbounded queues, optional per-hop latency, and fault injection (crash,
// directed link cuts) for tests.
//
// Delivery model: each endpoint has one dispatch goroutine that invokes the
// installed handler serially, preserving global arrival order at that
// endpoint (and therefore per-sender FIFO). Send never blocks: queues grow
// as needed, mirroring kernel socket buffers plus sender-side user-space
// queues; flow control belongs to the layer above (the node applies
// backpressure on Broadcast).
//
// Crash semantics are deterministic: Crash(id) atomically — under the hub
// lock, with respect to every concurrent Send — detaches the endpoint,
// discards every frame still queued for it, and purges frames it had
// already sent from every other endpoint's queue. After Crash returns, no
// frame from or to the crashed endpoint will ever reach a handler, except
// frames the receiver's dispatch goroutine had already popped for delivery
// (the analogue of bytes the receiving process already read from its
// socket). Tests can therefore rely on a crash severing both directions at
// one instant instead of depending on goroutine scheduling. A plain Close
// (graceful stop) drops the endpoint's own inbound queue but lets frames it
// already sent drain normally.
package mem

import (
	"fmt"
	"sync"
	"time"

	"fsr/transport"
)

// Options configures a Network.
type Options struct {
	// Latency is an optional fixed one-way delivery delay applied to every
	// payload. Zero means immediate handoff.
	Latency time.Duration
	// Bandwidth, when positive, serializes each endpoint's outbound
	// payloads at this rate (bits per second): Send blocks while the
	// simulated NIC transmits, which is the backpressure a full kernel
	// socket buffer provides on a real network. Without it the protocol's
	// fairness machinery has nothing to arbitrate — queues drain
	// instantly.
	Bandwidth float64
}

// Network is the in-memory hub. Endpoints join and leave dynamically; the
// zero value is not usable, call NewNetwork.
type Network struct {
	opts Options

	mu    sync.Mutex
	peers map[transport.ProcID]*Endpoint
	cut   map[[2]transport.ProcID]bool // directed severed links
}

// NewNetwork creates an empty hub.
func NewNetwork(opts Options) *Network {
	return &Network{
		opts:  opts,
		peers: make(map[transport.ProcID]*Endpoint),
		cut:   make(map[[2]transport.ProcID]bool),
	}
}

// Join registers a new endpoint for id.
func (n *Network) Join(id transport.ProcID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.peers[id]; dup {
		return nil, fmt.Errorf("mem: %w: duplicate join of %d", transport.ErrUnknownPeer, id)
	}
	ep := &Endpoint{net: n, id: id}
	ep.cond = sync.NewCond(&ep.mu)
	ep.wg.Add(1)
	go ep.dispatchLoop()
	n.peers[id] = ep
	return ep, nil
}

// Crash forcibly closes id's endpoint with fail-stop semantics: while
// holding the hub lock it detaches the endpoint and purges every frame
// still in flight to or from it, so no concurrent Send can slip a frame
// past the crash (see the package comment for the exact guarantee).
func (n *Network) Crash(id transport.ProcID) {
	n.mu.Lock()
	ep := n.peers[id]
	delete(n.peers, id)
	for _, other := range n.peers {
		other.purgeFrom(id)
	}
	n.mu.Unlock()
	if ep != nil {
		_ = ep.Close()
	}
}

// CutLink severs the directed link from -> to: subsequent sends vanish
// silently (the receiver-side FD notices the silence).
func (n *Network) CutLink(from, to transport.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]transport.ProcID{from, to}] = true
}

// HealLink restores a severed directed link.
func (n *Network) HealLink(from, to transport.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, [2]transport.ProcID{from, to})
}

// route decides and performs one frame's delivery enqueue under the hub
// lock, which is what makes Crash atomic: between the sender-liveness check
// and the destination enqueue no crash can interleave. Lock order is
// Network.mu -> Endpoint.mu, everywhere.
func (n *Network) route(it item, to transport.ProcID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, live := n.peers[it.from]; !live {
		// The sender was crashed while this Send was in flight; the frame
		// dies with it (Crash already purged its queued siblings).
		return transport.ErrClosed
	}
	if n.cut[[2]transport.ProcID{it.from, to}] {
		return nil // link down: silent drop
	}
	dst, ok := n.peers[to]
	if !ok {
		return fmt.Errorf("mem: send to %d: %w", to, transport.ErrUnknownPeer)
	}
	dst.enqueue(it)
	return nil
}

// remove detaches a closed endpoint from the hub.
func (n *Network) remove(id transport.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.peers, id)
}

// Endpoint is one process's attachment to the Network.
type Endpoint struct {
	net *Network
	id  transport.ProcID

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []item
	handler transport.Handler
	closed  bool
	txFree  time.Time // simulated NIC availability (Bandwidth > 0)
	wg      sync.WaitGroup
}

type item struct {
	from    transport.ProcID
	payload []byte
	due     time.Time
}

var _ transport.Transport = (*Endpoint)(nil)

// Self implements transport.Transport.
func (e *Endpoint) Self() transport.ProcID { return e.id }

// SetHandler implements transport.Transport. Payloads that arrived before
// the handler was installed are dispatched once it is.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
	e.cond.Broadcast()
}

// Send implements transport.Transport.
func (e *Endpoint) Send(to transport.ProcID, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	e.mu.Unlock()
	now := time.Now()
	sent := now
	if bw := e.net.opts.Bandwidth; bw > 0 {
		tx := time.Duration(float64(len(payload)) * 8 / bw * float64(time.Second))
		e.mu.Lock()
		start := e.txFree
		if start.Before(now) {
			start = now
		}
		e.txFree = start.Add(tx)
		sent = e.txFree
		e.mu.Unlock()
		time.Sleep(time.Until(sent))
	}
	var due time.Time
	if e.net.opts.Latency > 0 {
		due = sent.Add(e.net.opts.Latency)
	}
	return e.net.route(item{from: e.id, payload: payload, due: due}, to)
}

// SendBatch implements transport.Transport by looping over Send. The
// receiver's queue retains payloads, while the batch contract leaves the
// buffers with the caller — so each payload is copied here; the in-memory
// hub pays one allocation per frame where real sockets pay a syscall.
func (e *Endpoint) SendBatch(to transport.ProcID, payloads [][]byte) error {
	for _, p := range payloads {
		if err := e.Send(to, append([]byte(nil), p...)); err != nil {
			return err
		}
	}
	return nil
}

func (e *Endpoint) enqueue(it item) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return // crashing receiver drops traffic
	}
	e.queue = append(e.queue, it)
	e.cond.Signal()
}

// purgeFrom drops every queued frame sent by id — the receive half of the
// atomic crash. Called with Network.mu held.
func (e *Endpoint) purgeFrom(id transport.ProcID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.queue[:0]
	for _, it := range e.queue {
		if it.from != id {
			kept = append(kept, it)
		}
	}
	e.queue = kept
}

// dispatchLoop delivers queued payloads serially to the handler.
func (e *Endpoint) dispatchLoop() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for !e.closed && (len(e.queue) == 0 || e.handler == nil) {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		it := e.queue[0]
		e.queue = e.queue[:copy(e.queue, e.queue[1:])]
		h := e.handler
		e.mu.Unlock()

		if !it.due.IsZero() {
			if d := time.Until(it.due); d > 0 {
				time.Sleep(d)
			}
		}
		h(it.from, it.payload)
	}
}

// Close implements transport.Transport. It stops dispatch, discards queued
// payloads, and detaches from the hub. Safe to call twice.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.queue = nil
	e.cond.Broadcast()
	e.mu.Unlock()
	e.net.remove(e.id)
	e.wg.Wait()
	return nil
}
