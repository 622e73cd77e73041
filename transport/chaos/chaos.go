// Package chaos decorates a cluster transport with seeded, deterministic
// fault injection: per-link delay and jitter, geo latency matrices, link
// stalls, one-way blackholes, slow nodes and atomic crash purges, all
// derived from one integer seed. It is the traffic-shaping half of the
// repository's FoundationDB-style simulation testing (see internal/harness
// for the workload driver and the total-order property checker): a failing
// run prints its seed, and re-running with the same seed regenerates the
// identical injection schedule.
//
// # Determinism
//
// Every injected delay and stall is a pure function of (seed, link,
// per-link frame index): each directed link (from, to) counts the frames
// it has carried, and frame i's extra latency is computed by hashing the
// seed with the link identity and i (splitmix64). No shared RNG stream
// exists, so the schedule cannot be perturbed by goroutine interleaving —
// two runs with the same seed and the same logical traffic see byte-for-
// byte the same injection schedule, which is what makes a chaos failure
// replayable. (The protocol stack above still runs on real goroutines and
// real time; the seed pins the faults, not the scheduler.)
//
// The geo latency matrix (Options.Geo) is deterministic the same way:
// region placement hashes (seed, node), and every frame's one-way latency
// hashes (seed, link, frame index) within the profile's bounds.
//
// # FIFO preservation, and where loss is allowed
//
// The wrapped transports promise reliable per-link FIFO, and FSR depends
// on it, so injection must never reorder a link. Each link releases frames
// through one queue in send order: frame i becomes releasable at
// max(release(i-1), enqueue(i)+delay(i)), i.e. jitter stretches and bunches
// traffic but never overtakes. A stall simply pushes the link's release
// horizon forward, holding (not dropping) everything behind it.
//
// Loss exists only inside explicitly injected blackhole windows (CutLink,
// FlapLink): a directed link that is down swallows everything sent on it
// while the window lasts, modeling a one-way partition — A→B dead while
// B→A flows. This deliberately breaks the paper's reliable-channel
// assumption, which is the point: the protocol is expected to survive it
// the same way it survives a crash, via failure suspicion and a view
// change that excludes someone, and the harness's asym-partition profile
// holds it to that. Frames that ARE delivered still obey per-link FIFO;
// a link never reorders, it only ever has a hole where a window was.
//
// # Usage
//
//	inner := fsr.MemTransport(nil)
//	ct := chaos.New(inner, chaos.Options{Seed: seed, MaxDelay: 3 * time.Millisecond, StallEvery: 200, MaxStall: 50 * time.Millisecond})
//	cluster, err := fsr.NewCluster(cfg, ct)
//
// Crash, node slowdown and stall injection compose with the cluster-level
// fault plan driven by internal/harness (crash-restart, leader rotation,
// join/leave churn).
package chaos

import (
	"fmt"
	"sync"
	"time"

	"fsr/transport"
)

// Inner is the cluster-transport surface chaos decorates. It is satisfied
// by fsr.MemTransport and fsr.TCPTransport (and any other
// fsr.ClusterTransport); it is re-declared structurally here so the
// transport tree does not import the root package.
type Inner interface {
	Join(id transport.ProcID) (transport.Transport, error)
	Open() error
	Crash(id transport.ProcID)
	Close() error
}

// Options parameterizes the injection schedule. The zero value injects
// nothing (a transparent decorator).
type Options struct {
	// Seed pins the whole injection schedule; runs with equal seeds and
	// equal logical traffic inject identically.
	Seed int64

	// MinDelay/MaxDelay bound the uniform per-frame link delay. MaxDelay 0
	// disables delay injection.
	MinDelay, MaxDelay time.Duration

	// StallEvery, when positive, stalls a link on average once every
	// StallEvery frames (decided per frame from the seeded hash). A stall
	// pushes the link's release horizon forward by up to MaxStall,
	// simulating a GC pause, a routing flap or a full socket buffer.
	StallEvery int
	// MaxStall bounds one injected stall.
	MaxStall time.Duration

	// Geo, when set, lays a WAN latency matrix under the jitter above:
	// nodes are hashed into Geo.Regions regions and every frame pays the
	// profile's one-way intra- or inter-region latency for its link. Nil
	// models a LAN (no base latency).
	Geo *GeoProfile
}

// GeoProfile names one WAN geography: how many regions there are and what
// a round trip costs within and between them. Latencies are RTTs (what
// ping would print); each frame pays half, one way, plus a seeded jitter
// up to Jitter. Region placement is a pure hash of (seed, node), so one
// seed pins the whole geography.
type GeoProfile struct {
	Name     string
	Regions  int
	IntraRTT time.Duration
	InterRTT time.Duration
	Jitter   time.Duration
}

// Predefined geographies for the harness's wan-geo profile. RTTs are kept
// well under the protocol timeouts the harness runs with, so geography
// skews timing without starving the failure detector outright.
var (
	// Metro3 is three datacenters in one metro area: sub-millisecond
	// within a site, a few milliseconds across.
	Metro3 = GeoProfile{Name: "metro3", Regions: 3, IntraRTT: 500 * time.Microsecond, InterRTT: 4 * time.Millisecond, Jitter: 500 * time.Microsecond}
	// Continental3 is three regions on one continent: the inter-region
	// hop dominates every ring round trip.
	Continental3 = GeoProfile{Name: "continental3", Regions: 3, IntraRTT: time.Millisecond, InterRTT: 12 * time.Millisecond, Jitter: 2 * time.Millisecond}
)

// Transport is the fault-injecting decorator. It implements the
// fsr.ClusterTransport surface and hands nodes wrapped endpoints whose
// outbound frames pass through the seeded delay schedule.
type Transport struct {
	inner Inner
	opts  Options

	mu      sync.Mutex
	links   map[[2]transport.ProcID]*link
	nodeLag map[transport.ProcID]time.Duration  // extra per-frame delay, either direction
	stalled map[[2]transport.ProcID]time.Time   // explicit stall horizon per link
	cuts    map[[2]transport.ProcID][]cutWindow // blackhole windows per directed link
	crashed map[transport.ProcID]bool
	closed  bool
}

// cutWindow is one scheduled blackhole interval on a directed link.
type cutWindow struct{ start, end time.Time }

// New wraps inner with seeded fault injection.
func New(inner Inner, opts Options) *Transport {
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = opts.MinDelay
	}
	return &Transport{
		inner:   inner,
		opts:    opts,
		links:   make(map[[2]transport.ProcID]*link),
		nodeLag: make(map[transport.ProcID]time.Duration),
		stalled: make(map[[2]transport.ProcID]time.Time),
		cuts:    make(map[[2]transport.ProcID][]cutWindow),
		crashed: make(map[transport.ProcID]bool),
	}
}

// Join implements the cluster-transport surface: the member's real endpoint
// is provisioned by the inner transport and wrapped. Joining an ID that was
// crashed earlier (the restart path) clears its crash mark and resets the
// frame counters of its links — a restarted process is a new traffic
// source, and the reset rule is itself deterministic.
func (t *Transport) Join(id transport.ProcID) (transport.Transport, error) {
	ep, err := t.inner.Join(id)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	delete(t.crashed, id)
	ls := t.detachLinksLocked(id, false)
	t.mu.Unlock()
	for _, l := range ls {
		l.stop()
	}
	return &endpoint{t: t, inner: ep}, nil
}

// Open implements the cluster-transport surface.
func (t *Transport) Open() error { return t.inner.Open() }

// Crash fail-stops id: every frame still queued in the injection layer to
// or from id is dropped atomically with the crash mark, then the inner
// transport's own crash purge runs. Composed with transport/mem's
// deterministic Crash this severs the node in both directions at one
// instant.
func (t *Transport) Crash(id transport.ProcID) {
	t.mu.Lock()
	t.crashed[id] = true
	ls := t.detachLinksLocked(id, false)
	t.mu.Unlock()
	// Stopping outside the lock keeps concurrent Sends unblocked; the crash
	// mark already prevents new links, and the inner transport's own crash
	// purge (after the stops) catches any frame a release goroutine was
	// holding mid-sleep.
	for _, l := range ls {
		l.stop()
	}
	t.inner.Crash(id)
}

// detachLinksLocked removes (and returns) every link touching id, or only
// its outbound links when outboundOnly is set. Callers hold t.mu and must
// stop the returned links after unlocking.
func (t *Transport) detachLinksLocked(id transport.ProcID, outboundOnly bool) []*link {
	var ls []*link
	for key, l := range t.links {
		if key[0] == id || (!outboundOnly && key[1] == id) {
			ls = append(ls, l)
			delete(t.links, key)
		}
	}
	if !outboundOnly {
		// A crash (or a restart's rejoin) tears the node's links down
		// entirely; pending stall horizons and blackhole windows die with
		// them — a restarted process gets fresh links, not old faults.
		for key := range t.stalled {
			if key[0] == id || key[1] == id {
				delete(t.stalled, key)
			}
		}
		for key := range t.cuts {
			if key[0] == id || key[1] == id {
				delete(t.cuts, key)
			}
		}
	}
	return ls
}

// Close releases the decorator and the inner transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	ls := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		ls = append(ls, l)
	}
	t.links = make(map[[2]transport.ProcID]*link)
	t.mu.Unlock()
	for _, l := range ls {
		l.stop()
	}
	return t.inner.Close()
}

// SlowNode adds extra per-frame delay to every link touching id (0 restores
// full speed) — the "slow replica" fault. Takes effect for frames sent
// after the call; the decision of when to slow which node belongs to the
// (seeded) fault plan of the caller.
func (t *Transport) SlowNode(id transport.ProcID, extra time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if extra <= 0 {
		delete(t.nodeLag, id)
		return
	}
	t.nodeLag[id] = extra
}

// StallLink holds the directed link from->to for d: frames queue up and
// release, still in order, once the stall expires. Unlike mem.CutLink
// nothing is dropped, so the reliable-channel assumption holds.
func (t *Transport) StallLink(from, to transport.ProcID, d time.Duration) {
	t.mu.Lock()
	t.stalled[[2]transport.ProcID{from, to}] = time.Now().Add(d)
	l := t.links[[2]transport.ProcID{from, to}]
	t.mu.Unlock()
	if l != nil {
		l.bump(time.Now().Add(d))
	}
}

// CutLink blackholes the directed link from->to for d, starting now:
// everything sent on it while the window lasts is silently swallowed
// (the sender sees success — that is what a one-way partition looks
// like), while to->from keeps flowing. Windows compose: overlapping cuts
// union. See the package comment for why loss is legal here and nowhere
// else.
func (t *Transport) CutLink(from, to transport.ProcID, d time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]transport.ProcID{from, to}
	t.cuts[key] = append(t.cuts[key], cutWindow{start: now, end: now.Add(d)})
}

// FlapLink schedules cycles alternating down/up windows on from->to,
// starting down now — a flapping route. The whole flap schedule is laid
// out at call time, so it stays a pure function of when the (seeded)
// fault plan fired it.
func (t *Transport) FlapLink(from, to transport.ProcID, down, up time.Duration, cycles int) {
	at := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]transport.ProcID{from, to}
	for range cycles {
		t.cuts[key] = append(t.cuts[key], cutWindow{start: at, end: at.Add(down)})
		at = at.Add(down + up)
	}
}

// HealLink cancels every pending blackhole window on from->to.
func (t *Transport) HealLink(from, to transport.ProcID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.cuts, [2]transport.ProcID{from, to})
}

// cutNow reports whether from->to is inside a blackhole window, pruning
// expired windows as it goes.
func (t *Transport) cutNow(from, to transport.ProcID) bool {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]transport.ProcID{from, to}
	ws := t.cuts[key]
	if len(ws) == 0 {
		return false
	}
	i := 0
	for i < len(ws) && now.After(ws[i].end) {
		i++
	}
	if i > 0 {
		ws = ws[i:]
		if len(ws) == 0 {
			delete(t.cuts, key)
			return false
		}
		t.cuts[key] = ws
	}
	return !now.Before(ws[0].start)
}

// Region returns the geo region a node hashes into under Options.Geo
// (0 when no geo profile is set) — exposed so tests and the harness can
// reason about which ring hops cross regions.
func (t *Transport) Region(id transport.ProcID) int {
	g := t.opts.Geo
	if g == nil || g.Regions <= 0 {
		return 0
	}
	return int(mix(uint64(t.opts.Seed)^mix(uint64(id)^0x9e0c0de)) % uint64(g.Regions))
}

// Inner returns the wrapped transport, for callers that need backend
// specifics (e.g. the mem hub for CutLink).
func (t *Transport) Inner() Inner { return t.inner }

// delayFor computes frame i's injected delay on (from, to): the geo
// matrix's one-way base latency, the seeded jitter, any node slowdown,
// plus a seeded stall when the hash says so.
func (t *Transport) delayFor(from, to transport.ProcID, i uint64) time.Duration {
	t.mu.Lock()
	lag := t.nodeLag[from] + t.nodeLag[to]
	t.mu.Unlock()
	d := lag
	h := mix(uint64(t.opts.Seed) ^ mix(uint64(from)<<32|uint64(to)) ^ mix(i))
	if g := t.opts.Geo; g != nil && g.Regions > 0 {
		rtt := g.IntraRTT
		if t.Region(from) != t.Region(to) {
			rtt = g.InterRTT
		}
		d += rtt / 2
		if g.Jitter > 0 {
			d += time.Duration(mix(h^0x9e0aff5e7) % uint64(g.Jitter))
		}
	}
	if t.opts.MaxDelay > 0 {
		span := uint64(t.opts.MaxDelay - t.opts.MinDelay + 1)
		d += t.opts.MinDelay + time.Duration(h%span)
	}
	if t.opts.StallEvery > 0 && t.opts.MaxStall > 0 {
		roll := mix(h ^ 0x5ca1ab1e)
		if roll%uint64(t.opts.StallEvery) == 0 {
			d += time.Duration(mix(roll) % uint64(t.opts.MaxStall))
		}
	}
	return d
}

// Mix is splitmix64's finalizer — a fast, well-distributed 64-bit hash.
// It is the shared seeding primitive of the repository's fault injectors:
// this transport's delay/stall schedule and the storage-layer injector
// (internal/wal/walfault) both derive their schedules as pure functions of
// Mix(seed ^ Mix(identity) ^ Mix(op index)), so every injected fault is
// replayable from the one scenario seed.
func Mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix keeps the package-internal call sites short.
func mix(z uint64) uint64 { return Mix(z) }

// linkFor returns (creating if needed) the live link from->to.
func (t *Transport) linkFor(from, to transport.ProcID, send func(payload []byte) error) (*link, error) {
	key := [2]transport.ProcID{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.crashed[from] {
		return nil, transport.ErrClosed
	}
	if t.crashed[to] {
		return nil, fmt.Errorf("chaos: send to crashed %d: %w", to, transport.ErrUnknownPeer)
	}
	l, ok := t.links[key]
	if !ok {
		l = newLink(t, from, to, send)
		if horizon, stalled := t.stalled[key]; stalled && time.Now().Before(horizon) {
			l.horizon = horizon
		}
		t.links[key] = l
	}
	return l, nil
}

// endpoint wraps one member's transport endpoint, diverting outbound frames
// through the per-link injection queues. Inbound traffic is untouched —
// one-way injection on the send side is enough to shape every link, and
// keeps handler semantics identical to the inner transport.
type endpoint struct {
	t     *Transport
	inner transport.Transport
}

var _ transport.Transport = (*endpoint)(nil)

func (e *endpoint) Self() transport.ProcID         { return e.inner.Self() }
func (e *endpoint) SetHandler(h transport.Handler) { e.inner.SetHandler(h) }

// Send queues payload on the from->to injection link; the link's release
// goroutine forwards it to the inner transport after the scheduled delay,
// in FIFO order. Inside a blackhole window (CutLink/FlapLink) the payload
// is swallowed after the liveness checks: the sender sees success, nothing
// travels, and the drop does not advance the link's frame counter — the
// delay schedule of delivered frames is unperturbed by the cut.
func (e *endpoint) Send(to transport.ProcID, payload []byte) error {
	from := e.inner.Self()
	l, err := e.t.linkFor(from, to, func(p []byte) error { return e.inner.Send(to, p) })
	if err != nil {
		return err
	}
	if e.t.cutNow(from, to) {
		return nil
	}
	return l.enqueue(payload)
}

// SendBatch implements transport.Transport by looping over the injection
// queue, so every frame of a batch still gets its own seeded delay draw
// and the injection schedule stays a pure function of the per-link frame
// index. The link (and the inner transport behind it) retains payloads
// past the call, while the batch contract leaves the buffers with the
// caller — so each payload is copied here.
func (e *endpoint) SendBatch(to transport.ProcID, payloads [][]byte) error {
	for _, p := range payloads {
		if err := e.Send(to, append([]byte(nil), p...)); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the member's outbound links and its inner endpoint.
func (e *endpoint) Close() error {
	id := e.inner.Self()
	e.t.mu.Lock()
	ls := e.t.detachLinksLocked(id, true)
	e.t.mu.Unlock()
	for _, l := range ls {
		l.stop()
	}
	return e.inner.Close()
}

// link is one directed injection queue. Frames release in enqueue order at
// max(previous release, enqueue time + scheduled delay), so jitter can
// bunch but never reorder.
type link struct {
	t        *Transport
	from, to transport.ProcID
	send     func(payload []byte) error

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []linkItem
	n       uint64    // frames carried; indexes the delay schedule
	horizon time.Time // release floor (stalls push it forward)
	stopped bool
	stopc   chan struct{} // closed by stop; interrupts a mid-delay sleep
	done    chan struct{}
}

type linkItem struct {
	payload []byte
	due     time.Time
}

func newLink(t *Transport, from, to transport.ProcID, send func([]byte) error) *link {
	l := &link{t: t, from: from, to: to, send: send,
		stopc: make(chan struct{}), done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

func (l *link) enqueue(payload []byte) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return transport.ErrClosed
	}
	// The delay draw indexes the schedule by the frame counter, so it must
	// happen under the lock: session clients send on one link from several
	// goroutines (a member's event loop is single-threaded, a client is
	// not).
	d := l.t.delayFor(l.from, l.to, l.n)
	l.n++
	due := time.Now().Add(d)
	if due.Before(l.horizon) {
		due = l.horizon
	}
	l.horizon = due // FIFO: later frames release no earlier
	l.queue = append(l.queue, linkItem{payload: payload, due: due})
	l.cond.Signal()
	l.mu.Unlock()
	return nil
}

// bump raises the link's release horizon (an explicit stall).
func (l *link) bump(horizon time.Time) {
	l.mu.Lock()
	if horizon.After(l.horizon) {
		l.horizon = horizon
	}
	l.mu.Unlock()
}

// stop halts the release goroutine and drops queued frames (crash/close).
// A frame mid-delay is interrupted and dropped; stop returns once the
// goroutine has exited, so no send can follow it.
func (l *link) stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		l.queue = nil
		close(l.stopc)
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	<-l.done
}

// run releases frames in order at their due times.
func (l *link) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for !l.stopped && len(l.queue) == 0 {
			l.cond.Wait()
		}
		if l.stopped {
			l.mu.Unlock()
			return
		}
		it := l.queue[0]
		l.queue = l.queue[:copy(l.queue, l.queue[1:])]
		l.mu.Unlock()
		if d := time.Until(it.due); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-l.stopc:
				timer.Stop()
				return // crashed while the frame was sleeping: it dies here
			}
		}
		select {
		case <-l.stopc:
			return
		default:
		}
		_ = l.send(it.payload) // inner transport errors mean crash/close: frame dies
	}
}
