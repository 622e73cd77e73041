package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fsr"
)

// --- Subscriber ---------------------------------------------------------------

// subscriber is the workload's one consuming session. It checks the order
// it receives and times each message from its due time to its arrival.
type subscriber struct {
	e      *env
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the consuming goroutine has exited

	started bool // a consuming goroutine exists (harness goroutine only)

	attached   chan struct{} // closed at the first set-up probe seen
	attachOnce sync.Once

	// win is nil until the load starts; arrivals before that (and outside
	// the measured windows) are checked for order but not timed.
	win atomic.Pointer[windows]

	// Owned by the consuming goroutine until done is closed.
	events *stream
	check  *orderChecker
	// Replay only: passes completed, the highest sequence number any pass
	// has reached (a message is timed at its first sighting only), and the
	// schedule the reading is held to.
	passes  int64
	maxSeen uint64
	pace    pacer

	seen       atomic.Uint64 // highest publisher sequence observed, for the harness
	stopPasses atomic.Bool
}

func newSubscriber(e *env) *subscriber {
	ctx, cancel := context.WithCancel(context.Background())
	return &subscriber{
		e: e, ctx: ctx, cancel: cancel,
		pace:     pacer{rate: int64(e.wl.replayRate)},
		done:     make(chan struct{}),
		attached: make(chan struct{}),
		events:   newStream(numWindows),
		check:    newOrderChecker(),
	}
}

// attachTail starts the live-tail subscription and proves it is attached
// before any counted message is sent, by publishing sequence-0 probes until
// the subscriber sees one. From then on every counted message must arrive.
func (s *subscriber) attachTail() error {
	s.check.next = s.e.preloaded + 1 // the live tail starts after the preload
	s.start(s.runTail)
	probe := make([]byte, headerLen)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.e.pub.Publish(s.ctx, probe); err != nil {
			return fmt.Errorf("attach subscriber: %w", err)
		}
		select {
		case <-s.attached:
			return nil
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attach subscriber: no probe seen in 10s (session: %v)", s.e.sub.Err())
		}
	}
}

// runTail consumes the live tail until stop.
func (s *subscriber) runTail() {
	defer close(s.done)
	for off, m := range s.e.sub.Subscribe(s.ctx, 0) {
		now := s.e.now()
		if m.Snapshot || m.Origin != s.e.pubID || len(m.Payload) < headerLen {
			continue
		}
		seq, due := readHeader(m.Payload)
		if seq == 0 {
			s.attachOnce.Do(func() { close(s.attached) })
			continue
		}
		if seq <= s.e.preloaded {
			continue // preload still trickling through an edge when the tail attached
		}
		s.check.observe(off, seq)
		s.seen.Store(s.check.seen())
		if w := s.win.Load(); w != nil {
			s.events.add(w.index(now), len(m.Payload), now-due)
		}
	}
}

// runReplay streams the whole history from offset 1 to the frontier and
// starts over, until told to stop.
func (s *subscriber) runReplay(member *fsr.Node) {
	defer close(s.done)
	for s.ctx.Err() == nil && !s.stopPasses.Load() {
		s.replayPass(member)
	}
}

// replayPass reads offsets 1..frontier once. Each pass is checked on its
// own: it must see publisher sequences 1, 2, 3, … without a break.
func (s *subscriber) replayPass(member *fsr.Node) {
	target := member.Applied()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	check := newOrderChecker()
	preloaded := s.e.preloaded
	for off, m := range s.e.sub.Subscribe(ctx, 1) {
		now := s.e.now()
		if !m.Snapshot && m.Origin == s.e.pubID && len(m.Payload) >= headerLen {
			seq, due := readHeader(m.Payload)
			check.observe(off, seq)
			lat := int64(-1)
			if seq > s.maxSeen {
				s.maxSeen = seq
				if seq > preloaded {
					lat = now - due
				}
			}
			if w := s.win.Load(); w != nil {
				s.events.add(w.index(now), len(m.Payload), lat)
			}
		}
		// The last pass, over the settled log, only checks: it is not paced.
		if !s.stopPasses.Load() {
			time.Sleep(s.pace.wait(now))
		}
		if off >= target {
			s.passes++
			break
		}
	}
	s.check.merge(check)
	s.seen.Store(s.maxSeen)
}

// pacer holds a reader to a fixed rate: an open loop on the consuming side.
// The reader sleeps after every paceChunk messages until the schedule has
// caught up with it; the session's bounded buffers and the serving pager's
// blocking queue pass the wait back to the member. A reader that fell
// behind reads flat out until it is back on schedule.
type pacer struct {
	rate   int64 // messages per second; 0 does not pace
	n      int64 // messages read so far
	fromNs int64 // when the first one was read
}

// paceChunk is 2.6 ms of reading at the replay workload's rate: long enough
// for a sleep to be worth its wake-up, and as many messages as the session
// buffers for a subscription, so the reading stays even.
const paceChunk = 256

// wait counts one message read at nowNs and returns how long to sleep.
func (p *pacer) wait(nowNs int64) time.Duration {
	if p.rate == 0 {
		return 0
	}
	if p.n == 0 {
		p.fromNs = nowNs
	}
	p.n++
	if p.n%paceChunk != 0 {
		return 0
	}
	return max(0, time.Duration(p.fromNs+p.n*int64(time.Second)/p.rate-nowNs))
}

// start launches the consuming goroutine.
func (s *subscriber) start(consume func()) {
	s.started = true
	go consume()
}

// stop ends the subscription and waits for the consuming goroutine.
func (s *subscriber) stop() {
	s.cancel()
	if s.started {
		<-s.done
	}
}

// --- Publisher ----------------------------------------------------------------

// receipt is what the publisher needs of an *fsr.Receipt; the open-loop
// accounting test substitutes a sink of its own.
type receipt interface {
	Delivered() <-chan struct{}
	Err() error
	Seq() uint64
}

// pending is one accepted publish awaiting its PUBACK.
type pending struct {
	r     receipt
	seq   uint64
	dueNs int64
}

// publisher is the workload's one producing session: a closed loop (publish
// as fast as the window allows) or an open loop (publish on a fixed
// schedule whatever the system does). Either way a message's latency runs
// from its due time — in an open loop the scheduled time, so a stall is
// charged to every message it delays, not just the one that hit it.
type publisher struct {
	e       *env
	publish func(ctx context.Context, payload []byte) (receipt, error)
	win     windows
	tr      *tracer // nil unless tracing

	inflight atomic.Int64
	pend     chan pending

	// Owned by the publishing goroutine.
	attempted int64
	pubErrors int64
	callNs    int64   // wall time inside Publish, measured part only
	blockedNs int64   // the part of callNs spent with the window full
	lateNs    []int64 // open loop: how late each send ran, measured part only

	// Owned by the draining goroutine.
	acks       *stream
	receipts   receiptChecker
	unresolved int64 // no PUBACK within ackDeadline of due
	ackErrors  int64 // receipt resolved with an error
	lastAcked  uint64
}

func newPublisher(e *env, win windows, tr *tracer) *publisher {
	return &publisher{
		e: e, win: win, tr: tr,
		publish: func(ctx context.Context, payload []byte) (receipt, error) {
			r, err := e.pub.Publish(ctx, payload)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		// One slot per in-flight publish: Publish itself blocks at the
		// session window, so this channel never does.
		pend: make(chan pending, e.wl.window),
		acks: newStream(win.n),
	}
}

// run publishes from startNs until the last window ends, then closes pend.
func (p *publisher) run(ctx context.Context, startNs int64) {
	defer close(p.pend)
	wl := p.e.wl
	endNs := p.win.endNs()
	intervalNs := int64(0)
	if wl.rate > 0 {
		intervalNs = int64(time.Second) / int64(wl.rate)
	}
	buf := p.e.payload
	for i := int64(0); ; i++ {
		now := p.e.now()
		due := now
		if intervalNs > 0 {
			due = startNs + i*intervalNs
			if due > now {
				time.Sleep(time.Duration(due - now))
				now = p.e.now()
			}
		}
		if due >= endNs {
			return
		}
		measured := p.win.index(now) >= 0
		if intervalNs > 0 && measured {
			p.lateNs = append(p.lateNs, now-due)
		}
		p.e.nextSeq++
		seq := p.e.nextSeq
		putHeader(buf, seq, due)
		windowFull := p.inflight.Load() >= int64(wl.window)
		p.attempted++
		r, err := p.publish(ctx, buf)
		end := p.e.now()
		if measured {
			p.callNs += end - now
			if windowFull {
				p.blockedNs += end - now
			}
		}
		if p.tr != nil && p.tr.on.Load() {
			p.tr.record(callPublish, uint32(p.e.pubID), now, len(buf), 1)
		}
		if err != nil {
			p.pubErrors++
			if ctx.Err() != nil {
				return
			}
			continue
		}
		p.inflight.Add(1)
		p.pend <- pending{r: r, seq: seq, dueNs: due}
	}
}

// drain resolves receipts in publish order until pend closes.
func (p *publisher) drain() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for pd := range p.pend {
		select {
		case <-pd.r.Delivered():
		default:
			timer.Reset(time.Duration(pd.dueNs + int64(ackDeadline) - p.e.now()))
			select {
			case <-pd.r.Delivered():
			case <-timer.C:
			}
		}
		now := p.e.now()
		p.inflight.Add(-1)
		select {
		case <-pd.r.Delivered():
		default:
			p.unresolved++
			continue
		}
		switch {
		case pd.r.Err() != nil:
			p.ackErrors++
			continue
		case now-pd.dueNs > int64(ackDeadline):
			p.unresolved++ // committed, but only after the deadline
		}
		p.receipts.observe(pd.r.Seq())
		p.lastAcked = pd.seq
		p.acks.add(p.win.index(now), len(p.e.payload), now-pd.dueNs)
	}
}

// --- Boundary sampler ---------------------------------------------------------

// boundary is what is read at each window edge.
type boundary struct {
	cpuNs   int64  // process user+system CPU so far
	edgeLag uint64 // member frontier minus the edge's applied offset
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sampleBoundaries sleeps to each of the n+1 window edges and reads the
// process clock and the edge's lag there. While tracing it also switches
// the decorators: on for even windows, off for odd ones, so one run holds
// traced and untraced windows of the same cluster.
func sampleBoundaries(e *env, win windows, tr *tracer, atEdge func(i int)) []boundary {
	out := make([]boundary, win.n+1)
	for i := range out {
		if d := win.startNs + int64(i)*win.widthNs - e.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if tr != nil {
			tr.on.Store(i < win.n && i%2 == 0)
		}
		out[i].cpuNs = cpuNanos()
		if e.edge != nil {
			front := e.cluster.Node(0).Applied()
			if applied := e.edge.Applied(); front > applied {
				out[i].edgeLag = front - applied
			}
		}
		atEdge(i)
	}
	return out
}
