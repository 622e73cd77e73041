package fsr

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"fsr/internal/core"
	"fsr/internal/fd"
	"fsr/internal/ring"
	"fsr/internal/serve"
	"fsr/internal/vsc"
	"fsr/internal/wire"
	"fsr/transport"
)

// ViewInfo describes one installed membership epoch.
type ViewInfo struct {
	// ID is the view epoch.
	ID uint64
	// Members is the agreed ring order; Members[0] is the leader.
	Members []ProcID
	// T is the number of failures this view tolerates.
	T int
}

// maxParkedFrames bounds the frames parked during a view-change freeze; a
// pathologically long change falls back to dropping (view-change recovery
// then treats the overflow like any other in-flight loss).
const maxParkedFrames = 8192

// Node is one FSR group member: it owns the protocol engine, the failure
// detector and the view-change manager, and drives them over a transport.
//
// The member is a step function with a thin adapter around it. The core,
// handle and flush, steps on one input at a time — an inbound payload, a
// tick, a control request or a local publish — at a time it is given: it
// reads no clock and starts no goroutine, so the same inputs at the same
// times make the same sends and the same deliveries. The adapter, loop,
// is one goroutine that reads the channels and the clock, once per
// wake-up, and feeds the core; the public methods reach it through those
// channels, so a Node is safe for concurrent use. Applying the order is the
// pump's (pump.go): its step is non-blocking and runs on a goroutine of its
// own. Fetching a hole in the order is the catch-up unit's (catchup.go),
// inside the core.
type Node struct {
	cfg Config
	tr  transport.Transport
	log *slog.Logger // cfg.Logger tagged with this node's ID

	engine *core.Engine
	mgr    *vsc.Manager
	fdet   *fd.Detector

	inbox chan inboundPayload
	bcast chan bcastReq
	ctl   chan func(now time.Time) // see do
	stop  chan struct{}

	// Session serving: the publish dedup index and parked client publishes
	// (see nodesession.go), the committed order as every consumer reads it
	// — it owns the applied frontier — and the shared serving engine:
	// clients, subscription pagers, per-client writers and the encode-once
	// fan-out.
	sess  *sessSrv
	clog  *serve.Log
	srv   *serve.Server
	admin *serve.AdminResponder

	pump    *pump
	catchup *catchup // event-loop-owned

	// Event-loop-owned state (no locking): protocol frames parked during a
	// view-change freeze (see handlePayload).
	parked []*wire.Frame
	// Wire-compat skip counters (see version.go's policy): payloads dropped
	// for an incompatible protocol version, and payloads of a kind or
	// control type this build does not know.
	skippedVersion uint64
	skippedUnknown uint64

	// Hot-path scratch, event-loop-owned and reused across passes so the
	// steady-state frame pipeline allocates nothing: the outbound frame
	// being assembled, the pooled encode buffers of the current flush, and
	// the engine delivery drain buffer.
	sendFrame    wire.Frame
	sendBufs     []*wire.Buf
	sendPayloads [][]byte
	delivBuf     []core.Delivery

	wg       sync.WaitGroup
	stopOnce sync.Once

	mu       sync.Mutex
	err      error
	lastView ViewInfo
}

// inboundPayload is one transport payload. The inbox holds these, not
// inputs: a set-up allocates every member's 4096-slot inbox, and slots the
// size of an input measurably slowed it (benchmark setup_s).
type inboundPayload struct {
	from    ProcID
	payload []byte
}

// input is one thing the core steps on (see handle): a transport payload,
// a tick, a control request or a local publish.
type input struct {
	inboundPayload
	tick bool
	ctl  func(now time.Time)
	pub  bcastReq // a local publish when resp is set
}

type bcastReq struct {
	payload []byte
	resp    chan bcastResp
}

type bcastResp struct {
	receipt *Receipt
	err     error
}

// NewNode builds and starts a node on the given transport. The transport's
// Self must match cfg.Self.
func NewNode(cfg Config, tr transport.Transport) (*Node, error) {
	n, err := newNode(cfg, tr, time.Now())
	if err != nil {
		return nil, err
	}
	n.wg.Add(2)
	go n.loop()
	go func() {
		defer n.wg.Done()
		if err := n.pump.run(); err != nil {
			n.fail(err)
		}
	}()
	return n, nil
}

// newNode builds a node whose loop and pump nobody runs yet; now seeds what
// the member starts with a clock reading for (an ephemeral incarnation, the
// detector's first grace period).
func newNode(cfg Config, tr transport.Transport, now time.Time) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if tr.Self() != cfg.Self {
		return nil, fmt.Errorf("fsr: transport self %d != config self %d", tr.Self(), cfg.Self)
	}
	view, err := cfg.initialView()
	if err != nil {
		return nil, err
	}

	nodeLog := cfg.Logger.With("node", uint32(cfg.Self))
	p, incarnation, startLocal, err := restore(cfg, nodeLog, now)
	if err != nil {
		return nil, err
	}
	clog := p.clog

	engine, err := core.NewEngine(core.Config{
		Self:         cfg.Self,
		SegmentSize:  cfg.SegmentSize + envClientHeader, // the envelope rides on top of the cap
		StartDeliver: clog.Applied() + 1,
		StartLocal:   startLocal,
	}, view)
	if err != nil {
		_ = clog.Close()
		return nil, err
	}

	n := &Node{
		cfg:      cfg,
		tr:       tr,
		log:      nodeLog,
		engine:   engine,
		clog:     clog,
		sess:     p.sess,
		pump:     p,
		inbox:    make(chan inboundPayload, 4096),
		bcast:    make(chan bcastReq),
		ctl:      make(chan func(time.Time)),
		stop:     make(chan struct{}),
		lastView: viewInfo(view),
	}

	// Control traffic is best effort: silence is what the failure detector
	// detects, and view change and catch-up retry on their ticks.
	send := func(to ring.ProcID, payload []byte) { _ = n.tr.Send(to, payload) }
	n.mgr, err = vsc.NewManager(vsc.Config{
		Self:          cfg.Self,
		T:             cfg.T,
		ChangeTimeout: cfg.ChangeTimeout,
		Joiner:        cfg.Joiner,
		Incarnation:   incarnation,
		Logger:        nodeLog,
		Callbacks: vsc.Callbacks{
			Send:     send,
			Snapshot: engine.Snapshot,
			Install:  n.install,
			Evicted:  n.onEvicted,
		},
	}, view)
	if err != nil {
		_ = clog.Close()
		return nil, err
	}
	n.fdet, err = fd.New(fd.Config{
		Self:     cfg.Self,
		Interval: cfg.HeartbeatInterval,
		Timeout:  cfg.FailureTimeout,
		Send:     send,
		Suspect:  n.mgr.OnSuspect,
	})
	if err != nil {
		_ = clog.Close()
		return nil, err
	}
	if !cfg.Joiner {
		n.fdet.SetPeers(cfg.Members, now)
	}

	n.srv = n.newServe()
	p.srv = n.srv
	n.catchup = &catchup{
		self:    cfg.Self,
		timeout: cfg.ChangeTimeout,
		wlog:    p.wlog,
		pump:    p,
		send:    send,
		applied: n.Applied,
		settled: func() (uint64, bool) {
			return n.engine.NextDeliver() - 1, n.engine.PendingDeliveries() == 0
		},
		log: nodeLog,
	}
	n.admin = n.newAdmin()

	tr.SetHandler(func(from transport.ProcID, payload []byte) {
		select {
		case n.inbox <- inboundPayload{from: from, payload: payload}:
		case <-n.stop:
		}
	})

	n.log.Info("node start",
		"joiner", cfg.Joiner, "durable", cfg.DurableDir != "",
		"incarnation", incarnation, "applied", clog.Applied(), "t", cfg.T)
	return n, nil
}

// viewInfo converts an installed core view into the public shape.
func viewInfo(v core.View) ViewInfo {
	return ViewInfo{ID: v.ID, Members: v.Ring.Members(), T: v.Ring.T()}
}

// Self returns this node's process ID.
func (n *Node) Self() ProcID { return n.cfg.Self }

// CurrentView returns the most recently installed view.
func (n *Node) CurrentView() ViewInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := n.lastView
	v.Members = slices.Clone(v.Members)
	return v
}

// Err returns the fatal error that halted the node, if any.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// Join, Leave and RotateLeader report whether the event loop took the
// request: true once it has run, false once the node has stopped.

// Join asks the group for admission (Joiner nodes only); contacts are the
// known members. Until a view admits this node, the request is repeated
// every ChangeTimeout to the latest contacts given; admission shows as a
// CurrentView that includes this node.
func (n *Node) Join(contacts []ProcID) bool {
	return n.do(func(now time.Time) { n.mgr.RequestJoin(contacts, now) })
}

// Leave announces a graceful departure; the node stops once the view change
// excluding it completes (Stop is then unnecessary but harmless).
func (n *Node) Leave() bool { return n.do(n.mgr.RequestLeave) }

// RotateLeader asks for a view change that shifts the ring order by one,
// moving the sequencer role to the next process — the paper's §4.3.1
// device for evenly distributing latency across senders. Only honored when
// this node currently coordinates the group (it is the leader); a
// follower's request is silently ignored by the membership layer.
func (n *Node) RotateLeader() bool { return n.do(n.mgr.RotateLeader) }

// do runs fn on the event loop, at the loop's clock, and waits for it. It
// reports false, running nothing, once the node has stopped. Never call it
// from the loop itself.
func (n *Node) do(fn func(now time.Time)) bool {
	done := make(chan struct{})
	select {
	case n.ctl <- func(now time.Time) { fn(now); close(done) }:
		<-done
		return true
	case <-n.stop:
		return false
	}
}

// Stop halts the node; in-process subscriptions end. Safe to call more than
// once.
func (n *Node) Stop() {
	n.halt()
	n.wg.Wait()
	// Serving teardown order matters: mark the serving engine dead first,
	// then close the transport (which unblocks any client writer stuck in
	// a socket write to a stalled subscriber), then join its goroutines.
	n.srv.Shutdown()
	_ = n.tr.Close()
	n.srv.Wait()
	_ = n.clog.Close()
}

// Applied returns the highest message sequence number this node has
// applied — its position in the total order as an application (persisted
// and folded into the state machine), as opposed to the protocol's
// segment-delivery cursor. With DurableDir it survives restarts.
func (n *Node) Applied() uint64 { return n.clog.Applied() }

// Ready reports nil when the node can serve: it has installed a view, is
// not catching up on missed history, and its durable directory (if any)
// still accepts writes. Otherwise the error names the first failing
// condition — the substance behind an operator-facing /readyz probe.
func (n *Node) Ready() error {
	if n.stopping() {
		if err := n.Err(); err != nil {
			return err
		}
		return ErrStopped
	}
	if n.CurrentView().ID == 0 {
		return errors.New("fsr: no installed view")
	}
	if n.pump.catchingUp() {
		return errors.New("fsr: catching up on missed history")
	}
	return n.clog.Writable()
}

// TriggerSnapshot asks the delivery pump to take a state-machine snapshot
// at the current applied position ahead of the SnapshotEvery cadence (an
// operator device: bound restart replay before planned maintenance). It
// reports whether the request was queued — false when the node runs
// without a durable log or state machine, or has halted.
func (n *Node) TriggerSnapshot() bool {
	return !n.stopping() && n.pump.triggerSnapshot()
}

// halt closes the stop channel exactly once; the event loop notices and
// shuts the node down.
func (n *Node) halt() {
	n.stopOnce.Do(func() { close(n.stop) })
}

// fail records a fatal protocol error and halts the node (fail-stop): the
// event loop exits, subscriptions end, pending local publishes fail, and the
// error surfaces via Err. Peers notice the resulting heartbeat silence and
// evict this node through a view change.
func (n *Node) fail(err error) {
	n.mu.Lock()
	first := n.err == nil
	if first {
		n.err = err
	}
	n.mu.Unlock()
	if first {
		n.log.Error("node fail-stop", "err", err, "epoch", n.CurrentView().ID)
	}
	n.halt()
}

// onEvicted handles exclusion from the group: the departure (graceful
// leave honored, or — impossible under a perfect failure detector — a
// false suspicion) is terminal, so the node halts. Staying up would let
// the ex-member drift into a divergent singleton group once its former
// peers stop heartbeating it: its own failure detector would "suspect"
// them all, install a one-member view, and re-sequence its pending
// broadcasts in a private total order. Fail-stop is the only behavior
// that cannot silently diverge.
func (n *Node) onEvicted() {
	n.log.Warn("node evicted", "epoch", n.CurrentView().ID)
	// Own uncommitted publishes left the group with us; they may or may
	// not survive through other members' recovery state, so the halt fails
	// their receipts (shutdown) rather than leaving them to hang forever.
	n.halt()
}

// install applies an agreed view: engine first, then rebroadcasts, then the
// failure detector, then the notifications.
func (n *Node) install(v core.View, sync *core.Sync, rebroadcast []core.PendingMsg, now time.Time) {
	prevNext := n.engine.NextDeliver()
	if err := n.engine.InstallView(v, sync); err != nil {
		n.fail(err)
		return
	}
	for _, m := range rebroadcast {
		if err := n.engine.ReBroadcast(m); err != nil {
			n.fail(err)
			return
		}
	}
	n.fdet.SetPeers(v.Ring.Members(), now)
	info := viewInfo(v)
	n.mu.Lock()
	n.lastView = info
	n.mu.Unlock()
	n.log.Info("view installed",
		"epoch", info.ID, "leader", uint32(info.Members[0]), "members", len(info.Members),
		"t", info.T, "sync_base", sync.StartSeq, "rebroadcasts", len(rebroadcast))
	// Connected session clients learn the new view (best-effort): a client
	// bound to a departed member fails over sooner than its timeouts.
	n.srv.NotifyAll(wire.RedirectView)
	if horizon := n.catchup.refresh(v, sync, prevNext, now); horizon > 0 {
		n.clog.RaiseHorizon(horizon)
	}
}

// frozen reports whether protocol frames must be parked instead of fed to
// the engine: a view change is in flight, or this node has not been
// admitted yet (a joiner's bootstrap view is epoch 0). Event-loop context.
func (n *Node) frozen() bool {
	return n.mgr.Changing() || n.mgr.View().ID == 0
}

// replayParked feeds frames parked during a freeze to the engine once the
// freeze lifts. Frames of a superseded view are dropped by the engine's
// view check; frames of the just-installed view resume seamlessly.
func (n *Node) replayParked() {
	if len(n.parked) == 0 || n.frozen() {
		return
	}
	parked := n.parked
	n.parked = nil
	for i, f := range parked {
		err := n.engine.HandleFrame(f)
		wire.PutFrame(f)
		parked[i] = nil
		if err != nil {
			n.fail(err) // remaining parked frames are garbage-collected
			return
		}
	}
}

// stopping reports whether the stop channel is closed (Stop or fail).
func (n *Node) stopping() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// shutdown is the loop's single exit path: stop the engine, fail whatever
// local publishes have not committed, and release the delivery pump. Session
// clients get a best-effort goodbye so they fail over immediately instead
// of waiting out their timeouts.
func (n *Node) shutdown() {
	n.srv.NotifyAll(wire.RedirectBye)
	n.engine.Stop()
	err := n.Err()
	if err == nil {
		err = ErrStopped
	}
	n.sess.failLocal(err)
	n.pump.close()
}

// loop is the adapter: the single event-loop goroutine, owning all
// protocol state, that feeds the core.
//
// Each wake-up reads the clock once, hands the core what woke it, then
// every queued inbound payload (so the engine sees the current ring state),
// then flushes once: every frame the engine has ready goes to the successor
// in one transport batch. Relayed traffic batches into multi-segment
// frames; own initiation stays paced at one segment per frame (FillFrame
// closes a frame after an own send), which is what lets the paper's
// fairness rule keep interleaving relayed traffic with own messages
// instead of flushing whole own-queues in one burst. The transport's
// pacing — NIC serialization, socket-buffer backpressure — still throttles
// the loop between flushes.
func (n *Node) loop() {
	defer n.wg.Done()
	defer n.shutdown()
	tick := time.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	var next input // what the last wait returned; the zero input is a no-op
	for {
		now := time.Now()
		n.handle(now, next)
		next = input{}
	drain:
		for !n.stopping() {
			select {
			case in := <-n.inbox:
				n.handle(now, input{inboundPayload: in})
			default:
				break drain
			}
		}
		if n.stopping() {
			return
		}
		if n.flush(now) {
			continue
		}

		// Backpressure, the one thing the two kinds of publish do
		// differently at the gate: a local publisher blocks (it has no
		// retry, so its channel simply is not read while the gate is shut),
		// whereas a client publish was parked or dropped on arrival and its
		// retry is the backpressure. Parked ones go first when it opens.
		bc := n.bcast
		if n.canPublish() {
			n.drainClientPubs()
		} else {
			bc = nil
		}

		select {
		case <-n.stop:
			return
		case next.inboundPayload = <-n.inbox:
		case next.pub = <-bc:
		case next.ctl = <-n.ctl:
		case <-tick.C:
			next.tick = true
		}
	}
}

// handle steps the core on one input at now. Event loop, or the caller that
// owns the node in its place.
func (n *Node) handle(now time.Time, in input) {
	switch {
	case in.tick:
		n.fdet.Tick(now)
		n.mgr.Tick(now)
		n.catchup.tick(now)
	case in.ctl != nil:
		in.ctl(now)
	case in.pub.resp != nil:
		in.pub.resp <- n.publishLocal(in.pub.payload)
	default:
		n.handlePayload(now, in.from, in.payload)
	}
}

// flush ends a drain: frames parked through a freeze that has lifted go to
// the engine, fresh deliveries to the pump, and every ready frame to the
// successor. It reports whether a frame went out.
func (n *Node) flush(now time.Time) bool {
	n.replayParked()
	n.deliver(now)
	return n.sendReady(now)
}

// sendReady flushes every frame the engine has ready — each one batching up
// to core.DefaultMaxFrameData segments under the per-slot fairness rule — to
// the ring successor in a single SendBatch (one vectored write on TCP),
// encoding through pooled buffers. It reports whether any frame went out.
func (n *Node) sendReady(now time.Time) bool {
	if n.mgr.Changing() {
		return false
	}
	r := n.mgr.View().Ring
	succ, ok := r.Successor(n.cfg.Self)
	if !ok || succ == n.cfg.Self {
		return false
	}
	n.sendFrame.Ver = n.cfg.WireVersion
	for n.engine.FillFrame(&n.sendFrame) {
		b := wire.GetBuf()
		b.B = wire.AppendFrame(b.B, &n.sendFrame)
		n.sendBufs = append(n.sendBufs, b)
		n.sendPayloads = append(n.sendPayloads, b.B)
	}
	if len(n.sendPayloads) == 0 {
		return false
	}
	// SendBatch leaves buffer ownership with the caller, so the pooled
	// encode buffers recycle immediately after the (single) write.
	err := n.tr.SendBatch(succ, n.sendPayloads)
	for i := range n.sendBufs {
		wire.PutBuf(n.sendBufs[i])
		n.sendBufs[i] = nil
		n.sendPayloads[i] = nil
	}
	n.sendBufs = n.sendBufs[:0]
	n.sendPayloads = n.sendPayloads[:0]
	n.deliver(now)
	return err == nil // unreachable successor: the FD takes it from here
}

// handlePayload dispatches one transport payload by channel kind.
func (n *Node) handlePayload(now time.Time, from ProcID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case wire.KindFSR:
		// Pooled decode: the Frame struct and its item slices recycle once
		// the engine has consumed the frame (the engine copies what it
		// keeps; segment bodies alias in.payload, which the protocol layer
		// owns from here on, not the pooled frame).
		f := wire.GetFrame()
		if err := wire.DecodeFrameInto(f, payload); err != nil {
			wire.PutFrame(f)
			if errors.Is(err, wire.ErrVersion) {
				// Incompatible-major peer (a botched upgrade, or a too-new
				// member talking to us): drop the frame, stay alive. The
				// peer's traffic simply does not exist for us; membership
				// sorts itself out through the failure detector.
				n.skippedVersion++
				n.cfg.Logger.Warn("fsr: dropped incompatible-version frame",
					"from", from, "err", err)
				return
			}
			n.fail(err)
			return
		}
		// Freeze: while a view change is in flight (or before a joiner is
		// admitted) protocol frames are parked, not processed. The flush
		// snapshot taken at the change's start must stay authoritative —
		// sequencing or delivering from late in-flight frames after the
		// freeze would let state escape the agreed sync (duplicated
		// rebroadcasts, diverging deliveries). Parking rather than dropping
		// also saves frames of the NEW view that arrive before our NEWVIEW
		// does: there is no retransmission below the view-change layer, so
		// dropping them would strand their segments forever. Replay happens
		// on the loop as soon as the freeze lifts; old-view stragglers are
		// then discarded by the engine's view check.
		if n.frozen() {
			if len(n.parked) < maxParkedFrames {
				n.parked = append(n.parked, f) // pooled again after replay
			} else {
				wire.PutFrame(f)
			}
			return
		}
		// Any frames parked before the freeze lifted must go first: this
		// frame may share a link with one of them, and per-link FIFO is the
		// engine's ground assumption (processing it ahead of an earlier
		// parked frame would reorder the link).
		n.replayParked()
		if n.stopping() {
			wire.PutFrame(f)
			return
		}
		err := n.engine.HandleFrame(f)
		wire.PutFrame(f)
		if err != nil {
			n.fail(err)
			return
		}
	case wire.KindVSC:
		n.failUnlessUnknown(n.mgr.HandlePayload(from, payload, now))
	case wire.KindFD:
		beater, err := fd.Decode(payload)
		if err != nil {
			return // malformed heartbeat: ignore
		}
		n.fdet.HandleHeartbeat(beater, now)
	case wire.KindCatchup:
		n.failUnlessUnknown(n.catchup.handle(from, payload, now))
	case wire.KindClient:
		n.srv.Handle(from, payload)
	case wire.KindAdmin:
		n.admin.Handle(from, payload, now)
	default:
		// Unknown channel kind — a future minor's new sub-protocol. The
		// compat policy (wire version.go) says skip, never fail: the sender
		// knows we may not understand and gets no reply.
		n.skippedUnknown++
	}
}

// failUnlessUnknown fail-stops the member on a view-change or catch-up
// error, except a message type this build does not know: a newer minor's
// message, which the compat policy (wire version.go) skips and counts.
func (n *Node) failUnlessUnknown(err error) {
	switch {
	case err == nil:
	case errors.Is(err, wire.ErrUnknownType):
		n.skippedUnknown++
	default:
		n.fail(err)
	}
}

// deliver hands fresh engine deliveries to the pump, and a hole the pump
// found in them to catch-up.
func (n *Node) deliver(now time.Time) {
	n.delivBuf = n.engine.DrainDeliveries(n.delivBuf[:0])
	if len(n.delivBuf) == 0 {
		return
	}
	hole := n.pump.deliver(n.delivBuf)
	clear(n.delivBuf) // release Body references held in the reused drain buffer
	if hole > 0 {
		n.catchup.extend(hole, n.mgr.View(), now)
	}
}
