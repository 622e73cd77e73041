package fsr

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"fsr/admin"
	"fsr/internal/core"
	"fsr/internal/fd"
	"fsr/internal/ring"
	"fsr/internal/serve"
	"fsr/internal/vsc"
	"fsr/internal/wal"
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

// Catch-up transfer paging: one response carries at most this many
// recovered messages / payload bytes, so serving a restarted peer never
// monopolizes the event loop or produces an oversized transport frame.
const (
	catchupMaxEntries = 256
	catchupMaxBytes   = 1 << 20
	// catchupMaxBacklog pauses page requests while this many recovered
	// messages sit in catchBuf awaiting the (fsync-bound) pump, so a long
	// transfer over a fast link cannot buffer the whole missed history in
	// memory; the tick resumes paging once the pump drains.
	catchupMaxBacklog = 4096
)

// maxParkedFrames bounds the frames parked during a view-change freeze; a
// pathologically long change falls back to dropping (view-change recovery
// then treats the overflow like any other in-flight loss).
const maxParkedFrames = 8192

// maxPendingOwn bounds own segments queued in the engine for initiation:
// at the bound the publish gate closes (see canPublish).
const maxPendingOwn = 1024

// incarnationBits is the width of the per-incarnation MsgID band: each
// restart of a durable node advances the origin-local counter to
// generation << incarnationBits, so IDs minted after a crash can never
// collide with IDs of a previous life that may still sit in survivors'
// recovery buffers.
const incarnationBits = 40

// Node is one FSR group member: it owns the protocol engine, the failure
// detector and the view-change manager, and drives them over a transport.
//
// All protocol work happens on one event-loop goroutine; the public methods
// communicate with it through channels, so a Node is safe for concurrent
// use.
type Node struct {
	cfg Config
	tr  transport.Transport
	log *slog.Logger // cfg.Logger tagged with this node's ID

	engine *core.Engine
	mgr    *vsc.Manager
	fdet   *fd.Detector

	inbox  chan inboundPayload
	bcast  chan bcastReq
	joinc  chan []ProcID
	leave  chan struct{}
	rotate chan struct{}
	statsc chan chan Metrics
	stop   chan struct{}

	views chan ViewInfo

	// Durability (nil / zero without Config.DurableDir). The order is written
	// through clog; wlog serves catch-up reads and takes the cadence snapshot.
	wlog      *wal.Log
	sm        StateMachine
	sinceSnap int         // messages applied since the last snapshot (pump-owned)
	catch     *catchState // in-flight catch-up transfer (event-loop-owned)

	// Session serving: the publish dedup index and parked client publishes
	// (see nodesession.go), the committed order as every consumer reads it
	// — it owns the applied frontier — and the shared serving engine:
	// clients, subscription pagers, per-client writers and the encode-once
	// fan-out.
	sess  *sessSrv
	clog  *serve.Log
	srv   *serve.Server
	admin *admin.Responder
	// batchScratch is the pump's reusable buffer for the entries of the
	// batch being applied (pump goroutine only).
	batchScratch []wire.ClientEventEntry

	outMu    sync.Mutex
	outCond  *sync.Cond
	outBuf   []Message
	outDone  bool
	pumpBusy bool // a popped batch is being persisted (outMu)
	// recovering: the popped batch carries catch-up history (outMu). Ready
	// stays red until the pump has applied what the transfer handed over.
	recovering bool
	snapPend   bool // an admin-triggered snapshot awaits the pump (outMu)
	asmState   *assembler
	// While catching, the live stream is held back entirely until the
	// catch-up transfer fills the hole below it (the transfer covers
	// everything above the applied frontier, so held live copies simply
	// deduplicate afterwards); catchBuf carries the recovered history from
	// the event loop to the pump.
	catching bool
	catchBuf []catchItem

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
	joined   bool
	err      error
	lastView ViewInfo
}

type inboundPayload struct {
	from    ProcID
	payload []byte
}

type bcastReq struct {
	payload []byte
	resp    chan bcastResp
}

type bcastResp struct {
	receipt *Receipt
	err     error
}

// catchItem is one piece of recovered history traveling from the event
// loop (which receives catch-up responses) to the delivery pump (which owns
// all durable state): either a full state transfer or one message.
type catchItem struct {
	snap *wal.Snapshot // state transfer; nil for a message
	msg  Message
}

// catchState tracks an in-flight catch-up transfer. Event-loop-owned.
type catchState struct {
	target   uint64    // catch-up is done once applied/after reaches this
	peers    []ProcID  // candidate servers, current view order, self excluded
	idx      int       // peer currently being asked
	after    uint64    // highest seq handed to the pump so far
	unavail  int       // consecutive "no durable log" answers
	lastSend time.Time // for timeout-driven retry/rotation
}

// NewNode builds and starts a node on the given transport. The transport's
// Self must match cfg.Self.
func NewNode(cfg Config, tr transport.Transport) (*Node, error) {
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

	// Durable recovery: rebuild the state machine and the delivery
	// position from snapshot + WAL before the protocol stack exists, so
	// the engine starts exactly where the previous incarnation stopped.
	var (
		wlog        *wal.Log
		clog        *serve.Log
		applied     uint64
		startLocal  uint64
		incarnation uint64
		index       pubIndex // client-publish dedup index, rebuilt with the state
	)
	nodeLog := cfg.Logger.With("node", uint32(cfg.Self))
	if cfg.DurableDir != "" {
		wlog, err = wal.Open(cfg.DurableDir, wal.Options{
			SegmentBytes: cfg.WALSegmentBytes,
			FS:           cfg.WALFS,
			Logger:       nodeLog,
		})
		if err != nil {
			return nil, fmt.Errorf("fsr: open durable dir: %w", err)
		}
		if snap, ok := wlog.LatestSnapshot(); ok {
			// Snapshots are node-level: the publish index rides in front of
			// the application state (see wrapSnapshot).
			idxBytes, app := openSnapshot(snap.Data)
			if idxBytes != nil {
				index, _ = decodePubIndex(idxBytes)
			}
			if cfg.StateMachine != nil {
				if err := cfg.StateMachine.Restore(app); err != nil {
					_ = wlog.Close()
					return nil, fmt.Errorf("fsr: restore snapshot at %d: %w", snap.Seq, err)
				}
			}
			applied = snap.Seq
		}
		err = wlog.Replay(applied, func(e wal.Entry) error {
			if e.Origin >= uint32(ClientIDBase) {
				index.add(ProcID(e.Origin), e.LogicalID, e.Seq)
			}
			if cfg.StateMachine != nil {
				cfg.StateMachine.Apply(Message{
					Seq:       e.Seq,
					Origin:    ProcID(e.Origin),
					LogicalID: e.LogicalID,
					Payload:   e.Payload,
				})
			}
			applied = e.Seq
			return nil
		})
		if err != nil {
			_ = wlog.Close()
			return nil, fmt.Errorf("fsr: replay WAL: %w", err)
		}
		incarnation = wlog.Generation()
		startLocal = incarnation << incarnationBits
		clog = serve.NewWALLog(wlog, applied, appSnapshot)
	} else {
		// No durable identity: a boot timestamp keeps incarnations of one
		// ID monotone enough for the membership layer's restart handling,
		// and seeds the MsgID band so a fast-restarted ephemeral node
		// cannot re-mint IDs its previous life may still have in flight
		// (~4ms resolution, wrapping after ~19h — far beyond any pending
		// message's lifetime).
		now := uint64(time.Now().UnixNano())
		incarnation = now
		startLocal = ((now >> 22) & (1<<24 - 1)) << incarnationBits
		// No durable log: retain a bounded in-memory tail of the applied
		// order for subscribers. The horizon rises past anything this
		// member never delivered (a joiner's missed prefix, holes).
		clog = serve.NewRingLog(memberTailCap, appSnapshot)
	}

	engine, err := core.NewEngine(core.Config{
		Self:         cfg.Self,
		SegmentSize:  cfg.SegmentSize + envClientHeader, // the envelope rides on top of the cap
		StartDeliver: applied + 1,
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
		wlog:     wlog,
		clog:     clog,
		sm:       cfg.StateMachine,
		inbox:    make(chan inboundPayload, 4096),
		bcast:    make(chan bcastReq),
		joinc:    make(chan []ProcID, 1),
		leave:    make(chan struct{}, 1),
		rotate:   make(chan struct{}, 1),
		statsc:   make(chan chan Metrics),
		stop:     make(chan struct{}),
		views:    make(chan ViewInfo, 64),
		joined:   !cfg.Joiner,
		lastView: viewInfo(view),
	}
	n.outCond = sync.NewCond(&n.outMu)
	n.sess = newSessSrv(n)
	n.sess.index = index

	n.fdet, err = fd.New(fd.Config{
		Self:     cfg.Self,
		Interval: cfg.HeartbeatInterval,
		Timeout:  cfg.FailureTimeout,
		Send: func(to ring.ProcID, payload []byte) {
			_ = n.tr.Send(to, payload) // silence is what the FD detects
		},
		Suspect: func(p ring.ProcID) {
			// Called from within the loop's fdet.Tick.
			n.mgr.OnSuspect(p, time.Now())
		},
	})
	if err != nil {
		_ = clog.Close()
		return nil, err
	}

	n.mgr, err = vsc.NewManager(vsc.Config{
		Self:          cfg.Self,
		T:             cfg.T,
		ChangeTimeout: cfg.ChangeTimeout,
		Joiner:        cfg.Joiner,
		Incarnation:   incarnation,
		Logger:        nodeLog,
		Callbacks: vsc.Callbacks{
			Send: func(to ring.ProcID, payload []byte) {
				_ = n.tr.Send(to, payload)
			},
			Snapshot: func() core.RecoveryState { return n.engine.Snapshot() },
			Install:  n.install,
			Evicted:  n.onEvicted,
		},
	}, view)
	if err != nil {
		_ = clog.Close()
		return nil, err
	}
	if !cfg.Joiner {
		n.fdet.SetPeers(cfg.Members, time.Now())
	}

	n.srv = n.newServe()
	n.admin = n.newAdmin()

	tr.SetHandler(func(from transport.ProcID, payload []byte) {
		select {
		case n.inbox <- inboundPayload{from: from, payload: payload}:
		case <-n.stop:
		}
	})

	n.log.Info("node start",
		"joiner", cfg.Joiner, "durable", cfg.DurableDir != "",
		"incarnation", incarnation, "applied", applied, "t", cfg.T)
	n.wg.Add(2)
	go n.loop()
	go n.deliveryPump()
	return n, nil
}

// appSnapshot is what a subscriber is handed from a snapshot as a member
// stores it: snapshots are node-level, the publish index rides in front.
func appSnapshot(stored []byte) []byte {
	_, app := openSnapshot(stored)
	return app
}

// viewInfo converts an installed core view into the public shape.
func viewInfo(v core.View) ViewInfo {
	return ViewInfo{ID: v.ID, Members: v.Ring.Members(), T: v.Ring.T()}
}

// Self returns this node's process ID.
func (n *Node) Self() ProcID { return n.cfg.Self }

// Views returns installed-view notifications (advisory: entries are dropped
// if the consumer lags). CurrentView reports the latest view without
// consuming from this stream.
func (n *Node) Views() <-chan ViewInfo { return n.views }

// CurrentView returns the most recently installed view. Unlike Views, it
// does not consume anything and is safe to poll alongside a Views consumer.
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

// Metrics returns a coherent snapshot of the node's protocol counters,
// queue depths and publish latency histogram, taken on the event loop. A
// halted node returns the zero Metrics.
func (n *Node) Metrics() Metrics {
	req := make(chan Metrics, 1)
	select {
	case n.statsc <- req:
		return <-req
	case <-n.stop:
		return Metrics{}
	}
}

// Join asks the group for admission (Joiner nodes only); contacts are the
// known members. It reports whether the request was accepted by the event
// loop — false means the node has halted, or an earlier join request is
// still queued and THIS call was dropped (the queued attempt keeps its own
// contact list; call Join again if yours differs). Once accepted, Join
// retries internally until admitted; admission is confirmed by a view on
// Views (or CurrentView) including this node.
func (n *Node) Join(contacts []ProcID) bool {
	if n.stopping() {
		return false
	}
	select {
	case n.joinc <- contacts:
		return true
	default:
		return false
	}
}

// Leave announces a graceful departure; the node stops once the view change
// excluding it completes (Stop is then unnecessary but harmless). It
// reports whether the request was accepted — false means the node has
// already halted, or a leave is already queued (the departure is underway
// either way).
func (n *Node) Leave() bool {
	if n.stopping() {
		return false
	}
	select {
	case n.leave <- struct{}{}:
		return true
	default:
		return false
	}
}

// RotateLeader asks for a view change that shifts the ring order by one,
// moving the sequencer role to the next process — the paper's §4.3.1
// device for evenly distributing latency across senders. Only honored when
// this node currently coordinates the group (it is the leader); a
// follower's request is silently ignored by the membership layer. It
// reports whether the request was accepted by the event loop — false means
// the node has halted, or a rotation is already queued and this one was
// coalesced.
func (n *Node) RotateLeader() bool {
	if n.stopping() {
		return false
	}
	select {
	case n.rotate <- struct{}{}:
		return true
	default:
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
	n.mu.Lock()
	joined := n.joined
	n.mu.Unlock()
	if !joined {
		return errors.New("fsr: no installed view")
	}
	n.outMu.Lock()
	catching := n.catching || n.recovering || len(n.catchBuf) > 0
	n.outMu.Unlock()
	if catching {
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
	if n.wlog == nil || n.sm == nil || n.stopping() {
		return false
	}
	n.outMu.Lock()
	n.snapPend = true
	n.outCond.Signal()
	n.outMu.Unlock()
	return true
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
// failure detector, then the advisory notification.
func (n *Node) install(v core.View, sync *core.Sync, rebroadcast []core.PendingMsg) {
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
	n.fdet.SetPeers(v.Ring.Members(), time.Now())
	info := viewInfo(v)
	n.mu.Lock()
	n.joined = true
	n.lastView = info
	n.mu.Unlock()
	n.log.Info("view installed",
		"epoch", info.ID, "leader", uint32(info.Members[0]), "members", len(info.Members),
		"t", info.T, "sync_base", sync.StartSeq, "rebroadcasts", len(rebroadcast))
	// The channel consumer owns what it receives; hand it its own Members
	// copy so mutating it cannot corrupt CurrentView/Metrics.
	info.Members = slices.Clone(info.Members)
	select {
	case n.views <- info:
	default:
	}
	// Connected session clients learn the new view (best-effort): a client
	// bound to a departed member fails over sooner than its timeouts.
	n.srv.NotifyAll(wire.RedirectView)
	n.refreshCatchup(v, sync, prevNext)
}

// frozen reports whether protocol frames must be parked instead of fed to
// the engine: a view change is in flight, or this node has not been
// admitted yet. Event-loop context.
func (n *Node) frozen() bool {
	if n.mgr.Changing() {
		return true
	}
	n.mu.Lock()
	joined := n.joined
	n.mu.Unlock()
	return !joined
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
	n.closeDeliveries()
}

// loop is the single event-loop goroutine owning all protocol state.
//
// Each iteration first drains all queued inbound payloads (so the engine
// sees the current ring state), then flushes every frame the engine has
// ready to the successor in one transport batch. Relayed traffic batches
// into multi-segment frames; own initiation stays paced at one segment per
// frame (FillFrame closes a frame after an own send), which is what lets
// the paper's fairness rule keep interleaving relayed traffic with own
// messages instead of flushing whole own-queues in one burst. The
// transport's pacing — NIC serialization, socket-buffer backpressure —
// still throttles the loop between flushes.
func (n *Node) loop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	var joinContacts []ProcID
	lastJoin := time.Time{}
	for {
		if n.stopping() {
			n.shutdown()
			return
		}
	drain:
		for {
			select {
			case in := <-n.inbox:
				n.handlePayload(in)
				if n.stopping() {
					n.shutdown()
					return
				}
			default:
				break drain
			}
		}
		n.replayParked()
		n.deliver()
		if n.sendReady() {
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
			n.shutdown()
			return

		case in := <-n.inbox:
			n.handlePayload(in)

		case req := <-bc:
			req.resp <- n.publishLocal(req.payload)

		case contacts := <-n.joinc:
			joinContacts = contacts
			n.mgr.RequestJoin(contacts)
			lastJoin = time.Now()

		case <-n.leave:
			n.mgr.RequestLeave()

		case <-n.rotate:
			n.mgr.RotateLeader(time.Now())

		case req := <-n.statsc:
			req <- n.snapshotMetrics()

		case now := <-tick.C:
			n.fdet.Tick(now)
			n.mgr.Tick(now)
			n.tickCatchup(now)
			n.mu.Lock()
			joined := n.joined
			n.mu.Unlock()
			if !joined && joinContacts != nil && now.Sub(lastJoin) > n.cfg.ChangeTimeout {
				n.mgr.RequestJoin(joinContacts)
				lastJoin = now
			}
		}
	}
}

// snapshotMetrics assembles a Metrics snapshot. Event-loop context only.
func (n *Node) snapshotMetrics() Metrics {
	st := n.engine.Stats()
	relay, own, acks := n.engine.QueueDepths()
	m := Metrics{
		View:           n.CurrentView(),
		IsLeader:       n.engine.IsLeader(),
		FramesIn:       st.FramesIn,
		FramesOut:      st.FramesOut,
		DataIn:         st.DataIn,
		AcksIn:         st.AcksIn,
		Sequenced:      st.Sequenced,
		Delivered:      st.Delivered,
		StaleFrames:    st.StaleFrames,
		RelayedData:    st.RelayedData,
		OwnSent:        st.OwnSent,
		FairnessSkips:  st.FairnessSkips,
		StandaloneAcks: st.StandaloneAcks,
		MultiSegFrames: st.MultiSegFrames,
		SkippedVersion: n.skippedVersion,
		SkippedUnknown: n.skippedUnknown,
		RelayQueue:     relay,
		OwnQueue:       own,
		AckQueue:       acks,
		Applied:        n.Applied(),
		CatchingUp:     n.catch != nil,
	}
	n.sess.mu.Lock()
	m.PendingReceipts = n.sess.perClient[n.cfg.Self]
	m.SessionPublishes = n.sess.pubsAccepted
	m.SessionDuplicates = n.sess.dupsFiltered
	m.SessionBounded = n.sess.pubsBounded
	m.PublishLatency = n.sess.pubLatency
	n.sess.mu.Unlock()
	if ws, ok := n.clog.WALStats(); ok {
		m.WAL = WALMetrics(ws)
	}
	st2 := n.srv.Stats()
	m.SessionSubscribers = st2.Subs
	m.TailAttached = st2.TailAttached
	m.TailFrames = st2.TailFrames
	m.TailDetaches = st2.TailDetaches
	m.EdgeClients = st2.EdgeClients
	return m
}

// sendReady flushes every frame the engine has ready — each one batching up
// to core.DefaultMaxFrameData segments under the per-slot fairness rule — to
// the ring successor in a single SendBatch (one vectored write on TCP),
// encoding through pooled buffers. It reports whether any frame went out.
func (n *Node) sendReady() bool {
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
	n.deliver()
	return err == nil // unreachable successor: the FD takes it from here
}

// handlePayload dispatches one transport payload by channel kind.
func (n *Node) handlePayload(in inboundPayload) {
	if len(in.payload) == 0 {
		return
	}
	switch in.payload[0] {
	case wire.KindFSR:
		// Pooled decode: the Frame struct and its item slices recycle once
		// the engine has consumed the frame (the engine copies what it
		// keeps; segment bodies alias in.payload, which the protocol layer
		// owns from here on, not the pooled frame).
		f := wire.GetFrame()
		if err := wire.DecodeFrameInto(f, in.payload); err != nil {
			wire.PutFrame(f)
			if errors.Is(err, wire.ErrVersion) {
				// Incompatible-major peer (a botched upgrade, or a too-new
				// member talking to us): drop the frame, stay alive. The
				// peer's traffic simply does not exist for us; membership
				// sorts itself out through the failure detector.
				n.skippedVersion++
				n.cfg.Logger.Warn("fsr: dropped incompatible-version frame",
					"from", in.from, "err", err)
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
		if err := n.mgr.HandlePayload(in.from, in.payload, time.Now()); err != nil {
			if errors.Is(err, vsc.ErrUnknownType) {
				// A newer-minor peer's control message: skip, not fatal.
				n.skippedUnknown++
				return
			}
			n.fail(err)
			return
		}
	case wire.KindFD:
		from, err := fd.Decode(in.payload)
		if err != nil {
			return // malformed heartbeat: ignore
		}
		n.fdet.HandleHeartbeat(from, time.Now())
	case wire.KindCatchup:
		msg, err := wire.DecodeCatchup(in.payload)
		if err != nil {
			n.fail(err)
			return
		}
		switch v := msg.(type) {
		case *wire.CatchupReq:
			n.serveCatchup(in.from, v)
		case *wire.CatchupResp:
			n.handleCatchupResp(in.from, v)
		}
	case wire.KindClient:
		n.srv.Handle(in.from, in.payload)
	case wire.KindAdmin:
		n.admin.Handle(in.from, in.payload)
	default:
		// Unknown channel kind — a future minor's new sub-protocol. The
		// compat policy (wire version.go) says skip, never fail: the sender
		// knows we may not understand and gets no reply.
		n.skippedUnknown++
	}
}

// deliver moves fresh engine deliveries through the assembler into the
// pump's queue. A message the assembler cannot rebuild — its head predates
// this process's delivery horizon — becomes a hole that a durable node
// repairs via catch-up before anything later may be applied.
func (n *Node) deliver() {
	n.delivBuf = n.engine.DrainDeliveries(n.delivBuf[:0])
	ds := n.delivBuf
	if len(ds) == 0 {
		return
	}
	var dropSeq, horizonSeq uint64
	applied := n.Applied()
	n.outMu.Lock()
	asm := n.asm()
	for _, d := range ds {
		msg, res := asm.add(d)
		if res != asmComplete {
			if res == asmDropped && msg.Seq > applied {
				if n.wlog != nil {
					dropSeq = msg.Seq
				} else {
					horizonSeq = msg.Seq // ephemeral: an unservable hole
				}
			}
			continue
		}
		n.outBuf = append(n.outBuf, msg)
	}
	if dropSeq > 0 {
		// Hold the pump before releasing the lock: nothing live may be
		// applied until catch-up fills the hole (the transfer re-covers
		// any overlap, which the pump deduplicates).
		n.catching = true
	}
	n.outCond.Signal()
	n.outMu.Unlock()
	clear(ds) // release Body references held in the reused drain buffer
	if dropSeq > 0 {
		n.extendCatchup(dropSeq)
	}
	if horizonSeq > 0 {
		n.clog.RaiseHorizon(horizonSeq)
	}
}

// asm lazily allocates the assembler (guarded by outMu).
func (n *Node) asm() *assembler {
	if n.asmState == nil {
		n.asmState = newAssembler()
	}
	return n.asmState
}

// --- Catch-up: fetching the missed suffix of the total order -------------
//
// A durable node that rejoins behind the group (its WAL ends at K, the
// installed view's sync starts at S > K+1) owes its state machine the
// messages in between — they are uniform, every survivor delivered them,
// but the ring will never carry them again. The node asks the current
// members (leader first) for that range, applies the transferred history
// through the same durable pipeline as live traffic, and only then lets
// the live stream flow. All methods below run on the event loop.

// refreshCatchup runs at every view install. A hole exists exactly when
// the sync base passed this node's delivery cursor (prevNext <
// sync.StartSeq): messages in [prevNext, StartSeq) were delivered by the
// group while this process was down — it rejoined or was freshly admitted
// below the base — and will never arrive through ring traffic. The
// preserved sequenced run at or above the base is NOT a hole even though
// installing it advances NextDeliver: those segments sit in the engine's
// delivery buffer on their way to this node's own pump. (Treating that
// advance as a hole would, on a view change landing mid-traffic, hold
// every survivor's pump for a transfer no peer can serve — nobody has
// applied the in-flight run yet — deadlocking the whole group; the chaos
// harness finds this within seconds.) Ordinary pump lag is likewise not a
// hole. When a catch-up is already in flight, the peer set is refreshed so
// a crashed server is abandoned.
func (n *Node) refreshCatchup(v core.View, sync *core.Sync, prevNext uint64) {
	if n.wlog == nil {
		// An ephemeral member joining below the sync base will never see
		// the skipped prefix: its subscriber horizon rises past it, so
		// offset subscriptions are redirected to a member that has it.
		if sync.StartSeq > prevNext && sync.StartSeq > 0 {
			n.clog.RaiseHorizon(sync.StartSeq - 1)
		}
		return
	}
	base := sync.StartSeq
	if base <= prevNext && n.catch == nil {
		return // base did not pass the cursor: nothing is missing
	}
	target := base - 1
	// A message straddling the sync base — its head delivered before the
	// base, its tail preserved above it — can never be reassembled from
	// live traffic here; extend the catch-up horizon past its final
	// segment so the transfer covers it.
	for _, m := range sync.Sequenced {
		if m.Seq < base {
			continue
		}
		if m.Seq == base && m.Part > 0 {
			target = m.Seq + uint64(m.Parts-1-m.Part)
		}
		break
	}
	peers := n.catchupPeers(v)
	if n.catch == nil {
		if n.Applied() >= target {
			return // the skipped range was already applied before the crash
		}
		n.catch = &catchState{after: n.Applied()}
	}
	c := n.catch
	c.target = max(c.target, target)
	c.peers = peers
	c.idx = 0
	c.unavail = 0
	n.outMu.Lock()
	n.catching = true
	n.outMu.Unlock()
	n.log.Info("catch-up start",
		"epoch", v.ID, "after", c.after, "target", c.target, "peers", len(peers))
	n.sendCatchupReq()
}

// extendCatchup raises the catch-up horizon to cover a message the
// assembler had to drop (deliver detected the hole and already set the
// pump hold under outMu).
func (n *Node) extendCatchup(target uint64) {
	if n.catch == nil {
		n.catch = &catchState{after: n.Applied(), peers: n.catchupPeers(n.mgr.View())}
		n.log.Info("catch-up start",
			"epoch", n.CurrentView().ID, "after", n.catch.after, "target", target,
			"peers", len(n.catch.peers), "reason", "assembler hole")
	}
	if target > n.catch.target {
		n.catch.target = target
	}
	n.sendCatchupReq()
}

// catchupPeers lists the candidate catch-up servers: the view's members
// in ring order (leader first), excluding self.
func (n *Node) catchupPeers(v core.View) []ProcID {
	var peers []ProcID
	for _, p := range v.Ring.Members() {
		if p != n.cfg.Self {
			peers = append(peers, p)
		}
	}
	return peers
}

// sendCatchupReq asks the current candidate peer for the next page, or
// finishes the catch-up when the need has disappeared.
func (n *Node) sendCatchupReq() {
	c := n.catch
	if c == nil {
		return
	}
	after := max(n.Applied(), c.after)
	if after >= c.target || len(c.peers) == 0 {
		// Nothing (more) to fetch — or nobody to ask: a singleton view
		// serves itself by definition of uniformity.
		n.finishCatchup()
		return
	}
	c.lastSend = time.Now()
	payload := wire.EncodeCatchupReq(&wire.CatchupReq{After: after, UpTo: c.target})
	_ = n.tr.Send(c.peers[c.idx], payload) // silence heals via tick retry
}

// finishCatchup releases the live stream.
func (n *Node) finishCatchup() {
	if n.catch != nil {
		n.log.Info("catch-up finish",
			"epoch", n.CurrentView().ID, "after", n.catch.after, "target", n.catch.target)
	}
	n.catch = nil
	n.outMu.Lock()
	if n.catching {
		n.catching = false
		n.outCond.Signal()
	}
	n.outMu.Unlock()
}

// tickCatchup retries a stalled transfer: the serving peer may have
// crashed (rotate to the next candidate) or may itself still be applying
// the range we need (ask again).
func (n *Node) tickCatchup(now time.Time) {
	c := n.catch
	if c == nil || now.Sub(c.lastSend) < n.cfg.ChangeTimeout {
		return
	}
	if n.Applied() >= c.target {
		n.finishCatchup()
		return
	}
	if n.catchBacklog() >= catchupMaxBacklog {
		return // still draining the last pages; check again next tick
	}
	if len(c.peers) > 1 {
		c.idx = (c.idx + 1) % len(c.peers)
	}
	n.sendCatchupReq()
}

// serveCatchup answers a peer's request for recovered history out of this
// node's durable log. The log maintains a simple invariant — WriteSnapshot
// removes every entry at or below the snapshot, so retained entries are
// complete above the latest snapshot and the snapshot covers everything
// below it. Serving therefore needs no gap heuristics (entry sequence
// numbers are sparse — one entry per message, keyed by its final
// segment): a requester below the snapshot gets the snapshot plus the
// entries above it, anyone else gets entries only. This runs on the event
// loop: the page caps (and the log's resume hint) bound the synchronous
// disk work per request, a deliberate trade against the complexity of an
// off-loop serving goroutine.
func (n *Node) serveCatchup(from ProcID, req *wire.CatchupReq) {
	if n.wlog == nil {
		_ = n.tr.Send(from, wire.EncodeCatchupResp(&wire.CatchupResp{Unavailable: true}))
		return
	}
	resp := &wire.CatchupResp{UpTo: req.UpTo, Ceiling: n.catchupCeiling()}
	after := req.After
	if snap, ok := n.wlog.LatestSnapshot(); ok && snap.Seq > after {
		resp.HasSnapshot = true
		resp.SnapSeq = snap.Seq
		resp.Snapshot = snap.Data
		after = snap.Seq
	}
	if after < req.UpTo {
		entries, more, err := n.wlog.ReadFrom(after, req.UpTo, catchupMaxEntries, catchupMaxBytes)
		if err != nil {
			n.fail(err) // local disk corruption is fatal (fail-stop)
			return
		}
		resp.More = more
		resp.Entries = make([]wire.CatchupEntry, len(entries))
		for i, e := range entries {
			resp.Entries[i] = wire.CatchupEntry{
				Seq:       e.Seq,
				Origin:    ProcID(e.Origin),
				LogicalID: e.LogicalID,
				Payload:   e.Payload,
			}
		}
	}
	_ = n.tr.Send(from, wire.EncodeCatchupResp(resp))
}

// catchupCeiling computes the authority bound this node can attach to a
// catch-up response: the highest sequence number below which every entry
// that will EVER exist is already in its durable log. With the delivery
// pipeline fully drained (no buffered deliveries, no batch mid-persist, no
// catch-up of its own) that is everything below the engine's delivery
// cursor — sequence numbers under it with no log entry were consumed by
// segments of broadcasts that never completed anywhere (an origin crashed
// mid-message) and are permanently dead. With work still in flight the
// node vouches only for what it has applied. Event-loop context.
func (n *Node) catchupCeiling() uint64 {
	n.outMu.Lock()
	idle := len(n.outBuf) == 0 && len(n.catchBuf) == 0 && !n.catching && !n.pumpBusy
	n.outMu.Unlock()
	// Deliveries still buffered inside the engine (produced by earlier
	// frames of this drain batch, not yet pulled by deliver) are in-flight
	// work too: vouching past them would declare entries dead that are
	// minutes — or microseconds — from existing.
	if idle && n.engine.PendingDeliveries() == 0 {
		return n.engine.NextDeliver() - 1
	}
	return n.Applied()
}

// handleCatchupResp feeds one page of recovered history to the pump and
// drives the transfer forward.
func (n *Node) handleCatchupResp(from ProcID, resp *wire.CatchupResp) {
	c := n.catch
	if c == nil || len(c.peers) == 0 || from != c.peers[c.idx] {
		return // stale response from an earlier attempt
	}
	if resp.Unavailable {
		c.unavail++
		if c.unavail >= len(c.peers) {
			// Nobody in the view keeps history: proceed with the gap, the
			// documented semantics of joining without a state transfer.
			n.finishCatchup()
			return
		}
		c.idx = (c.idx + 1) % len(c.peers)
		n.sendCatchupReq()
		return
	}
	c.unavail = 0
	var items []catchItem
	if resp.HasSnapshot && resp.SnapSeq > c.after {
		items = append(items, catchItem{snap: &wal.Snapshot{Seq: resp.SnapSeq, Data: resp.Snapshot}})
		c.after = resp.SnapSeq
	}
	for i := range resp.Entries {
		e := &resp.Entries[i]
		items = append(items, catchItem{msg: Message{
			Seq:       e.Seq,
			Origin:    e.Origin,
			LogicalID: e.LogicalID,
			Payload:   e.Payload,
		}})
		if e.Seq > c.after {
			c.after = e.Seq
		}
	}
	if len(items) > 0 {
		n.outMu.Lock()
		n.catchBuf = append(n.catchBuf, items...)
		n.outCond.Signal()
		n.outMu.Unlock()
	}
	switch {
	case c.after >= c.target:
		n.finishCatchup()
	case resp.More:
		if n.catchBacklog() < catchupMaxBacklog {
			n.sendCatchupReq()
		}
		// Else: backpressure — the tick resumes paging once the pump has
		// worked through the buffered history.
	case resp.UpTo >= c.target && resp.Ceiling >= c.target:
		// The server handed over everything it holds in a range covering
		// our whole target (resp.UpTo guards against this page answering an
		// earlier, shorter request — the target can grow while a request is
		// in flight) and is authoritative through it: the sequence numbers
		// still missing are dead (segments of broadcasts that never
		// completed), not late. Waiting for them would wedge this node
		// forever.
		n.finishCatchup()
	default:
		// The peer has served everything it holds but the target is still
		// ahead (it is applying the same traffic we are waiting for); the
		// tick retries shortly.
	}
}

// catchBacklog reports how many recovered messages await the pump.
func (n *Node) catchBacklog() int {
	n.outMu.Lock()
	defer n.outMu.Unlock()
	return len(n.catchBuf)
}

// closeDeliveries wakes the delivery pump for shutdown.
func (n *Node) closeDeliveries() {
	n.outMu.Lock()
	n.outDone = true
	n.outCond.Signal()
	n.outMu.Unlock()
}

// deliveryPump moves reassembled messages from the unbounded buffer to
// the node's three outputs — the durable log, the state machine and the
// committed Log every subscriber reads — so slow consumers cannot stall
// the protocol loop. Each batch is persisted (one fsync) before any of it
// becomes visible: nothing an application ever observed can be lost by a
// crash.
//
// While a catch-up transfer is in flight the live stream is held back and
// only recovered history (catchBuf) is applied, so neither the state
// machine nor a subscriber ever sees the order with a gap.
func (n *Node) deliveryPump() {
	defer n.wg.Done()
	for {
		n.outMu.Lock()
		for !n.pumpReadyLocked() && !n.outDone && !n.snapPend {
			n.outCond.Wait()
		}
		recovered := n.catchBuf
		n.catchBuf = nil
		var live []Message
		if !n.catching {
			live = n.outBuf
			n.outBuf = nil
		}
		done := n.outDone
		forceSnap := n.snapPend
		n.snapPend = false
		n.pumpBusy = len(recovered) > 0 || len(live) > 0
		n.recovering = len(recovered) > 0
		n.outMu.Unlock()
		if len(recovered) == 0 && len(live) == 0 && !forceSnap {
			if done {
				return
			}
			continue
		}
		if err := n.applyBatch(recovered, live, forceSnap); err != nil {
			n.fail(err)
			return
		}
	}
}

// pumpReadyLocked reports whether the pump has something processable.
// Callers hold outMu.
func (n *Node) pumpReadyLocked() bool {
	return len(n.catchBuf) > 0 || (!n.catching && len(n.outBuf) > 0)
}

// applyBatch runs one pump batch through the durability pipeline: open
// each message's envelope (filtering duplicate client publishes out of the
// order — a deterministic decision, every member's index evolves from the
// same applied prefix), append every surviving message to the Log and fold
// it into the state machine, sync the Log once — a member acknowledges what
// it commits, so the batch is durable before it is visible — commit the
// batch (which moves the applied frontier and wakes subscribers), then
// acknowledge the batch's publishes — a PUBACK to a client, the Receipt of
// a local one; the only place either kind resolves — fan it out to attached
// subscribers and take a snapshot if the cadence is due.
//
// Recovered history and live messages are merged by sequence number (both
// streams arrive ascending), so the state machine always sees the total
// order: a view change can leave not-yet-applied live deliveries below the
// recovered range in flight. Where the streams overlap the first copy is
// applied and the other is skipped by the cursor. Pump goroutine only.
func (n *Node) applyBatch(recovered []catchItem, live []Message, forceSnap bool) error {
	cursor := n.Applied()         // only this goroutine moves it
	entries := n.batchScratch[:0] // applied messages in final form
	var acks []pubAck
	appended := false
	snapJump := false // a snapshot transfer advanced the cursor past entries
	apply := func(m Message, isLive bool) error {
		if m.Seq <= cursor {
			// Already recovered (replay, catch-up overlap, or inside a
			// transferred snapshot). A local publish is committed all the
			// same, and this copy may be the only one the pump ever sees.
			if m.Origin == n.cfg.Self {
				acks = append(acks, pubAck{cid: m.Origin, pub: m.LogicalID, seq: m.Seq})
			}
			return nil
		}
		// Live messages carry the ring envelope; recovered history arrives
		// in final form from a peer's (already filtered) log.
		final, dup, ack := n.sess.classify(m, isLive)
		if ack != nil {
			acks = append(acks, *ack)
		}
		cursor = m.Seq
		if dup {
			return nil // duplicate client publish: filtered from the order
		}
		entry := wire.ClientEventEntry{
			Seq:     final.Seq,
			Origin:  final.Origin,
			Logical: final.LogicalID,
			Payload: final.Payload,
		}
		if err := n.clog.Append(entry); err != nil {
			return err
		}
		appended = true
		if n.sm != nil {
			n.sm.Apply(final)
		}
		n.sinceSnap++
		entries = append(entries, entry)
		return nil
	}
	applyRecovered := func(it catchItem) error {
		if it.snap == nil {
			return apply(it.msg, false)
		}
		if it.snap.Seq <= cursor {
			return nil // stale transfer; local state is already past it
		}
		// A transferred snapshot is node-level: publish index + app state.
		idxBytes, app := openSnapshot(it.snap.Data)
		if idxBytes != nil {
			n.sess.restoreIndex(idxBytes)
		}
		if n.sm != nil {
			if err := n.sm.Restore(app); err != nil {
				return fmt.Errorf("fsr: restore transferred snapshot at %d: %w", it.snap.Seq, err)
			}
		}
		if err := n.clog.InstallSnapshot(it.snap.Seq, it.snap.Data); err != nil {
			return err
		}
		cursor = it.snap.Seq
		snapJump = true
		n.sinceSnap = 0
		return nil
	}
	ri, li := 0, 0
	for ri < len(recovered) || li < len(live) {
		// A snapshot transfer always goes first: live messages at or below
		// its seq are part of the state it carries, and applying them first
		// would push the cursor past the snapshot, discarding the transfer
		// and leaving the gap below it unfilled forever.
		takeLive := li < len(live) &&
			(ri == len(recovered) ||
				(recovered[ri].snap == nil && live[li].Seq <= recovered[ri].msg.Seq))
		if takeLive {
			if err := apply(live[li], true); err != nil {
				return err
			}
			li++
			continue
		}
		if err := applyRecovered(recovered[ri]); err != nil {
			return err
		}
		ri++
	}
	if appended {
		if err := n.clog.Sync(); err != nil {
			return err
		}
	}
	// Batch durable: make it visible (entries and frontier together, so no
	// pager sees one without the other), then acknowledge the publishes it
	// committed — PUBACKs queued to the per-client writers, never blocking
	// the pump; a local Receipt resolved unless shutdown or eviction failed
	// it first — and fan it out to attached subscribers, one encode for
	// all of them. A snapshot transfer has no entry stream for
	// the range it covers, so it first demotes every attached subscription
	// to pager catch-up, which serves the snapshot.
	n.clog.Commit(entries, cursor)
	n.outMu.Lock()
	n.pumpBusy, n.recovering = false, false // applied now covers the batch
	n.outMu.Unlock()
	for _, a := range acks {
		if a.cid != n.cfg.Self {
			n.srv.Ack(a.cid, a.pub, a.seq)
		} else if r := n.sess.takeLocal(a.pub); r != nil {
			r.resolve(a.seq)
		}
	}
	if snapJump {
		n.srv.DetachAll()
	}
	n.srv.PublishTail(entries)
	n.batchScratch = entries
	if n.wlog != nil && n.sm != nil &&
		(n.sinceSnap >= n.cfg.SnapshotEvery || (forceSnap && cursor > 0)) {
		data, err := n.sm.Snapshot()
		if err != nil {
			return fmt.Errorf("fsr: state machine snapshot: %w", err)
		}
		if err := n.wlog.WriteSnapshot(cursor, wrapSnapshot(n.sess.snapshotIndex(), data)); err != nil {
			return err
		}
		n.sinceSnap = 0
	}
	return nil
}
