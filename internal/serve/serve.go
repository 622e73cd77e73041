// Package serve implements the serving half of the KindClient session
// protocol — HELLO/PUBLISH/SUBSCRIBE in, PUBACK/EVENT/REDIRECT out — as a
// host-independent engine shared by ring members (fsr.Node) and read-only
// edge replicas (package edge). The host supplies the committed order
// through the Source interface and decides what a PUBLISH means (members
// dedup and broadcast; edges redirect to a writable member); everything
// else — subscription paging, snapshot fallback, redirects, keepalives,
// per-client transmit queues — is served here, identically on both hosts.
//
// # Encode-once fan-out
//
// Historically every subscriber cost a private pager and a private EVENT
// encode: fan-out was O(subscribers × bytes) of marshaling per committed
// offset, all funneled through blocking transport writes. This package
// splits serving into two regimes:
//
//   - Catch-up: a per-subscription pager goroutine pages the host's
//     committed order (its Log) from the subscription's cursor. This is
//     the cold path — it exists only while a subscriber is behind.
//   - Tail: once a pager reaches the applied frontier it ATTACHes its
//     subscription to the shared tail. From then on each committed batch
//     is marshaled exactly once into a pooled EVENT frame whose bytes are
//     enqueued to every attached client — O(1) encode + O(subscribers)
//     queue pushes per offset, with the frame buffer refcounted back into
//     the pool after the last writer drains it.
//
// # Slow-subscriber isolation
//
// Every client owns a bounded transmit queue drained by a dedicated
// writer goroutine, so one stalled socket never blocks the host's event
// loop, the delivery pump, or any other subscriber. When a tail push
// finds the queue full the client is DETACHed: it keeps the frames
// already queued (the stream stays gap-free), reverts to pager catch-up,
// and re-attaches when it is caught up again. Acks, redirects and
// keepalives are dropped on overflow instead (the client's retry/probe
// machinery is the backpressure); protocol markers (attach/detach) are
// never dropped.
package serve

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsr/internal/deque"
	"fsr/internal/ring"
	"fsr/internal/wire"
	"fsr/transport"
)

// ProcID identifies one process, re-exported so hosts don't need the
// internal ring package spelled out.
type ProcID = ring.ProcID

// MaxPageEntries and MaxPageBytes bound one page read from a Source, for
// remote pagers and in-process subscribers alike (mirroring the catch-up
// transfer's bounds).
const (
	MaxPageEntries = 256
	MaxPageBytes   = 1 << 20
)

// Pacing bounds.
const (
	keepalive = time.Second
	// defaultQueueCap bounds one client's transmit queue, in frames. At
	// the default page bounds that is plenty of runway for a healthy
	// client and a firm cap on what a stalled one can pin.
	defaultQueueCap = 256
	// writerBatch is how many queued frames one writer drains per
	// transport operation (a single vectored write on TCP).
	writerBatch = 32
)

// Page is one page of a subscription stream read from the host.
type Page struct {
	// Snap, when non-nil, is an application snapshot at SnapSeq replacing
	// the truncated prefix of the order.
	Snap    []byte
	SnapSeq uint64
	// Entries are committed messages in seq order.
	Entries []wire.ClientEventEntry
	// Cursor is the subscription cursor after consuming the page.
	Cursor uint64
	// BelowHorizon reports that the host cannot serve offsets this old.
	BelowHorizon bool
}

// Source is the host's committed order as the serving layer consumes it.
// All methods must be safe from any goroutine.
type Source interface {
	// Applied returns the applied frontier (highest servable offset).
	Applied() uint64
	// ReadCommitted pages the order in (cursor, applied].
	ReadCommitted(cursor, applied uint64, maxEntries, maxBytes int) (Page, error)
	// Watch returns a channel closed when the frontier next advances past
	// what Applied reported at the time of the call.
	Watch() <-chan struct{}
}

// Config wires a Server to its host.
type Config struct {
	// Transport sends frames to clients (by their transport ProcID).
	Transport transport.Transport
	// Source is the committed order being served.
	Source Source
	// Publish, when non-nil, handles one PUBLISH frame; it runs on
	// whatever goroutine called Handle and must not block. When nil the
	// host is read-only: publishes answer RedirectNotWritable.
	Publish func(from ProcID, p *wire.ClientPublish)
	// Redirect supplies the group coordinates for REDIRECT frames: the
	// current members (leader first), optionally their dialable
	// addresses, and the applied frontier.
	Redirect func() (members []ProcID, addrs []string, applied uint64)
	// QueueCap overrides the per-client transmit queue bound (frames).
	QueueCap int
	// Logger receives structured serving events (slow-subscriber
	// detaches). Nil discards them.
	Logger *slog.Logger
}

// Stats is a point-in-time census of the serving layer.
type Stats struct {
	Clients      int    // live client links
	EdgeClients  int    // links that announced RoleEdge
	Subs         int    // live subscriptions (paging + attached)
	TailAttached int    // subscriptions fed by the shared tail
	TailFrames   uint64 // encode-once tail frames published
	TailDetaches uint64 // clients demoted to catch-up by a full queue
	NotWritable  uint64 // publishes answered with RedirectNotWritable
}

// Server serves the client sub-protocol for one host.
type Server struct {
	cfg      Config
	queueCap int
	stopc    chan struct{}
	wg       sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	clients  map[ProcID]*clientOut
	subs     map[subKey]*sub
	tails    map[ProcID]*clientOut // clients with >= 1 attached subscription
	frontier uint64                // highest offset published to the shared tail

	tailFrames   uint64
	tailDetaches uint64
	notWritable  uint64

	log *slog.Logger
}

type subKey struct {
	cid ProcID
	sub uint64
}

// New builds a Server and starts its keepalive ticker. The host must call
// Shutdown (then Wait) to release it.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		queueCap: cfg.QueueCap,
		stopc:    make(chan struct{}),
		clients:  make(map[ProcID]*clientOut),
		subs:     make(map[subKey]*sub),
		tails:    make(map[ProcID]*clientOut),
		log:      cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if s.queueCap <= 0 {
		s.queueCap = defaultQueueCap
	}
	s.wg.Add(1)
	go s.keepaliveLoop()
	return s
}

// --- Per-client transmit queue --------------------------------------------

// outItem is one queued frame: either an exclusive payload or a shared
// refcounted tail frame.
type outItem struct {
	payload []byte
	tail    *tailFrame
}

// tailFrame is one encode-once EVENT frame shared by every attached
// client. The pooled buffer returns to the pool when the last holder
// releases it.
type tailFrame struct {
	buf  *wire.Buf
	last uint64 // highest Seq in the frame
	refs atomic.Int32
}

func (f *tailFrame) release() {
	if f.refs.Add(-1) == 0 {
		wire.PutBuf(f.buf)
		f.buf = nil
	}
}

// clientOut is one client link: a bounded frame queue drained by a
// dedicated writer goroutine, so a stalled socket stalls only itself.
type clientOut struct {
	s  *Server
	id ProcID

	mu       sync.Mutex
	cond     *sync.Cond
	q        deque.Deque[outItem]
	dead     bool
	tailSent uint64 // highest tail offset ever enqueued on this link
	edge     bool   // announced RoleEdge in HELLO
	ver      byte   // wire version the client announced (0 before HELLO)

	attached map[uint64]*sub // subscriptions fed by the tail (guarded by Server.mu)
}

// pushDrop enqueues a best-effort frame (ack, redirect, keepalive),
// dropping it when the queue is full — the client's retry and probe
// machinery is the backpressure.
func (o *clientOut) pushDrop(payload []byte) {
	o.mu.Lock()
	if !o.dead && o.q.Len() < o.s.queueCap {
		o.q.PushBack(outItem{payload: payload})
		o.cond.Broadcast()
	}
	o.mu.Unlock()
}

// pushForced enqueues a protocol frame that must not be dropped
// (attach/detach markers, cannot-serve). The queue cap is soft for these:
// marker volume is bounded by the protocol itself. False means the link
// is dead.
func (o *clientOut) pushForced(payload []byte) bool {
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return false
	}
	o.q.PushBack(outItem{payload: payload})
	o.cond.Broadcast()
	o.mu.Unlock()
	return true
}

// pushTail enqueues one shared tail frame. False means the link is dead
// or the queue is full — the caller detaches the client. Called with
// Server.mu held.
func (o *clientOut) pushTail(f *tailFrame) bool {
	o.mu.Lock()
	if o.dead || o.q.Len() >= o.s.queueCap {
		o.mu.Unlock()
		return false
	}
	f.refs.Add(1)
	o.q.PushBack(outItem{tail: f})
	o.tailSent = f.last
	o.cond.Broadcast()
	o.mu.Unlock()
	return true
}

// pushWait enqueues a pager page, blocking while the queue is full. False
// means the link died or the subscription was cancelled while waiting.
func (o *clientOut) pushWait(payload []byte, cancel <-chan struct{}) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.dead || chanClosed(cancel) || chanClosed(o.s.stopc) {
			return false
		}
		if o.q.Len() < o.s.queueCap {
			o.q.PushBack(outItem{payload: payload})
			o.cond.Broadcast()
			return true
		}
		o.cond.Wait()
	}
}

func chanClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// writer drains the queue to the transport. It is the only goroutine that
// writes to this client, so a blocking socket write delays exactly one
// subscriber. A failed write declares the link dead (the client redials
// and re-homes its session).
func (o *clientOut) writer() {
	defer o.s.wg.Done()
	var (
		items    []outItem
		payloads [][]byte
	)
	for {
		o.mu.Lock()
		for o.q.Len() == 0 && !o.dead {
			o.cond.Wait()
		}
		if o.dead {
			for o.q.Len() > 0 {
				if it := o.q.PopFront(); it.tail != nil {
					it.tail.release()
				}
			}
			o.mu.Unlock()
			return
		}
		items = items[:0]
		for o.q.Len() > 0 && len(items) < writerBatch {
			items = append(items, o.q.PopFront())
		}
		o.cond.Broadcast() // space freed: wake blocked pagers
		o.mu.Unlock()

		// Batch contract: buffers stay ours after the call, so the pooled
		// tail frames are shared with zero copies.
		payloads = payloads[:0]
		for _, it := range items {
			if it.tail != nil {
				payloads = append(payloads, it.tail.buf.B)
			} else {
				payloads = append(payloads, it.payload)
			}
		}
		err := o.s.cfg.Transport.SendBatch(o.id, payloads)
		for _, it := range items {
			if it.tail != nil {
				it.tail.release()
			}
		}
		if err != nil {
			o.s.dropClient(o)
			return
		}
	}
}

// --- Frame dispatch --------------------------------------------------------

// Handle serves one inbound KindClient payload. It never blocks on a
// client: every reply is queued for the client's writer. Safe from any
// goroutine; malformed input is dropped (clients are outside the trust
// boundary).
func (s *Server) Handle(from ProcID, payload []byte) {
	msg, err := wire.DecodeClient(payload)
	if err != nil {
		return
	}
	switch v := msg.(type) {
	case *wire.ClientHello:
		o := s.getClient(from)
		if o == nil {
			return
		}
		if !wire.CompatibleVersion(v.Version) {
			// Major-incompatible client: refuse the session outright. The
			// BYE still decodes on any version (the redirect envelope is
			// stable across majors by policy), so the client learns why.
			s.log.Warn("serve: rejected incompatible-version client",
				"client", from,
				"major", wire.VersionMajor(v.Version), "minor", wire.VersionMinor(v.Version))
			o.pushDrop(s.redirect(wire.RedirectBye, 0))
			return
		}
		o.mu.Lock()
		o.ver = v.Version
		o.edge = o.edge || v.Role == wire.RoleEdge
		o.mu.Unlock()
		o.pushDrop(s.redirect(wire.RedirectWelcome, 0))
	case *wire.ClientPublish:
		o := s.getClient(from)
		if o == nil {
			return
		}
		if s.cfg.Publish == nil {
			s.mu.Lock()
			s.notWritable++
			s.mu.Unlock()
			o.pushDrop(s.redirect(wire.RedirectNotWritable, 0))
			return
		}
		s.cfg.Publish(from, v)
	case *wire.ClientSubscribe:
		s.handleSubscribe(from, v)
	}
}

// getClient returns the link state for a client, creating it (and its
// writer) on first contact. Nil after shutdown.
func (s *Server) getClient(from ProcID) *clientOut {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	o := s.clients[from]
	if o == nil {
		o = &clientOut{s: s, id: from, attached: make(map[uint64]*sub)}
		o.cond = sync.NewCond(&o.mu)
		s.clients[from] = o
		s.wg.Add(1)
		go o.writer()
	}
	return o
}

// Ack queues one PUBACK (dropped if the client's queue is full or the
// link is gone — the client's ack-timeout retry is the backpressure).
func (s *Server) Ack(cid ProcID, pubID, seq uint64) {
	s.mu.Lock()
	o := s.clients[cid]
	s.mu.Unlock()
	if o != nil {
		o.pushDrop(wire.EncodeClientPubAck(&wire.ClientPubAck{PubID: pubID, Seq: seq}))
	}
}

// NotifyAll queues a session-wide redirect to every client (view change,
// goodbye).
func (s *Server) NotifyAll(reason byte) {
	s.mu.Lock()
	clients := make([]*clientOut, 0, len(s.clients))
	for _, o := range s.clients {
		clients = append(clients, o)
	}
	s.mu.Unlock()
	for _, o := range clients {
		payload := s.redirect(reason, 0)
		if reason == wire.RedirectBye {
			o.pushForced(payload)
		} else {
			o.pushDrop(payload)
		}
	}
}

// redirect builds one REDIRECT frame from the host's current coordinates.
func (s *Server) redirect(reason byte, sub uint64) []byte {
	members, addrs, applied := s.cfg.Redirect()
	return wire.EncodeClientRedirect(&wire.ClientRedirect{
		Reason:  reason,
		Applied: applied,
		Members: members,
		Addrs:   addrs,
		Sub:     sub,
	})
}

// dropClient forgets a dead link: its subscriptions are cancelled, queued
// frames released, blocked pagers woken. The client re-HELLOs on redial.
func (s *Server) dropClient(o *clientOut) {
	s.mu.Lock()
	if s.clients[o.id] == o {
		delete(s.clients, o.id)
		delete(s.tails, o.id)
		for key, u := range s.subs {
			if key.cid == o.id {
				u.cancelLocked()
				delete(s.subs, key)
			}
		}
	}
	s.mu.Unlock()
	o.mu.Lock()
	o.dead = true
	for o.q.Len() > 0 {
		if it := o.q.PopFront(); it.tail != nil {
			it.tail.release()
		}
	}
	o.cond.Broadcast()
	o.mu.Unlock()
}

// --- Subscriptions ---------------------------------------------------------

// sub is one remote subscription. Until it catches up it is served by a
// pager goroutine; once caught up it attaches to the shared tail and the
// goroutine retires. attached and cursor-at-rest are guarded by
// Server.mu; cursor is otherwise private to the pager goroutine.
type sub struct {
	s        *Server
	key      subKey
	out      *clientOut
	cursor   uint64
	cancel   chan struct{}
	attached bool // fed by the tail (guarded by Server.mu)
	done     bool // cancel already closed (guarded by Server.mu)
}

func (u *sub) cancelLocked() {
	if !u.done {
		u.done = true
		close(u.cancel)
	}
	if u.attached {
		u.attached = false
		delete(u.out.attached, u.key.sub)
		if len(u.out.attached) == 0 {
			delete(u.s.tails, u.out.id)
		}
	}
	// Wake a pager blocked in pushWait on this link.
	u.out.mu.Lock()
	u.out.cond.Broadcast()
	u.out.mu.Unlock()
}

// handleSubscribe starts, re-homes or cancels one subscription.
func (s *Server) handleSubscribe(from ProcID, v *wire.ClientSubscribe) {
	o := s.getClient(from)
	if o == nil {
		return
	}
	key := subKey{cid: from, sub: v.SubID}
	s.mu.Lock()
	if old := s.subs[key]; old != nil {
		old.cancelLocked()
		delete(s.subs, key)
	}
	if v.Cancel {
		s.mu.Unlock()
		return
	}
	u := &sub{s: s, key: key, out: o, cancel: make(chan struct{})}
	if v.From == 0 {
		u.cursor = s.cfg.Source.Applied()
	} else {
		u.cursor = v.From - 1
	}
	s.subs[key] = u
	s.mu.Unlock()
	s.wg.Add(1)
	go u.run()
}

// run pages the committed order from the subscription's cursor until the
// subscription is cancelled, the link dies — or the pager reaches the
// applied frontier and hands the subscription to the shared tail.
func (u *sub) run() {
	defer u.s.wg.Done()
	defer u.unregister()
	src := u.s.cfg.Source
	for {
		if chanClosed(u.cancel) || chanClosed(u.s.stopc) {
			return
		}
		// The channel first, then the frontier: a batch committed between
		// the two closes the channel already held.
		moved := src.Watch()
		applied := src.Applied()
		if u.cursor >= applied {
			if u.tryAttach() {
				return // the shared tail owns the subscription now
			}
			select {
			case <-moved:
			case <-time.After(keepalive):
				u.out.pushDrop(wire.EncodeClientEvent(&wire.ClientEvent{Sub: u.key.sub}))
			case <-u.cancel:
				return
			case <-u.s.stopc:
				return
			}
			continue
		}
		page, err := src.ReadCommitted(u.cursor, applied, MaxPageEntries, MaxPageBytes)
		if err != nil {
			return // the host is failing (disk); the client fails over
		}
		if page.BelowHorizon {
			u.out.pushForced(u.s.redirect(wire.RedirectCannotServe, u.key.sub))
			return
		}
		ev := &wire.ClientEvent{Sub: u.key.sub, Entries: page.Entries}
		if page.Snap != nil {
			ev.HasSnapshot = true
			ev.SnapSeq = page.SnapSeq
			ev.Snapshot = page.Snap
		}
		if !u.out.pushWait(wire.EncodeClientEvent(ev), u.cancel) {
			return
		}
		u.cursor = page.Cursor
	}
}

// tryAttach promotes a caught-up subscription to the shared tail: an
// ATTACH marker is queued and from then on the client folds tail frames
// into this subscription. Attachment requires the tail frontier to be at
// or behind the pager's cursor — checked under Server.mu, the same lock
// PublishTail holds — so the first tail frame after the marker is
// contiguous with (or overlaps, deduped by cursor client-side) the paged
// prefix.
func (u *sub) tryAttach() bool {
	s := u.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.subs[u.key] != u || u.done {
		return false
	}
	if s.frontier > u.cursor {
		return false // the tail ran ahead; page the gap first
	}
	if !u.out.pushForced(wire.EncodeClientEvent(&wire.ClientEvent{Sub: u.key.sub, Attach: true})) {
		return false // link dead; dropClient cancels us shortly
	}
	u.attached = true
	u.out.attached[u.key.sub] = u
	s.tails[u.out.id] = u.out
	return true
}

// unregister removes the subscription if this pager still owns it (an
// attached subscription belongs to the tail and stays registered).
func (u *sub) unregister() {
	s := u.s
	s.mu.Lock()
	if s.subs[u.key] == u && !u.attached {
		delete(s.subs, u.key)
	}
	s.mu.Unlock()
}

// --- The shared tail -------------------------------------------------------

// PublishTail fans one committed batch (entries in seq order, contiguous
// with every previous call) out to all attached clients: one encode into
// a pooled frame, one queue push per client. A client whose queue is full
// is detached — it keeps what is queued, gets a DETACH marker, and its
// subscriptions resume as pagers from the last offset enqueued, so the
// stream stays gap-free while the slow link catches up at its own pace.
//
// The host must call PublishTail from a single goroutine (the delivery
// pump / tail loop), in frontier order, after the batch is covered by
// Source.Applied.
func (s *Server) PublishTail(entries []wire.ClientEventEntry) {
	if len(entries) == 0 {
		return
	}
	last := entries[len(entries)-1].Seq
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frontier = last
	if len(s.tails) == 0 || s.closed {
		return
	}
	s.tailFrames++
	buf := wire.GetBuf()
	buf.B = wire.AppendClientEvent(buf.B[:0], &wire.ClientEvent{Tail: true, Entries: entries})
	f := &tailFrame{buf: buf, last: last}
	f.refs.Store(1) // our hold, released below
	for _, o := range s.tails {
		if !o.pushTail(f) {
			s.detachLocked(o)
		}
	}
	f.release()
}

// DetachAll demotes every attached client to pager catch-up. The host
// calls it when the committed order advanced without an entry stream (a
// snapshot transfer): the pagers serve the snapshot, then re-attach.
func (s *Server) DetachAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.tails {
		s.detachLocked(o)
	}
}

// detachLocked demotes a client from the tail to pager catch-up. Called
// with Server.mu held.
func (s *Server) detachLocked(o *clientOut) {
	s.tailDetaches++
	delete(s.tails, o.id)
	// The DETACH marker is forced: FIFO ordering means every tail frame
	// already queued (<= tailSent) reaches the client before it, so
	// resuming the pagers from tailSent leaves no gap.
	alive := o.pushForced(wire.EncodeClientEvent(&wire.ClientEvent{Detach: true}))
	o.mu.Lock()
	resume := o.tailSent
	o.mu.Unlock()
	s.log.Warn("slow subscriber detached",
		"client", uint32(o.id), "resume_seq", resume, "subs", len(o.attached))
	for _, u := range o.attached {
		u.attached = false
		u.cursor = max(u.cursor, resume)
		delete(o.attached, u.key.sub)
		if alive {
			s.wg.Add(1)
			go u.run()
		}
	}
}

// --- Keepalive -------------------------------------------------------------

// keepaliveLoop proves liveness to attached clients: pager-served
// subscriptions get keepalives from their pager, but an attached client
// on an idle order would otherwise hear nothing and probe out.
func (s *Server) keepaliveLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(keepalive)
	defer tick.Stop()
	frame := wire.EncodeClientEvent(&wire.ClientEvent{Tail: true})
	for {
		select {
		case <-tick.C:
		case <-s.stopc:
			return
		}
		s.mu.Lock()
		outs := make([]*clientOut, 0, len(s.tails))
		for _, o := range s.tails {
			outs = append(outs, o)
		}
		s.mu.Unlock()
		for _, o := range outs {
			o.pushDrop(frame)
		}
	}
}

// --- Lifecycle & stats -----------------------------------------------------

// Shutdown stops serving: subscriptions are cancelled, writers told to
// die, queued frames dropped. It does not wait — writers may be blocked
// in a transport write; close the transport, then Wait.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopc)
	for _, u := range s.subs {
		u.cancelLocked()
	}
	clients := make([]*clientOut, 0, len(s.clients))
	for _, o := range s.clients {
		clients = append(clients, o)
	}
	s.mu.Unlock()
	for _, o := range clients {
		o.mu.Lock()
		o.dead = true
		for o.q.Len() > 0 {
			if it := o.q.PopFront(); it.tail != nil {
				it.tail.release()
			}
		}
		o.cond.Broadcast()
		o.mu.Unlock()
	}
}

// Wait joins the server's goroutines. Call after Shutdown — and after
// closing the transport, which unblocks writers stuck in socket writes.
func (s *Server) Wait() { s.wg.Wait() }

// Stats returns a point-in-time census.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Clients:      len(s.clients),
		Subs:         len(s.subs),
		TailFrames:   s.tailFrames,
		TailDetaches: s.tailDetaches,
		NotWritable:  s.notWritable,
	}
	for _, o := range s.clients {
		st.TailAttached += len(o.attached)
		o.mu.Lock()
		if o.edge {
			st.EdgeClients++
		}
		o.mu.Unlock()
	}
	return st
}
