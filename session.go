package fsr

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsr/internal/wire"
)

// Offset is a position in the delivered total order: the sequence number a
// message was committed at. Offsets are strictly increasing but sparse —
// multi-segment messages consume several protocol sequence numbers, and a
// deduplicated client publish consumes one without producing a message —
// so consumers resume with "last offset seen + 1", never by arithmetic.
type Offset = uint64

// ClientIDBase splits the process ID space: IDs at or above it identify
// session clients (non-member publishers/subscribers), IDs below it ring
// members. A client keeps one ID for its lifetime — it is the dedup
// identity that makes publish retries across member crashes idempotent —
// and IDs must be unique across concurrently live clients.
const ClientIDBase ProcID = 1 << 31

// Session is the one way to use the total order, in process or remote.
//
// A Session decouples consuming the order from being a ring member: ring
// members get one with Node.Session, and non-member clients get the
// identical interface from client.Dial (over TCP) or Cluster.Dial (over
// any ClusterTransport) — examples, tests and applications are written
// once against it. Remote sessions survive the serving member crashing:
// publishes are retried idempotently against another member and
// subscriptions resume from their last offset, gap-free.
type Session interface {
	// Publish submits one payload for uniform total order broadcast. It
	// returns once the session has accepted the message — publishes are
	// pipelined, and Publish blocks (honoring ctx) only while the
	// session's in-flight window is full. The payload has been copied by
	// then (the session's one copy of it, straight into the frame it
	// sends): the caller may reuse the buffer as soon as Publish returns.
	// The Receipt resolves when the message is committed — uniformly
	// delivered, durable at the serving member and applied there — with
	// Seq reporting its offset, so Seq() <= that member's Applied() and a
	// subscription to it already sees the message. That holds for every
	// Session alike: a member commits an in-process publish through the
	// same pipeline, to the same point, as a remote one. Remote sessions
	// deliver each accepted publish exactly once even across member
	// crashes and redirects (client-assigned IDs make retries idempotent).
	Publish(ctx context.Context, payload []byte) (*Receipt, error)

	// Subscribe streams the committed order as (offset, message) pairs,
	// starting at the first message with offset >= from; from == 0 means
	// the live tail (whatever commits next). The stream is gap-free: it
	// replays the committed history from the serving member's durable log
	// and then follows the live order, resuming across reconnects to a
	// different member. A consumer resuming below the group's log
	// truncation point first receives a state snapshot: a pair whose
	// Message has Snapshot == true, Payload holding the application
	// snapshot that covers every message up to its offset.
	//
	// Payloads are handed out without a copy: on a remote session the
	// messages of one EVENT frame (up to a page: 256 messages or 1 MiB)
	// are disjoint, capacity-limited slices of that frame's receive
	// buffer, so appending to or overwriting one never reaches a
	// neighbour — but retaining one keeps the whole frame alive. Clone a
	// payload before keeping it for long. Two subscriptions of the same
	// session that follow the live tail are fed from the same frames and
	// see the same bytes, as do all in-process subscribers of one member;
	// a consumer that modifies payloads in place needs a session of its
	// own.
	//
	// The iterator blocks while the order is idle and returns when ctx is
	// done, the session closes, or the subscription becomes permanently
	// unserviceable (check Err).
	Subscribe(ctx context.Context, from Offset) iter.Seq2[Offset, Message]

	// Err reports the session's last connection-level error (nil while
	// healthy). Remote sessions keep retrying internally; Err is
	// observability, not a terminal state.
	Err() error

	// Close releases the session. In-flight publishes fail their receipts
	// with ErrStopped (the messages may or may not still commit);
	// subscription iterators return.
	Close() error
}

// --- Remote session core --------------------------------------------------

// SessionLink is one live connection from a client session to a group
// member, carrying opaque sub-protocol payloads both ways. Implementations
// must preserve FIFO order per direction (both shipped transports do).
type SessionLink interface {
	// Send queues one payload to the member; an error means the link is
	// unusable and the session fails over.
	Send(payload []byte) error
	// Close releases the link (idempotent).
	Close() error
}

// LinkDialer connects a session to the group, one member at a time. Each
// Dial call may pick a different member — that rotation is the session's
// failover path — and must install h as the inbound payload handler before
// returning. Dial is called from the session's maintenance goroutine only.
type LinkDialer interface {
	Dial(h func(payload []byte)) (SessionLink, error)
}

// SessionOptions tune a remote session. Zero values select the defaults.
type SessionOptions struct {
	// Window bounds in-flight publishes: Publish blocks once Window
	// receipts are unresolved (backpressure). Default 64.
	Window int
	// AckTimeout is how long a publish may stay unacknowledged before the
	// session assumes the serving member is gone and fails over. Default 2s.
	AckTimeout time.Duration
	// ProbeTimeout is how long a subscription may go without any frame
	// (the server keepalives idle subscriptions) before failover.
	// Default 3s.
	ProbeTimeout time.Duration
	// RedialBackoff paces reconnection attempts while no member is
	// reachable. Default 50ms.
	RedialBackoff time.Duration
	// OnClose, when set, runs after the session shuts down — the hook for
	// releasing a transport endpoint owned by the dialer.
	OnClose func()
	// Edge announces the session as an edge replica in its HELLO
	// (wire.RoleEdge). Serving members expose the count in Metrics; the
	// protocol is otherwise identical.
	Edge bool
}

// WritableAdvertiser is an optional LinkDialer capability: a dialer that
// implements it is told which processes accept publishes when the session
// is redirected off a read-only edge replica (RedirectNotWritable), so
// its rotation can prefer writable members on the reconnect that follows.
// Members is the redirecting node's member list (transport IDs); Addrs,
// when present, carries their dialable addresses in the same order.
type WritableAdvertiser interface {
	NeedWritable(members []ProcID, addrs []string)
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 3 * time.Second
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 50 * time.Millisecond
	}
	return o
}

// ErrNoMembers is returned by DialSession when no group member answered
// the initial connection round.
var ErrNoMembers = errors.New("fsr: no group member reachable")

// subEventBuffer is each subscription's client-side delivery buffer; a
// full buffer backpressures the link (the server's pacing follows).
const subEventBuffer = 256

// initialDialAttempts bounds the first connection round of DialSession, so
// a fully unreachable group fails fast instead of retrying forever.
const initialDialAttempts = 8

// DialSession runs the client side of the session sub-protocol over links
// from d: pipelined idempotent publishes with a bounded in-flight window,
// offset-resumable subscriptions, and automatic failover to another member
// when the serving one crashes, leaves or redirects. Most callers want the
// ready-made dialers instead: client.Dial (TCP) or Cluster.Dial.
func DialSession(d LinkDialer, opts SessionOptions) (Session, error) {
	s := &remoteSession{
		dialer: d,
		opts:   opts.withDefaults(),
		pubs:   make(map[uint64]*pendingPub),
		subs:   make(map[uint64]*remoteSub),
		kick:   make(chan uint64, 1),
		closed: make(chan struct{}),
	}
	s.window = make(chan struct{}, s.opts.Window)
	s.nextPub = 1
	s.nextSub = 1
	if !s.connect(0, initialDialAttempts) {
		err := s.Err()
		if err == nil {
			err = ErrNoMembers
		}
		return nil, fmt.Errorf("%w: %v", ErrNoMembers, err)
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// remoteSession is the client half of the session sub-protocol.
type remoteSession struct {
	dialer LinkDialer
	opts   SessionOptions

	mu      sync.Mutex
	link    SessionLink // nil while failing over
	linkGen uint64      // bumped per installed link
	pubs    map[uint64]*pendingPub
	nextPub uint64
	subs    map[uint64]*remoteSub
	nextSub uint64
	lastErr error

	// sendMu serializes publish transmission with a failover's pending
	// replay: members must observe one client's PubIDs in order (the
	// dedup floor and the per-origin FIFO guarantee are phrased over it),
	// so a fresh Publish may not overtake older pending publishes that a
	// reconnect is still re-sending.
	sendMu sync.Mutex

	window    chan struct{} // in-flight publish slots
	kick      chan uint64   // failover requests, tagged with the failed gen
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// lastContact is the unix-nano timestamp of the newest inbound frame
	// (events, acks, keepalives alike) — the upstream-liveness signal an
	// edge replica's readiness probe reads via LastContact.
	lastContact atomic.Int64
}

// LastContact reports when the session last heard anything from the
// member serving it (the zero time before first contact). Server
// keepalives arrive every second on an attached idle subscription, so a
// stale LastContact means the upstream link is genuinely out.
func (s *remoteSession) LastContact() time.Time {
	ns := s.lastContact.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

type pendingPub struct {
	id uint64
	// payload is the tail of the PUBLISH frame first sent for this publish
	// — the session's one copy of the caller's bytes. A failover re-encodes
	// from it; the header in front of it is never read again (over a
	// shared-memory transport the serving member rewrites it in place).
	payload []byte
	r       *Receipt
	sentAt  time.Time
}

// remoteSub is one client-side subscription.
type remoteSub struct {
	id      uint64
	from    uint64 // the original From (0 = live tail)
	cursor  uint64 // highest offset delivered to the consumer
	last    time.Time
	ch      chan subDelivery
	done    chan struct{} // closed when the iterator stops
	deadc   chan struct{} // closed when permanently unserviceable
	dead    bool          // deadc closed (guarded by the session mu)
	strikes int           // consecutive cannot-serve rounds
	// attached marks the subscription as fed by the link's shared tail
	// frames (between an ATTACH marker and a DETACH or reconnect);
	// guarded by the session mu and meaningful for the current link only.
	attached bool
	// evMu serializes EVENT processing for this subscription: during a
	// failover the superseded member's stream can race the new one (each
	// connection delivers from its own goroutine), and the duplicate
	// filter's check-then-deliver must not interleave.
	evMu sync.Mutex
}

type subDelivery struct {
	off uint64
	msg Message
}

// Publish implements Session.
func (s *remoteSession) Publish(ctx context.Context, payload []byte) (*Receipt, error) {
	select {
	case s.window <- struct{}{}:
	case <-s.closed:
		return nil, ErrStopped
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	id := s.nextPub
	s.nextPub++
	frame := wire.EncodeClientPublish(&wire.ClientPublish{PubID: id, Payload: payload})
	p := &pendingPub{
		id:      id,
		payload: frame[wire.ClientPublishHeader:],
		r:       newReceipt(),
		sentAt:  time.Now(),
	}
	s.pubs[id] = p
	s.mu.Unlock()
	// sendMu orders this transmission behind any in-flight failover
	// replay of older PubIDs; the link is re-read under it so a link
	// installed by that replay is used (our pub registered after its
	// snapshot would otherwise never be sent).
	s.sendMu.Lock()
	s.mu.Lock()
	link, gen := s.link, s.linkGen
	s.mu.Unlock()
	var err error
	if link != nil {
		err = link.Send(frame)
	}
	s.sendMu.Unlock()
	if err != nil {
		s.failover(gen, err)
	}
	// A nil link means a failover is in flight; its reconnection resends
	// every pending publish, this one included.
	return p.r, nil
}

// Subscribe implements Session.
func (s *remoteSession) Subscribe(ctx context.Context, from Offset) iter.Seq2[Offset, Message] {
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	sub := &remoteSub{
		id:    id,
		from:  from,
		last:  time.Now(),
		ch:    make(chan subDelivery, subEventBuffer),
		done:  make(chan struct{}),
		deadc: make(chan struct{}),
	}
	s.subs[id] = sub
	link, gen := s.link, s.linkGen
	s.mu.Unlock()
	if link != nil {
		if err := link.Send(wire.EncodeClientSubscribe(&wire.ClientSubscribe{SubID: id, From: from})); err != nil {
			s.failover(gen, err)
		}
	}
	return func(yield func(Offset, Message) bool) {
		defer s.dropSub(sub)
		for {
			select {
			case d := <-sub.ch:
				if !yield(d.off, d.msg) {
					return
				}
			case <-sub.deadc:
				return // permanently unserviceable (see Err)
			case <-ctx.Done():
				return
			case <-s.closed:
				return
			}
		}
	}
}

// dropSub unregisters a finished subscription and tells the member.
func (s *remoteSession) dropSub(sub *remoteSub) {
	close(sub.done)
	s.mu.Lock()
	delete(s.subs, sub.id)
	link := s.link
	s.mu.Unlock()
	if link != nil {
		_ = link.Send(wire.EncodeClientSubscribe(&wire.ClientSubscribe{SubID: sub.id, Cancel: true}))
	}
}

// Err implements Session.
func (s *remoteSession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Close implements Session.
func (s *remoteSession) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mu.Lock()
		link := s.link
		s.link = nil
		pubs := s.pubs
		s.pubs = make(map[uint64]*pendingPub)
		s.mu.Unlock()
		if link != nil {
			_ = link.Close()
		}
		for _, p := range pubs {
			p.r.fail(ErrStopped)
		}
	})
	s.wg.Wait()
	if s.opts.OnClose != nil {
		s.opts.OnClose()
		s.opts.OnClose = nil
	}
	return nil
}

// failover schedules a reconnection if gen is still the live link.
func (s *remoteSession) failover(gen uint64, err error) {
	s.mu.Lock()
	if err != nil {
		s.lastErr = err
	}
	stale := gen != s.linkGen
	s.mu.Unlock()
	if stale {
		return
	}
	select {
	case s.kick <- gen:
	default: // a failover is already queued
	}
}

// run is the session's maintenance goroutine: it owns reconnection and the
// ack/probe timeouts.
func (s *remoteSession) run() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.AckTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case gen := <-s.kick:
			s.connect(gen, 0)
		case now := <-tick.C:
			if gen, stale := s.stale(now); stale {
				s.connect(gen, 0)
			}
		case <-s.closed:
			return
		}
	}
}

// stale reports whether the live link has timed-out work: a publish past
// AckTimeout or a subscription silent past ProbeTimeout.
func (s *remoteSession) stale(now time.Time) (gen uint64, stale bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen = s.linkGen
	if s.link == nil {
		return gen, false // already failing over
	}
	for _, p := range s.pubs {
		if now.Sub(p.sentAt) > s.opts.AckTimeout {
			return gen, true
		}
	}
	for _, sub := range s.subs {
		if !sub.dead && now.Sub(sub.last) > s.opts.ProbeTimeout {
			return gen, true
		}
	}
	return gen, false
}

// connect replaces the link of generation gen with a fresh one: dial (with
// rotation — each Dial may pick a different member), HELLO, then re-send
// every pending publish in order and re-subscribe every live subscription
// from its cursor. maxAttempts bounds the dial loop (0 = until Close).
// It reports whether a link was installed.
func (s *remoteSession) connect(gen uint64, maxAttempts int) bool {
	s.mu.Lock()
	if gen != s.linkGen {
		s.mu.Unlock()
		return true // a newer link is already up
	}
	old := s.link
	s.link = nil
	newGen := s.linkGen + 1
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	for attempt := 0; maxAttempts == 0 || attempt < maxAttempts; attempt++ {
		select {
		case <-s.closed:
			return false
		default:
		}
		if attempt > 0 {
			select {
			case <-time.After(s.opts.RedialBackoff):
			case <-s.closed:
				return false
			}
		}
		link, err := s.dialer.Dial(func(payload []byte) { s.handleFrame(newGen, payload) })
		if err != nil {
			s.noteErr(err)
			continue
		}
		hello := &wire.ClientHello{}
		if s.opts.Edge {
			hello.Role = wire.RoleEdge
		}
		if err := link.Send(wire.EncodeClientHello(hello)); err != nil {
			_ = link.Close()
			s.noteErr(err)
			continue
		}
		// Install, then replay session state through the new member. State
		// changed while dialing is covered either way: a pub/sub registered
		// before the install is in the snapshot below; one registered after
		// sees the installed link and sends for itself — behind sendMu, so
		// it cannot overtake the replay of older PubIDs.
		now := time.Now()
		s.sendMu.Lock()
		s.mu.Lock()
		s.link = link
		s.linkGen = newGen
		s.lastErr = nil
		pubs := make([]*pendingPub, 0, len(s.pubs))
		for _, p := range s.pubs {
			p.sentAt = now
			pubs = append(pubs, p)
		}
		subs := make([]*wire.ClientSubscribe, 0, len(s.subs))
		for _, sub := range s.subs {
			// Tail attachment is per-link state: the new member re-attaches
			// after its own pager catches this subscription up.
			sub.attached = false
			if sub.dead {
				continue
			}
			sub.last = now
			subs = append(subs, &wire.ClientSubscribe{SubID: sub.id, From: sub.resumeFrom()})
		}
		s.mu.Unlock()
		// Publishes must reach the member in PubID order: the per-client
		// FIFO guarantee (and the dedup floor) is phrased over it.
		slices.SortFunc(pubs, func(a, b *pendingPub) int {
			return int(a.id) - int(b.id)
		})
		ok := true
		for _, p := range pubs {
			if err := link.Send(wire.EncodeClientPublish(&wire.ClientPublish{PubID: p.id, Payload: p.payload})); err != nil {
				s.noteErr(err)
				ok = false
				break
			}
		}
		s.sendMu.Unlock()
		if ok {
			for _, sb := range subs {
				if err := link.Send(wire.EncodeClientSubscribe(sb)); err != nil {
					s.noteErr(err)
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
		gen = newGen // this link failed mid-replay; rotate again
		s.mu.Lock()
		if s.linkGen == newGen {
			s.link = nil
		}
		s.mu.Unlock()
		_ = link.Close()
		newGen++
	}
	return false
}

// resumeFrom computes the offset a re-subscription must restart at.
// Callers hold mu.
func (r *remoteSub) resumeFrom() uint64 {
	if r.cursor > 0 {
		return r.cursor + 1
	}
	return r.from
}

func (s *remoteSession) noteErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// handleFrame processes one inbound payload. Frames from a superseded link
// are still meaningful — a commit acknowledged by the old member is
// committed, and a subscription stream stays gap-free under duplicate
// service (each stream is individually gap-free and monotone; entries at
// or below the cursor are dropped) — so gen only scopes failover triggers.
func (s *remoteSession) handleFrame(gen uint64, payload []byte) {
	msg, err := wire.DecodeClient(payload)
	if err != nil {
		return // not ours / corrupt: ignore
	}
	s.lastContact.Store(time.Now().UnixNano())
	switch v := msg.(type) {
	case *wire.ClientPubAck:
		s.mu.Lock()
		p, ok := s.pubs[v.PubID]
		if ok {
			delete(s.pubs, v.PubID)
		}
		s.mu.Unlock()
		if ok {
			p.r.resolve(v.Seq)
			<-s.window // release the in-flight slot
		}
	case *wire.ClientEvent:
		s.handleEvent(gen, v)
	case *wire.ClientRedirect:
		switch v.Reason {
		case wire.RedirectBye:
			s.failover(gen, fmt.Errorf("fsr: serving member said goodbye"))
		case wire.RedirectCannotServe:
			s.cannotServe(gen, v.Sub)
		case wire.RedirectNotWritable:
			// A read-only edge replica refused a publish: tell the dialer
			// who is writable and reconnect there (pending publishes are
			// replayed on the new link). Subscriber-only sessions never
			// publish, so they stay pinned to the edge tier.
			if wa, ok := s.dialer.(WritableAdvertiser); ok {
				wa.NeedWritable(v.Members, v.Addrs)
			}
			s.failover(gen, fmt.Errorf("fsr: serving node is read-only; moving to a writable member"))
		default:
			// Welcome / view change: informational (the dialer's rotation
			// is the discovery mechanism) — except that a welcome from a
			// major-incompatible server means this link cannot be trusted
			// to frame events correctly; fail over and let the dialer find
			// a same-major member.
			if v.Reason == wire.RedirectWelcome && !wire.CompatibleVersion(v.Version) {
				s.failover(gen, fmt.Errorf("fsr: server speaks wire version %d.%d, client speaks %d.x",
					wire.VersionMajor(v.Version), wire.VersionMinor(v.Version), wire.ProtoMajor))
			}
		}
	}
}

// handleEvent folds one EVENT page into its subscription — or, for
// tail/marker frames, into the link's attached-subscription state.
func (s *remoteSession) handleEvent(gen uint64, e *wire.ClientEvent) {
	if e.Tail || e.Attach || e.Detach {
		s.handleTailFrame(gen, e)
		return
	}
	s.mu.Lock()
	sub := s.subs[e.Sub]
	if sub != nil {
		sub.last = time.Now()
		sub.strikes = 0 // the subscription is being served again
		if sub.dead {
			sub = nil // it has been declared unserviceable; drop the stream
		}
	}
	s.mu.Unlock()
	if sub == nil {
		return // cancelled (or a stale stream after re-subscribe elsewhere)
	}
	s.foldPage(sub, e)
}

// handleTailFrame processes the shared-tail side of the protocol. Unlike
// per-subscription pages — which are safe to fold from a superseded link
// (each stream is individually gap-free and the cursor dedups) — tail
// frames and attach/detach markers are meaningful only on the link that
// sent them: an old link's ATTACH must not make this session fold the NEW
// link's tail into a subscription its pager is still catching up.
func (s *remoteSession) handleTailFrame(gen uint64, e *wire.ClientEvent) {
	s.mu.Lock()
	if gen != s.linkGen {
		s.mu.Unlock()
		return
	}
	now := time.Now()
	if e.Attach {
		if sub := s.subs[e.Sub]; sub != nil && !sub.dead {
			sub.attached = true
			sub.last = now
			sub.strikes = 0
		}
		s.mu.Unlock()
		return
	}
	if e.Detach {
		// The server demoted this whole link to catch-up paging.
		for _, sub := range s.subs {
			sub.attached = false
		}
		s.mu.Unlock()
		return
	}
	// A tail batch (or, with no entries, the attached-mode keepalive):
	// every attached subscription receives the same page, deduped by its
	// own cursor.
	targets := make([]*remoteSub, 0, len(s.subs))
	for _, sub := range s.subs {
		if sub.attached && !sub.dead {
			sub.last = now
			sub.strikes = 0
			targets = append(targets, sub)
		}
	}
	s.mu.Unlock()
	if len(e.Entries) == 0 {
		return
	}
	for _, sub := range targets {
		s.foldPage(sub, e)
	}
}

// foldPage delivers one EVENT page to one subscription, deduping against
// its cursor.
func (s *remoteSession) foldPage(sub *remoteSub, e *wire.ClientEvent) {
	sub.evMu.Lock()
	defer sub.evMu.Unlock()
	s.mu.Lock()
	cursor := sub.cursor
	s.mu.Unlock()
	// Under evMu the cursor only advances through this function, so
	// tracking it locally across the page is safe (deliver writes it back
	// per accepted pair).
	if e.HasSnapshot && e.SnapSeq > cursor {
		m := Message{
			Seq:      e.SnapSeq,
			Snapshot: true,
			Payload:  e.Snapshot,
		}
		if !s.deliver(sub, e.SnapSeq, m) {
			return
		}
		cursor = e.SnapSeq
	}
	for i := range e.Entries {
		en := &e.Entries[i]
		if en.Seq <= cursor {
			continue // duplicate from a superseded stream
		}
		m := Message{
			Seq:       en.Seq,
			Origin:    en.Origin,
			LogicalID: en.Logical,
			Payload:   en.Payload,
		}
		if !s.deliver(sub, en.Seq, m) {
			return
		}
		cursor = en.Seq
	}
}

// deliver hands one pair to the subscription's iterator, advancing the
// cursor. A full buffer blocks — backpressuring this link — until the
// consumer drains, the iterator stops, or the session closes.
func (s *remoteSession) deliver(sub *remoteSub, off uint64, m Message) bool {
	select {
	case sub.ch <- subDelivery{off: off, msg: m}:
		s.mu.Lock()
		if off > sub.cursor {
			sub.cursor = off
		}
		s.mu.Unlock()
		return true
	case <-sub.done:
		return false
	case <-sub.deadc:
		return false
	case <-s.closed:
		return false
	}
}

// cannotServe handles a member that cannot satisfy a subscription's
// offset: rotate and retry elsewhere; a subscription no member can serve
// (bounded by cannotServeLimit rounds) ends its iterator.
const cannotServeLimit = 8

func (s *remoteSession) cannotServe(gen uint64, subID uint64) {
	s.mu.Lock()
	sub := s.subs[subID]
	var dead bool
	if sub != nil && !sub.dead {
		sub.strikes++
		if sub.strikes >= cannotServeLimit {
			sub.dead = true
			dead = true
		}
	}
	s.mu.Unlock()
	if sub == nil {
		return
	}
	if dead {
		s.noteErr(fmt.Errorf("fsr: subscription %d from offset %d: no member retains that history", subID, sub.from))
		close(sub.deadc)
		return
	}
	s.failover(gen, fmt.Errorf("fsr: member cannot serve subscription from offset %d", sub.from))
}
