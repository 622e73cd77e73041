// Package core implements the FSR protocol engine — the paper's primary
// contribution: a uniform total order broadcast combining a fixed sequencer
// (the ring leader) with ring dissemination (every process only sends to its
// ring successor).
//
// The engine is a pure state machine. It never touches the network or the
// clock; a runtime wrapper (realtime goroutine pump, or the discrete-event
// network simulator) feeds it inbound frames via HandleFrame and drains
// outbound frames via NextFrame whenever the link to the successor is free.
// This makes every protocol rule directly unit-testable and lets the exact
// same code run under goroutines, TCP, and the simulated cluster.
//
// Protocol recap (paper §4). A broadcast from ring position s
// proceeds in three passes, all clockwise:
//
//	pass A: raw body s -> 0 (skipped when the leader broadcasts)
//	pass B: leader assigns seq; (id, seq, body) 0 -> s-1;
//	        a receiver at position j >= t delivers immediately
//	pass C: small ack from p(s-1), hop budget ring.AckHops(s); a recipient
//	        delivers when the ack is stable (has passed pt)
//
// Deliveries always happen in strict sequence-number order through a cursor,
// so out-of-order eligibility can never violate total order.
package core

import (
	"errors"
	"fmt"

	"fsr/internal/deque"
	"fsr/internal/ring"
	"fsr/internal/wire"
)

// View is one installed membership epoch: an identifier plus the ring built
// from the agreed member order (position 0 is the leader).
type View struct {
	ID   uint64
	Ring *ring.Ring
}

// Delivery is one TO-delivered segment, reported in total order.
type Delivery struct {
	Seq   uint64     // global sequence number (contiguous from 1 per epoch)
	ID    wire.MsgID // segment identity (origin + origin-local counter)
	Part  uint32     // segment index within the logical message
	Parts uint32     // total segments of the logical message
	Body  []byte     // segment payload; owned by the receiver after delivery
}

// Config carries the per-process protocol parameters.
type Config struct {
	// Self is this process's ID. Must be a member of the initial view.
	Self ring.ProcID
	// SegmentSize is the maximum body size of one segment. Larger
	// application messages are split so that uniform segment sizes keep
	// big messages from stalling small ones (paper §4.1). Defaults to
	// DefaultSegmentSize.
	SegmentSize int
	// MaxPiggyback bounds how many acks ride on one outbound frame
	// (paper §4.2.2). Defaults to DefaultMaxPiggyback.
	MaxPiggyback int
	// MaxFrameData bounds how many data segments one outbound frame
	// carries. The fairness rule is applied per slot, so own/relay
	// interleaving within a batched frame is exactly the sequence the
	// single-segment engine would have sent; batching only amortizes the
	// per-frame overhead (headers, syscalls, per-hop fixed receive cost)
	// across segments. 1 reproduces the paper's one-segment-per-frame
	// behavior. Defaults to DefaultMaxFrameData.
	MaxFrameData int
	// DeliveredBuffer is how many recently delivered segments are retained
	// for view-change recovery (a survivor may need to re-supply segments
	// that slower members have not delivered yet). Defaults to
	// DefaultDeliveredBuffer.
	DeliveredBuffer int
	// StartDeliver, when > 0, is the first sequence number this process
	// will deliver. A fresh process starts at 1; a process restarted from
	// a durable log passes lastApplied+1 so the engine never re-delivers
	// what the application already holds (the gap below an installed
	// view's sync base is filled by the node's catch-up transfer, not by
	// the engine).
	StartDeliver uint64
	// StartLocal is the initial value of the origin-local segment counter
	// backing MsgIDs. A restarted process passes a fresh incarnation band
	// (derived from its durable generation counter) so segment IDs minted
	// after the crash can never collide with IDs the previous incarnation
	// used — some of which may still live in survivors' recovery buffers.
	StartLocal uint64
}

// Defaults for Config fields left zero.
const (
	DefaultSegmentSize     = 8192
	DefaultMaxPiggyback    = 64
	DefaultMaxFrameData    = 8
	DefaultDeliveredBuffer = 4096
)

func (c Config) withDefaults() Config {
	if c.SegmentSize <= 0 {
		c.SegmentSize = DefaultSegmentSize
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = DefaultMaxPiggyback
	}
	if c.MaxFrameData <= 0 {
		c.MaxFrameData = DefaultMaxFrameData
	}
	if c.DeliveredBuffer <= 0 {
		c.DeliveredBuffer = DefaultDeliveredBuffer
	}
	return c
}

// Errors reported by the engine.
var (
	// ErrNotMember is returned when Self is not in the installed view.
	ErrNotMember = errors.New("core: process is not a member of the view")
	// ErrStopped is returned by Broadcast after Stop.
	ErrStopped = errors.New("core: engine stopped")
)

// Stats counts engine activity; read via Engine.Stats for tests and metrics.
type Stats struct {
	FramesIn       uint64
	FramesOut      uint64
	DataIn         uint64
	AcksIn         uint64
	Sequenced      uint64 // leader only: segments assigned a sequence number
	Delivered      uint64
	StaleFrames    uint64 // frames dropped because of a view mismatch
	RelayedData    uint64
	OwnSent        uint64
	FairnessSkips  uint64 // relay items sent ahead of an own message by the fairness rule
	StandaloneAcks uint64 // frames that carried only acks (low-load path)
	MultiSegFrames uint64 // outbound frames that batched more than one data segment
}

// msgState is the per-segment protocol state at one process.
type msgState struct {
	id        wire.MsgID
	seq       uint64 // 0 while unknown at this process
	part      uint32
	parts     uint32
	body      []byte
	haveBody  bool
	eligible  bool // uniform-stability established; deliver when in order
	delivered bool
	own       bool // this process is the origin
	queued    bool // own segment currently waiting in ownQ
	acksSeen  int
}

// Engine is the FSR protocol state machine for one process. It is not
// goroutine-safe; the runtime wrapper serializes access.
type Engine struct {
	cfg  Config
	view View
	self int // ring position of cfg.Self in view

	nextLocal uint64 // origin-local counter for own segments
	nextSeq   uint64 // leader only: next sequence number to assign
	nextDel   uint64 // next sequence number to deliver

	pend   map[wire.MsgID]*msgState
	bySeq  map[uint64]*msgState
	oldest uint64      // lowest seq still retained (recovery buffer floor)
	free   []*msgState // recycled state records (single-goroutine freelist)

	relayQ   relayQueue
	ownQ     deque.Deque[wire.DataItem]
	ackQ     deque.Deque[wire.AckItem]
	fwdEpoch uint64 // fairness forward-list epoch (paper §4.2.3); bumping it clears the list

	out     []Delivery // pending deliveries; drained in place, backing array reused
	stats   Stats
	stopped bool
}

// maxFreeStates bounds the msgState freelist so an idle engine does not
// pin the high-water mark of a past burst.
const maxFreeStates = 512

// NewEngine builds an engine for cfg.Self in the given initial view.
func NewEngine(cfg Config, v View) (*Engine, error) {
	cfg = cfg.withDefaults()
	pos, ok := v.Ring.Position(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("%w: id=%d", ErrNotMember, cfg.Self)
	}
	start := max(1, cfg.StartDeliver)
	return &Engine{
		cfg:       cfg,
		view:      v,
		self:      pos,
		nextLocal: cfg.StartLocal,
		nextSeq:   start,
		nextDel:   start,
		oldest:    start,
		pend:      make(map[wire.MsgID]*msgState),
		bySeq:     make(map[uint64]*msgState),
		fwdEpoch:  1,
	}, nil
}

// Self returns this process's ID.
func (e *Engine) Self() ring.ProcID { return e.cfg.Self }

// View returns the currently installed view.
func (e *Engine) View() View { return e.view }

// Position returns this process's ring position in the current view.
func (e *Engine) Position() int { return e.self }

// IsLeader reports whether this process is the fixed sequencer.
func (e *Engine) IsLeader() bool { return e.self == 0 }

// Stats returns a snapshot of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// NextDeliver returns the sequence number the next delivery will carry.
func (e *Engine) NextDeliver() uint64 { return e.nextDel }

// Stop puts the engine in a terminal state; Broadcast fails afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Broadcast enqueues payload for TO-broadcast, segmenting it into uniform
// segments. It returns the MsgID of the first segment: the logical message
// identity (segment k of the same message has Local = first.Local + k).
func (e *Engine) Broadcast(payload []byte) (wire.MsgID, error) {
	if e.stopped {
		return wire.MsgID{}, ErrStopped
	}
	segSize := e.cfg.SegmentSize
	parts := (len(payload) + segSize - 1) / segSize
	if parts == 0 {
		parts = 1 // empty payload still occupies one slot in the order
	}
	first := wire.MsgID{Origin: e.cfg.Self, Local: e.nextLocal}
	e.nextLocal += uint64(parts)
	for p := 0; p < parts; p++ {
		lo := p * segSize
		hi := min(lo+segSize, len(payload))
		id := wire.MsgID{Origin: e.cfg.Self, Local: first.Local + uint64(p)}
		st := e.ensure(id)
		st.body = payload[lo:hi]
		st.haveBody = true
		st.own = true
		st.part = uint32(p)
		st.parts = uint32(parts)
		item := wire.DataItem{
			ID: id, Part: uint32(p), Parts: uint32(parts), Body: payload[lo:hi],
		}
		if e.view.Ring.N() == 1 {
			// Degenerate single-process group: sequence and deliver now.
			e.assignSeq(st)
			st.eligible = true
			e.tryDeliver()
			continue
		}
		st.queued = true
		e.ownQ.PushBack(item)
	}
	return first, nil
}

// PendingOwn returns how many own segments are still queued for initiation.
// The runtime uses it for backpressure decisions.
func (e *Engine) PendingOwn() int { return e.ownQ.Len() }

// HasOutbound reports whether NextFrame would produce a frame.
func (e *Engine) HasOutbound() bool {
	return e.relayQ.Len() > 0 || e.ownQ.Len() > 0 || e.ackQ.Len() > 0
}

// QueueDepths reports the engine's internal queue lengths (relay, own, ack)
// for diagnostics and load monitoring.
func (e *Engine) QueueDepths() (relay, own, acks int) {
	return e.relayQ.Len(), e.ownQ.Len(), e.ackQ.Len()
}

// PendingDeliveries reports how many TO-delivered segments await a
// Deliveries call. Runtimes that vouch for the completeness of their
// durable log (catch-up serving) must treat a non-empty buffer as
// in-flight work.
func (e *Engine) PendingDeliveries() int { return len(e.out) }

// Deliveries drains and returns the segments TO-delivered since the last
// call, in total order. The returned slice is owned by the caller; hot
// runtimes use DrainDeliveries to reuse one buffer across drains.
func (e *Engine) Deliveries() []Delivery {
	if len(e.out) == 0 {
		return nil
	}
	return e.DrainDeliveries(nil)
}

// DrainDeliveries appends the segments TO-delivered since the last drain to
// dst (in total order) and returns it. The engine's internal buffer is
// reset in place, so a caller that passes dst[:0] of its previous result
// drives the delivery path with zero allocations at steady state.
func (e *Engine) DrainDeliveries(dst []Delivery) []Delivery {
	dst = append(dst, e.out...)
	clear(e.out) // release Body references; the reused array must not pin buffers
	e.out = e.out[:0]
	return dst
}

// HandleFrame processes one inbound frame from the ring predecessor.
// Frames from other views are dropped (counted in Stats.StaleFrames).
func (e *Engine) HandleFrame(f *wire.Frame) error {
	e.stats.FramesIn++
	if f.ViewID != e.view.ID {
		e.stats.StaleFrames++
		return nil
	}
	for i := range f.Data {
		if err := e.handleData(&f.Data[i]); err != nil {
			return err
		}
	}
	for i := range f.Acks {
		if err := e.handleAck(f.Acks[i]); err != nil {
			return err
		}
	}
	e.tryDeliver()
	return nil
}

// handleData processes one data segment arriving from the predecessor.
func (e *Engine) handleData(d *wire.DataItem) error {
	e.stats.DataIn++
	r := e.view.Ring
	st := e.ensure(d.ID)
	if !st.haveBody {
		st.body = d.Body
		st.haveBody = true
		st.part = d.Part
		st.parts = d.Parts
	}

	if d.Seq == 0 {
		// Pass A: raw body heading for the sequencer.
		if e.self == 0 {
			// I am the leader: assign the next sequence number and turn
			// the segment into pass B (or straight into an ack when the
			// origin is my successor, i.e. pass B would have zero hops).
			e.assignSeq(st)
			e.afterSequencing(st, d)
			return nil
		}
		// Standard/backup process: relay pass A unchanged.
		e.relayQ.push(*d)
		return nil
	}

	// Pass B: sequenced body emitted by the leader.
	if st.seq == 0 {
		e.setSeq(st, d.Seq)
	}
	if e.self >= r.T() {
		// The frame physically transited p0..p(self-1), so the leader and
		// all t backups hold it: uniform stability (paper case 1).
		st.eligible = true
	}
	sPos, ok := r.Position(d.ID.Origin)
	if !ok {
		// The origin is not in this view: a preserved segment re-emitted
		// by the new leader after a view change that excluded (crashed,
		// departed) its origin. Route it as leader-originated — every
		// member computes the same substitute position, so the pass-B stop
		// and the ack hop budget stay consistent ring-wide.
		sPos = 0
	}
	if e.self == r.SeqStopPos(sPos) {
		// Pass B ends here: originate the acknowledgment (pass C).
		e.originateAck(st, sPos)
		return nil
	}
	e.relayQ.push(*d)
	return nil
}

// afterSequencing emits the leader-side continuation for a freshly
// sequenced segment: pass B toward the backups, or directly an ack when the
// pass-B hop count is zero (origin at position 1, or the leader itself in a
// two-process ring — never here, that case goes through nextOwnItem).
func (e *Engine) afterSequencing(st *msgState, d *wire.DataItem) {
	r := e.view.Ring
	sPos, _ := r.Position(st.id.Origin)
	if r.T() == 0 {
		// With no backups the sequencer alone establishes stability.
		st.eligible = true
	}
	if r.SeqStopPos(sPos) == 0 {
		// Pass B would not leave the leader (origin is position 1):
		// originate the ack immediately.
		e.originateAck(st, sPos)
		return
	}
	item := wire.DataItem{ID: st.id, Seq: st.seq, Part: st.part, Parts: st.parts, Body: st.body}
	if d != nil {
		item.Body = d.Body
	}
	e.relayQ.push(item)
}

// originateAck creates the pass-C acknowledgment for a segment whose pass B
// terminated at this process. sPos is the origin's ring position.
func (e *Engine) originateAck(st *msgState, sPos int) {
	r := e.view.Ring
	hops := r.AckHops(sPos)
	if hops == 0 {
		return // t == 0 leader broadcast: everyone already delivered
	}
	e.ackQ.PushBack(wire.AckItem{
		ID:     st.id,
		Seq:    st.seq,
		Hops:   uint32(hops),
		Stable: r.AckStartsStable(sPos),
	})
}

// handleAck processes one pass-C acknowledgment from the predecessor.
func (e *Engine) handleAck(a wire.AckItem) error {
	e.stats.AcksIn++
	st := e.pend[a.ID]
	if st == nil || !st.haveBody {
		// Within one view every ack recipient has stored the body via pass
		// A, pass B, or its own Broadcast; anything else is a protocol bug.
		return fmt.Errorf("core: ack for unknown segment %v at position %d", a.ID, e.self)
	}
	st.acksSeen++
	if st.seq == 0 {
		e.setSeq(st, a.Seq)
	}
	if e.self >= e.view.Ring.T() {
		// Reaching a position >= t means the sequenced segment has been
		// stored by the leader and all backups (paper case 2).
		a.Stable = true
	}
	if a.Stable {
		st.eligible = true
	}
	if a.Hops > 1 {
		a.Hops--
		e.ackQ.PushBack(a)
	}
	e.maybePrune(st)
	return nil
}

// NextFrame pops the next outbound frame for the ring successor, applying
// the fairness rule per data slot and ack piggybacking. It returns false
// when the engine has nothing to send. Hot runtimes use FillFrame to reuse
// one frame across sends.
func (e *Engine) NextFrame() (*wire.Frame, bool) {
	f := &wire.Frame{}
	if !e.FillFrame(f) {
		return nil, false
	}
	return f, true
}

// FillFrame assembles the next outbound frame into f, reusing f's Data and
// Acks capacity: up to Config.MaxFrameData data segments — each slot chosen
// by the §4.2.3 fairness rule, so the batched segment sequence is exactly
// what the single-segment engine would have sent across as many frames —
// plus up to Config.MaxPiggyback acknowledgments. It reports whether f
// holds a frame worth sending.
//
// A frame closes early after carrying one own segment: the fairness rule's
// guarantees lean on the transport pacing between a process's own sends (a
// frame boundary is where freshly relayed traffic gets its turn), so own
// initiation keeps its one-per-frame cadence while relayed traffic — the
// volume that actually bounds ring throughput — batches freely.
func (e *Engine) FillFrame(f *wire.Frame) bool {
	f.ViewID = e.view.ID
	f.Data = f.Data[:0]
	f.Acks = f.Acks[:0]
	for len(f.Data) < e.cfg.MaxFrameData {
		item, own, ok := e.nextDataItem()
		if !ok {
			break
		}
		f.Data = append(f.Data, item)
		if own {
			break
		}
	}
	if len(f.Data) == 0 && e.ackQ.Len() == 0 {
		return false
	}
	if len(f.Data) == 0 {
		e.stats.StandaloneAcks++
	} else if len(f.Data) > 1 {
		e.stats.MultiSegFrames++
	}
	k := min(e.cfg.MaxPiggyback, e.ackQ.Len())
	for range k {
		f.Acks = append(f.Acks, e.ackQ.PopFront())
	}
	e.stats.FramesOut++
	e.tryDeliver() // own t==0 leader sends may have become deliverable
	return true
}

// nextDataItem implements the paper's §4.2.3 fairness rule. When an own
// message is pending, the earliest buffered relay of every origin not yet in
// the forward list is sent first; only then does the own message go out, and
// the forward list resets (one epoch bump).
func (e *Engine) nextDataItem() (item wire.DataItem, own, ok bool) {
	if e.ownQ.Len() > 0 {
		if item, ok := e.relayQ.popUnforwarded(e.fwdEpoch); ok {
			e.stats.FairnessSkips++
			e.stats.RelayedData++
			return item, false, true
		}
		item := e.ownQ.PopFront()
		e.fwdEpoch++ // reset the forward list
		e.stats.OwnSent++
		if st := e.pend[item.ID]; st != nil {
			st.queued = false
		}
		if e.self == 0 {
			// The leader sequences its own segment at initiation time.
			st := e.pend[item.ID]
			e.assignSeq(st)
			item.Seq = st.seq
			if e.view.Ring.T() == 0 {
				st.eligible = true
			}
		}
		return item, true, true
	}
	if item, ok := e.relayQ.popOldest(e.fwdEpoch); ok {
		e.stats.RelayedData++
		return item, false, true
	}
	return wire.DataItem{}, false, false
}

// assignSeq gives st the next sequence number (leader only).
func (e *Engine) assignSeq(st *msgState) {
	e.setSeq(st, e.nextSeq)
	e.nextSeq++
	e.stats.Sequenced++
}

func (e *Engine) setSeq(st *msgState, seq uint64) {
	st.seq = seq
	e.bySeq[seq] = st
}

// ensure returns the state record for id, creating (or recycling) it if
// absent.
func (e *Engine) ensure(id wire.MsgID) *msgState {
	st := e.pend[id]
	if st == nil {
		if n := len(e.free); n > 0 {
			st = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
			*st = msgState{}
		} else {
			st = &msgState{}
		}
		st.id = id
		e.pend[id] = st
	}
	return st
}

// recycle returns a state record to the freelist once neither index map
// references it anymore.
func (e *Engine) recycle(st *msgState) {
	if e.pend[st.id] == st {
		return
	}
	if s, ok := e.bySeq[st.seq]; ok && s == st {
		return
	}
	if len(e.free) < maxFreeStates {
		st.body = nil // drop the payload reference before pooling
		e.free = append(e.free, st)
	}
}

// tryDeliver delivers every contiguous eligible segment starting at the
// delivery cursor — the strict total-order gate.
func (e *Engine) tryDeliver() {
	for {
		st := e.bySeq[e.nextDel]
		if st == nil || !st.eligible || !st.haveBody || st.delivered {
			return
		}
		st.delivered = true
		e.stats.Delivered++
		e.out = append(e.out, Delivery{
			Seq: st.seq, ID: st.id, Part: st.part, Parts: st.parts, Body: st.body,
		})
		e.nextDel++
		e.maybePrune(st)
		e.gcDeliveredBuffer()
	}
}

// expectedAckReceptions returns how many times this process will receive the
// ack of a segment originated at ring position sPos (0, 1 or 2; see
// ring.AckHops — positions in [s, t-1] see a backup-sender's ack twice).
func (e *Engine) expectedAckReceptions(sPos int) int {
	r := e.view.Ring
	start := r.SeqStopPos(sPos) // ack originator's position
	hops := r.AckHops(sPos)     // number of receptions
	if hops == 0 {
		return 0
	}
	d := r.Distance(start, e.self)
	n := r.N()
	count := 0
	if d == 0 {
		d = n // the originator can only re-receive after a full loop
	}
	if d <= hops {
		count++
	}
	if d+n <= hops {
		count++
	}
	return count
}

// maybePrune drops per-segment state once this process has delivered the
// segment and seen every ack reception it will ever see. Delivered bodies
// stay in bySeq for the recovery buffer until gcDeliveredBuffer evicts them.
func (e *Engine) maybePrune(st *msgState) {
	if !st.delivered {
		return
	}
	sPos, ok := e.view.Ring.Position(st.id.Origin)
	if !ok {
		return // origin left in a view change; recovery state handles it
	}
	if st.acksSeen >= e.expectedAckReceptions(sPos) {
		delete(e.pend, st.id)
		e.recycle(st)
	}
}

// gcDeliveredBuffer bounds how many delivered segments stay addressable by
// sequence number for view-change recovery.
func (e *Engine) gcDeliveredBuffer() {
	limit := uint64(e.cfg.DeliveredBuffer)
	for e.nextDel-e.oldest > limit {
		if st, ok := e.bySeq[e.oldest]; ok && st.delivered {
			delete(e.bySeq, e.oldest)
			e.recycle(st)
		}
		e.oldest++
	}
}
