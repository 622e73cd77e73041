package fsr

import (
	"log/slog"
	"time"

	"fsr/internal/core"
	"fsr/internal/serve"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// --- Catch-up: fetching the missed suffix of the total order -------------
//
// A durable node that rejoins behind the group (its WAL ends at K, the
// installed view's sync starts at S > K+1) owes its state machine the
// messages in between — they are uniform, every survivor delivered them,
// but the ring will never carry them again. The node asks the current
// members (leader first) for that range, applies the transferred history
// through the same durable pipeline as live traffic, and only then lets
// the live stream flow.

// catchupMaxBacklog pauses page requests while this many recovered
// messages await the (fsync-bound) pump, so a long transfer over a fast
// link cannot buffer the whole missed history in memory; the tick resumes
// paging once the pump drains. One page carries at most
// serve.MaxPageEntries messages and serve.MaxPageBytes of payload, so
// serving a restarted peer never monopolizes the event loop or produces an
// oversized transport frame.
const catchupMaxBacklog = 4096

// catchItem is one piece of recovered history traveling from the event
// loop (which receives catch-up responses) to the delivery pump (which owns
// all durable state): either a full state transfer or one message.
type catchItem struct {
	snap *wal.Snapshot // state transfer; nil for a message
	msg  Message
}

// catchState tracks an in-flight catch-up transfer.
type catchState struct {
	epoch    uint64    // view the transfer was (re)started in, for logs
	target   uint64    // catch-up is done once applied/after reaches this
	peers    []ProcID  // candidate servers, current view order, self excluded
	idx      int       // peer currently being asked
	after    uint64    // highest seq handed to the pump so far
	unavail  int       // consecutive "no durable log" answers
	lastSend time.Time // for timeout-driven retry/rotation
}

// catchup is the KindCatchup sub-protocol, both halves: the client that
// fetches a hole in this member's order and the server that answers peers
// out of the durable log. It is sans-IO and owned by the event loop: it
// reaches the member only through the values it is built with, is handed
// the time by its caller, and starts no goroutine.
type catchup struct {
	self    ProcID
	timeout time.Duration // a silent peer is asked again, or rotated away from, after this
	wlog    *wal.Log      // nil without a durable directory: nothing to fetch or serve
	pump    *pump         // where recovered history goes, and the live-stream hold
	send    func(to ProcID, payload []byte)
	applied func() uint64 // the applied frontier
	// settled reports the engine's delivery cursor and whether every
	// delivery below it has left the engine.
	settled func() (uint64, bool)
	log     *slog.Logger

	c *catchState // nil: no transfer in flight
}

// inFlight reports whether a transfer is in flight — the loop's question
// for the publish gate and the ceiling. Whether the member is still
// catching up is the pump's to answer (pump.catchingUp).
func (cu *catchup) inFlight() bool { return cu.c != nil }

// refresh runs at every view install. A hole exists exactly when the sync
// base passed this node's delivery cursor (prevNext < sync.StartSeq):
// messages in [prevNext, StartSeq) were delivered by the group while this
// process was down — it rejoined or was freshly admitted below the base —
// and will never arrive through ring traffic. The preserved sequenced run
// at or above the base is NOT a hole even though installing it advances
// NextDeliver: those segments sit in the engine's delivery buffer on their
// way to this node's own pump. (Treating that advance as a hole would, on a
// view change landing mid-traffic, hold every survivor's pump for a
// transfer no peer can serve — nobody has applied the in-flight run yet —
// deadlocking the whole group; the chaos harness finds this within
// seconds.) Ordinary pump lag is likewise not a hole. When a catch-up is
// already in flight, the peer set is refreshed so a crashed server is
// abandoned.
//
// An ephemeral member fetches nothing: it returns the seq its subscriber
// horizon must rise to (0 for none), so offset subscriptions into the
// prefix it skipped are redirected to a member that has it.
func (cu *catchup) refresh(v core.View, sync *core.Sync, prevNext uint64, now time.Time) (horizon uint64) {
	base := sync.StartSeq
	if cu.wlog == nil {
		if base > prevNext && base > 0 {
			return base - 1
		}
		return 0
	}
	if base <= prevNext && cu.c == nil {
		return 0 // base did not pass the cursor: nothing is missing
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
	if cu.c == nil {
		if cu.applied() >= target {
			return 0 // the skipped range was already applied before the crash
		}
		cu.c = &catchState{after: cu.applied()}
	}
	c := cu.c
	c.epoch = v.ID
	c.target = max(c.target, target)
	c.peers = cu.peersOf(v)
	c.idx = 0
	c.unavail = 0
	cu.pump.hold(true)
	cu.log.Info("catch-up start",
		"epoch", v.ID, "after", c.after, "target", c.target, "peers", len(c.peers))
	cu.request(now)
	return 0
}

// extend raises the catch-up horizon to cover a message the assembler had
// to drop (pump.deliver found the hole and already holds the live stream).
func (cu *catchup) extend(target uint64, v core.View, now time.Time) {
	if cu.c == nil {
		cu.c = &catchState{epoch: v.ID, after: cu.applied(), peers: cu.peersOf(v)}
		cu.log.Info("catch-up start",
			"epoch", v.ID, "after", cu.c.after, "target", target,
			"peers", len(cu.c.peers), "reason", "assembler hole")
	}
	cu.c.target = max(cu.c.target, target)
	cu.request(now)
}

// peersOf lists the candidate catch-up servers: the view's members in ring
// order (leader first), excluding self.
func (cu *catchup) peersOf(v core.View) []ProcID {
	var peers []ProcID
	for _, p := range v.Ring.Members() {
		if p != cu.self {
			peers = append(peers, p)
		}
	}
	return peers
}

// request asks the current candidate peer for the next page, or finishes
// the catch-up when the need has disappeared.
func (cu *catchup) request(now time.Time) {
	c := cu.c
	if c == nil {
		return
	}
	after := max(cu.applied(), c.after)
	if after >= c.target || len(c.peers) == 0 {
		// Nothing (more) to fetch — or nobody to ask: a singleton view
		// serves itself by definition of uniformity.
		cu.finish()
		return
	}
	c.lastSend = now
	cu.send(c.peers[c.idx], wire.EncodeCatchupReq(&wire.CatchupReq{After: after, UpTo: c.target}))
}

// finish ends the transfer and releases the live stream.
func (cu *catchup) finish() {
	if c := cu.c; c != nil {
		cu.log.Info("catch-up finish", "epoch", c.epoch, "after", c.after, "target", c.target)
	}
	cu.c = nil
	cu.pump.hold(false)
}

// tick retries a stalled transfer: the serving peer may have crashed
// (rotate to the next candidate) or may itself still be applying the range
// we need (ask again).
func (cu *catchup) tick(now time.Time) {
	c := cu.c
	if c == nil || now.Sub(c.lastSend) < cu.timeout {
		return
	}
	if cu.applied() >= c.target {
		cu.finish()
		return
	}
	if cu.pump.backlog() >= catchupMaxBacklog {
		return // still draining the last pages; check again next tick
	}
	if len(c.peers) > 1 {
		c.idx = (c.idx + 1) % len(c.peers)
	}
	cu.request(now)
}

// handle dispatches one KindCatchup payload. An error is fatal to the
// member: a corrupt frame, or its own durable log failing a read.
func (cu *catchup) handle(from ProcID, payload []byte, now time.Time) error {
	msg, err := wire.DecodeCatchup(payload)
	if err != nil {
		return err
	}
	switch v := msg.(type) {
	case *wire.CatchupReq:
		return cu.serve(from, v)
	case *wire.CatchupResp:
		cu.receive(from, v, now)
	}
	return nil
}

// serve answers a peer's request for recovered history out of this node's
// durable log. The log maintains a simple invariant — WriteSnapshot
// removes every entry at or below the snapshot, so retained entries are
// complete above the latest snapshot and the snapshot covers everything
// below it. Serving therefore needs no gap heuristics (entry sequence
// numbers are sparse — one entry per message, keyed by its final
// segment): a requester below the snapshot gets the snapshot plus the
// entries above it, anyone else gets entries only. This runs on the event
// loop: the page caps (and the log's resume hint) bound the synchronous
// disk work per request, a deliberate trade against the complexity of an
// off-loop serving goroutine.
func (cu *catchup) serve(from ProcID, req *wire.CatchupReq) error {
	if cu.wlog == nil {
		cu.send(from, wire.EncodeCatchupResp(&wire.CatchupResp{Unavailable: true}))
		return nil
	}
	resp := &wire.CatchupResp{UpTo: req.UpTo, Ceiling: cu.ceiling()}
	after := req.After
	if snap, ok := cu.wlog.LatestSnapshot(); ok && snap.Seq > after {
		resp.HasSnapshot = true
		resp.SnapSeq = snap.Seq
		resp.Snapshot = snap.Data
		after = snap.Seq
	}
	if after < req.UpTo {
		entries, more, err := cu.wlog.ReadFrom(after, req.UpTo, serve.MaxPageEntries, serve.MaxPageBytes)
		if err != nil {
			return err // local disk corruption is fatal (fail-stop)
		}
		resp.More = more
		resp.Entries = make([]wire.ClientEventEntry, len(entries))
		for i, e := range entries {
			resp.Entries[i] = wire.ClientEventEntry{
				Seq:     e.Seq,
				Origin:  ProcID(e.Origin),
				Logical: e.LogicalID,
				Payload: e.Payload,
			}
		}
	}
	cu.send(from, wire.EncodeCatchupResp(resp))
	return nil
}

// ceiling computes the authority bound this node can attach to a catch-up
// response: the highest sequence number below which every entry that will
// EVER exist is already in its durable log. With the delivery pipeline
// fully drained (no transfer of its own in flight, nothing handed to the
// pump or mid-persist, no deliveries still buffered inside the engine) that
// is everything below the engine's delivery cursor — sequence numbers under
// it with no log entry were consumed by segments of broadcasts that never
// completed anywhere (an origin crashed mid-message) and are permanently
// dead. With work still in flight the node vouches only for what it has
// applied: vouching past buffered deliveries would declare entries dead
// that are minutes — or microseconds — from existing.
func (cu *catchup) ceiling() uint64 {
	if cu.c == nil && cu.pump.drained() {
		if cursor, ok := cu.settled(); ok {
			return cursor
		}
	}
	return cu.applied()
}

// receive feeds one page of recovered history to the pump and drives the
// transfer forward.
func (cu *catchup) receive(from ProcID, resp *wire.CatchupResp, now time.Time) {
	c := cu.c
	if c == nil || len(c.peers) == 0 || from != c.peers[c.idx] {
		return // stale response from an earlier attempt
	}
	if resp.Unavailable {
		c.unavail++
		if c.unavail >= len(c.peers) {
			// Nobody in the view keeps history: proceed with the gap, the
			// documented semantics of joining without a state transfer.
			cu.finish()
			return
		}
		c.idx = (c.idx + 1) % len(c.peers)
		cu.request(now)
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
			LogicalID: e.Logical,
			Payload:   e.Payload,
		}})
		c.after = max(c.after, e.Seq)
	}
	if len(items) > 0 {
		cu.pump.recover(items)
	}
	switch {
	case c.after >= c.target:
		cu.finish()
	case resp.More:
		if cu.pump.backlog() < catchupMaxBacklog {
			cu.request(now)
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
		cu.finish()
	default:
		// The peer has served everything it holds but the target is still
		// ahead (it is applying the same traffic we are waiting for); the
		// tick retries shortly.
	}
}
