package fsr

import (
	"context"
	"encoding/binary"
	"iter"
	"slices"
	"sync"
	"time"

	"fsr/internal/serve"
	"fsr/internal/wire"
)

// This file is the member half of the Session API: the broadcast-payload
// envelope that carries client identity through the ring, the deterministic
// publish-dedup index that makes client retries idempotent, and the glue
// binding the node to the shared serving engine (internal/serve), which
// owns subscriptions, per-client transmit queues and the encode-once
// fan-out for both ring members and edge replicas.

// --- Broadcast payload envelope ------------------------------------------
//
// Every payload handed to the protocol engine is enveloped with one byte of
// provenance. A member's own publishes are envRaw (the byte plus the
// application payload) and stay out of the dedup index: the engine's
// identity-preserving rebroadcast already makes them exactly-once within an
// incarnation. Client publishes are envClient and additionally carry the
// client's ID and publish ID — the identity every member needs at apply
// time to filter duplicate publishes out of the order deterministically.
// The envelope exists only inside the ring: it is stripped before anything
// reaches a WAL entry, a StateMachine, or a consumer.

const (
	envRaw    byte = 0
	envClient byte = 1
)

const envClientHeader = 1 + 4 + 8 // kind + client ID + pub ID

func wrapRaw(payload []byte) []byte {
	buf := make([]byte, 1+len(payload))
	buf[0] = envRaw
	copy(buf[1:], payload)
	return buf
}

// sealClientPub turns a decoded PUBLISH frame into the client envelope
// around its payload without moving the payload: the envelope is one byte
// shorter than the frame's own header, so it is written over the header's
// last envClientHeader bytes, in the inbound buffer this member owns
// (transport.Handler hands the buffer over). The publish must have been
// decoded from a frame; its header fields are not readable afterwards.
func sealClientPub(cid ProcID, p *wire.ClientPublish) []byte {
	env := p.Frame[wire.ClientPublishHeader-envClientHeader:]
	env[0] = envClient
	binary.LittleEndian.PutUint32(env[1:], uint32(cid))
	binary.LittleEndian.PutUint64(env[5:], p.PubID)
	return env
}

// openEnvelope splits one enveloped engine payload. Unknown leading bytes
// are treated as a raw payload (defense in depth; every in-tree producer
// envelopes).
func openEnvelope(p []byte) (inner []byte, cid ProcID, pubID uint64, isClient bool) {
	if len(p) >= envClientHeader && p[0] == envClient {
		return p[envClientHeader:], ProcID(binary.LittleEndian.Uint32(p[1:])),
			binary.LittleEndian.Uint64(p[5:]), true
	}
	if len(p) >= 1 && p[0] == envRaw {
		return p[1:], 0, 0, false
	}
	return p, 0, 0, false
}

// --- Publish dedup index --------------------------------------------------

// pubRecall is how many sequence-number recalls per client the index keeps
// below its contiguous floor: a duplicate publish that old still acks as
// committed, but with Seq 0 (position no longer remembered).
const pubRecall = 1024

// pubIndex records which (client, pubID) pairs are committed, and at what
// offset. It is a pure function of the applied prefix of the total order —
// every member evolves an identical index, which is what makes the
// duplicate filter deterministic — and it rides inside snapshots so a
// state transfer is as complete as a WAL replay.
type pubIndex struct {
	clients map[ProcID]*clientPubs
}

type clientPubs struct {
	floor    uint64            // every pubID <= floor is committed
	prunedTo uint64            // seqs at or below this were discarded
	seqs     map[uint64]uint64 // committed pubID -> offset, above prunedTo
}

// committed reports whether (cid, pubID) is in the applied order, and at
// which offset (0 when the position has been pruned from recall).
func (x *pubIndex) committed(cid ProcID, pubID uint64) (uint64, bool) {
	st := x.clients[cid]
	if st == nil {
		return 0, false
	}
	if seq, ok := st.seqs[pubID]; ok {
		return seq, true
	}
	if pubID <= st.floor {
		return 0, true
	}
	return 0, false
}

// add records a commit; it reports false (and changes nothing) when the
// pair was already committed.
func (x *pubIndex) add(cid ProcID, pubID, seq uint64) bool {
	if _, dup := x.committed(cid, pubID); dup {
		return false
	}
	if x.clients == nil {
		x.clients = make(map[ProcID]*clientPubs)
	}
	st := x.clients[cid]
	if st == nil {
		st = &clientPubs{seqs: make(map[uint64]uint64)}
		x.clients[cid] = st
	}
	st.seqs[pubID] = seq
	for {
		if _, ok := st.seqs[st.floor+1]; !ok {
			break
		}
		st.floor++
	}
	for st.floor > pubRecall && st.prunedTo < st.floor-pubRecall {
		st.prunedTo++
		delete(st.seqs, st.prunedTo)
	}
	return true
}

// encode serializes the index (sorted, so equal indexes encode equally).
func (x *pubIndex) encode() []byte {
	cids := make([]ProcID, 0, len(x.clients))
	for cid := range x.clients {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(cids)))
	for _, cid := range cids {
		st := x.clients[cid]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cid))
		buf = binary.LittleEndian.AppendUint64(buf, st.floor)
		buf = binary.LittleEndian.AppendUint64(buf, st.prunedTo)
		ids := make([]uint64, 0, len(st.seqs))
		for id := range st.seqs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint64(buf, id)
			buf = binary.LittleEndian.AppendUint64(buf, st.seqs[id])
		}
	}
	return buf
}

// decodePubIndex rebuilds an index from encode's output.
func decodePubIndex(buf []byte) (pubIndex, bool) {
	var x pubIndex
	if len(buf) < 4 {
		return x, false
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	for range n {
		if len(buf) < 4+8+8+4 {
			return x, false
		}
		cid := ProcID(binary.LittleEndian.Uint32(buf))
		st := &clientPubs{
			floor:    binary.LittleEndian.Uint64(buf[4:]),
			prunedTo: binary.LittleEndian.Uint64(buf[12:]),
			seqs:     make(map[uint64]uint64),
		}
		cnt := binary.LittleEndian.Uint32(buf[20:])
		buf = buf[24:]
		if uint64(len(buf)) < uint64(cnt)*16 {
			return x, false
		}
		for range cnt {
			st.seqs[binary.LittleEndian.Uint64(buf)] = binary.LittleEndian.Uint64(buf[8:])
			buf = buf[16:]
		}
		if x.clients == nil {
			x.clients = make(map[ProcID]*clientPubs)
		}
		x.clients[cid] = st
	}
	return x, len(buf) == 0
}

// --- Snapshot wrapper -----------------------------------------------------
//
// Durable snapshots are node-level: the publish index followed by the
// application StateMachine snapshot, so a member rebuilt by state transfer
// filters duplicates exactly like one that replayed the whole order.

var snapMagic = [4]byte{'F', 'S', 'R', '1'}

func wrapSnapshot(index, app []byte) []byte {
	buf := make([]byte, 0, 4+4+len(index)+len(app))
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(index)))
	buf = append(buf, index...)
	return append(buf, app...)
}

// openSnapshot splits a node-level snapshot; data without the wrapper is
// treated as a bare application snapshot with an empty index.
func openSnapshot(data []byte) (index, app []byte) {
	if len(data) < 8 || [4]byte(data[:4]) != snapMagic {
		return nil, data
	}
	n := binary.LittleEndian.Uint32(data[4:])
	if uint64(len(data)-8) < uint64(n) {
		return nil, data
	}
	return data[8 : 8+n], data[8+n:]
}

// memberTailCap bounds how much of the applied order a member without a
// durable log retains for subscribers. Offsets that have fallen off are
// below the member's horizon — it answers RedirectCannotServe and the
// client tries another member.
const memberTailCap = 4096

// --- Session serving ------------------------------------------------------

const (
	// maxParkedClientPubs bounds client publishes parked while the publish
	// gate is shut (see canPublish).
	// Beyond it publishes are dropped; the client's ack-timeout retry is
	// the backpressure.
	maxParkedClientPubs = 8192
	// maxInflightClientPubs bounds what ONE client may have in flight
	// (broadcast or parked, not yet applied) — a publisher that never
	// waits for acks cannot monopolize the parked queue or the ring's
	// bandwidth. Past the bound its publishes are dropped; the ack-timeout
	// retry is, again, the backpressure.
	maxInflightClientPubs = 1024
)

// sessSrv is the member-specific half of session serving: the publish
// dedup index, the table of publishes in flight — remote clients' and the
// member's own alike — and the parked client publishes. The
// protocol-facing half (clients, subscriptions, transmit queues, fan-out)
// lives in Node.srv, the shared serving engine, reading Node.clog. The
// index and counters are written by the delivery pump (apply time) and
// read by the event loop (publish dedup).
type sessSrv struct {
	n *Node

	mu        sync.Mutex
	index     pubIndex
	inflight  map[pubKey]inflightPub // accepted, not yet committed
	perClient map[ProcID]int         // in-flight publish count per origin
	parked    []parkedPub
	// gates maps a client to the lowest pubID this member dropped while
	// it remains uncommitted. Until that publish commits (possibly
	// through another member) or is re-offered by the client's sorted
	// retry, no HIGHER pubID from the client may be accepted: committing
	// a successor first would leave an interior hole in the per-origin
	// FIFO stream that the retry then fills out of order. A crash only
	// ever costs a client stream a suffix; backpressure drops must not
	// cost it an interior hole. Member-local and ephemeral (not part of
	// the deterministic index): it shapes what this member admits, not
	// what the order contains.
	gates map[ProcID]uint64

	pubsAccepted uint64 // client publishes committed through this member
	dupsFiltered uint64 // duplicate publishes filtered at apply time
	pubsBounded  uint64 // publishes dropped by the per-client bound
	// pubLatency histograms the accept→commit latency of every publish
	// committed through this member, remote or local.
	pubLatency LatencyHistogram
}

// pubKey identifies a publish in flight: a client's (ID, publish ID), or
// for the member's own publishes (Self, the engine's local message ID).
type pubKey struct {
	cid ProcID
	pub uint64
}

type inflightPub struct {
	accepted time.Time
	r        *Receipt // a local publish's receipt; nil for a remote client's
}

type parkedPub struct {
	cid ProcID
	pub uint64
	env []byte // the enveloped publish, ready for the engine
}

// pubAck is one acknowledgment owed after the current batch is durable: a
// PUBACK to client cid, or — cid being this member — the receipt of local
// publish pub.
type pubAck struct {
	cid ProcID
	pub uint64
	seq uint64
}

func newSessSrv(n *Node) *sessSrv {
	return &sessSrv{
		n:         n,
		inflight:  make(map[pubKey]inflightPub),
		perClient: make(map[ProcID]int),
		gates:     make(map[ProcID]uint64),
	}
}

// addInflight records a publish as in flight, stamping its accept time; r
// is nil for a remote client's. Callers hold s.mu.
func (s *sessSrv) addInflight(key pubKey, r *Receipt) {
	s.inflight[key] = inflightPub{accepted: time.Now(), r: r}
	s.perClient[key.cid]++
}

// removeInflight clears an in-flight record, returning it so the apply
// path can histogram accept→ack latency (drop and error paths discard it).
// Callers hold s.mu.
func (s *sessSrv) removeInflight(key pubKey) (inflightPub, bool) {
	p, ok := s.inflight[key]
	if !ok {
		return p, false
	}
	delete(s.inflight, key)
	if n := s.perClient[key.cid] - 1; n > 0 {
		s.perClient[key.cid] = n
	} else {
		delete(s.perClient, key.cid)
	}
	return p, true
}

// takeLocal removes committed local publish id from the in-flight table and
// hands its receipt to the pump to resolve; nil means failLocal got there
// first. Whoever removes the entry, under s.mu, settles the receipt: that
// keeps resolve and fail exactly-once between the pump and the event loop.
func (s *sessSrv) takeLocal(id uint64) *Receipt {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.removeInflight(pubKey{cid: s.n.cfg.Self, pub: id})
	if !ok {
		return nil
	}
	s.pubLatency.Observe(time.Since(p.accepted))
	return p.r
}

// failLocal fails every local publish still in flight when the node halts
// (stop, fail-stop, eviction): the only place a member fails a receipt.
// Event loop.
func (s *sessSrv) failLocal(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, p := range s.inflight {
		if p.r != nil {
			s.removeInflight(key)
			p.r.fail(err)
		}
	}
}

// gateDrop arms (or lowers) cid's FIFO gate after dropping pubID
// uncommitted. Callers hold s.mu.
func (s *sessSrv) gateDrop(cid ProcID, pubID uint64) {
	if g, ok := s.gates[cid]; !ok || pubID < g {
		s.gates[cid] = pubID
	}
}

// gateAllows reports whether cid's FIFO gate admits pubID, first resolving
// a gate whose publish has since committed (through this member or any
// other — the index is global). Admitting the gated pubID itself lifts the
// gate; if this very call then drops it again, gateDrop re-arms. Callers
// hold s.mu.
func (s *sessSrv) gateAllows(cid ProcID, pubID uint64) bool {
	g, ok := s.gates[cid]
	if !ok {
		return true
	}
	if _, committed := s.index.committed(cid, g); committed {
		delete(s.gates, cid)
		return true
	}
	if pubID > g {
		return false
	}
	if pubID == g {
		delete(s.gates, cid)
	}
	return true
}

// restoreIndex replaces the publish index from snapshot bytes (state
// transfer / startup).
func (s *sessSrv) restoreIndex(data []byte) {
	idx, ok := decodePubIndex(data)
	if !ok {
		return // pre-index snapshot: start empty
	}
	s.mu.Lock()
	s.index = idx
	s.mu.Unlock()
}

// classify resolves one message about to be applied: the envelope is
// opened, client publishes are checked against (and folded into) the
// index, and the caller learns whether the message is a duplicate to be
// filtered from the order and which acknowledgment its commit owes. The
// member's own publishes get one live and recovered alike: the group may
// have delivered one while this member lagged behind a view change, and it
// then comes back through catch-up. Pump goroutine.
func (s *sessSrv) classify(m Message, enveloped bool) (final Message, dup bool, ack *pubAck) {
	if !enveloped {
		// Recovered history (catch-up) is already in final form and comes
		// from a peer's filtered log; fold client identities into the
		// index, and ack only a client actually waiting on this member
		// (anyone else re-requests and gets the immediate index ack).
		if m.Origin == s.n.cfg.Self {
			ack = &pubAck{cid: m.Origin, pub: m.LogicalID, seq: m.Seq}
		} else if m.Origin >= ClientIDBase {
			s.mu.Lock()
			s.index.add(m.Origin, m.LogicalID, m.Seq)
			key := pubKey{cid: m.Origin, pub: m.LogicalID}
			if p, ok := s.removeInflight(key); ok {
				s.pubLatency.Observe(time.Since(p.accepted))
				ack = &pubAck{cid: m.Origin, pub: m.LogicalID, seq: m.Seq}
			}
			s.mu.Unlock()
		}
		return m, false, ack
	}
	inner, cid, pubID, isClient := openEnvelope(m.Payload)
	if !isClient {
		m.Payload = inner
		if m.Origin == s.n.cfg.Self {
			ack = &pubAck{cid: m.Origin, pub: m.LogicalID, seq: m.Seq}
		}
		return m, false, ack
	}
	key := pubKey{cid: cid, pub: pubID}
	s.mu.Lock()
	if seq, committed := s.index.committed(cid, pubID); committed {
		if p, ok := s.removeInflight(key); ok {
			s.pubLatency.Observe(time.Since(p.accepted))
		}
		s.dupsFiltered++
		s.mu.Unlock()
		return Message{Seq: m.Seq}, true, &pubAck{cid: cid, pub: pubID, seq: seq}
	}
	if p, ok := s.removeInflight(key); ok {
		s.pubLatency.Observe(time.Since(p.accepted))
	}
	s.index.add(cid, pubID, m.Seq)
	s.pubsAccepted++
	s.mu.Unlock()
	final = Message{Seq: m.Seq, Origin: cid, LogicalID: pubID, Payload: inner}
	return final, false, &pubAck{cid: cid, pub: pubID, seq: m.Seq}
}

// snapshotIndex serializes the index for inclusion in a durable snapshot.
func (s *sessSrv) snapshotIndex() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.encode()
}

// --- Node: serving client frames (event loop) -----------------------------

// newServe builds the member's serving engine: publishes run through the
// dedup/broadcast path on the event loop (Handle is only called there),
// redirects carry the current view.
func (n *Node) newServe() *serve.Server {
	return serve.New(serve.Config{
		Transport: n.tr,
		Source:    n.clog,
		Publish:   n.handleClientPublish,
		Redirect: func() (members []ProcID, addrs []string, applied uint64) {
			return n.CurrentView().Members, nil, n.Applied()
		},
		Logger: n.log,
	})
}

// canPublish is the publish gate, the one admission predicate for local and
// client publishes alike: the engine takes a new message only while the
// member is in an installed view, no view change or catch-up is in flight
// and the own-queue has room. (Eviction halts the node before the loop
// looks at the gate again, so it needs no term here.) Event loop.
func (n *Node) canPublish() bool {
	n.mu.Lock()
	joined := n.joined
	n.mu.Unlock()
	return joined && !n.mgr.Changing() && n.catch == nil &&
		n.engine.PendingOwn() < maxPendingOwn
}

// publishLocal hands one in-process publish to the engine and records it in
// flight under (Self, its engine-local ID), for the pump to settle as it
// settles a client's. Event loop, and only while canPublish holds.
func (n *Node) publishLocal(payload []byte) bcastResp {
	first, err := n.engine.Broadcast(wrapRaw(payload))
	if err != nil {
		return bcastResp{err: err}
	}
	r := newReceipt()
	n.sess.mu.Lock()
	n.sess.addInflight(pubKey{cid: n.cfg.Self, pub: first.Local}, r)
	n.sess.mu.Unlock()
	return bcastResp{receipt: r}
}

// handleClientPublish dedups one publish against the committed order and
// the in-flight table, then broadcasts it (or parks it under
// backpressure). Runs on the event loop, via the serving engine's Publish
// hook.
func (n *Node) handleClientPublish(from ProcID, p *wire.ClientPublish) {
	s := n.sess
	blocked := !n.canPublish()
	s.mu.Lock()
	if seq, ok := s.index.committed(from, p.PubID); ok {
		s.mu.Unlock()
		// Already committed (a retry after a lost ack): re-ack, off the
		// event loop.
		n.srv.Ack(from, p.PubID, seq)
		return
	}
	key := pubKey{cid: from, pub: p.PubID}
	if _, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return // retry of an in-flight publish: the apply-time ack covers it
	}
	if !s.gateAllows(from, p.PubID) {
		// An earlier publish from this client was dropped here and is
		// still uncommitted; admitting this one would commit the
		// client's stream out of FIFO order once the sorted retry
		// re-offers the dropped one. Refuse both — the retry re-offers
		// them lowest-first.
		s.pubsBounded++
		s.mu.Unlock()
		return
	}
	if s.perClient[from] >= maxInflightClientPubs {
		// One client may not monopolize the ring: drop, the client's
		// ack-timeout retry (paced by its window) is the backpressure.
		s.gateDrop(from, p.PubID)
		s.pubsBounded++
		s.mu.Unlock()
		return
	}
	s.addInflight(key, nil)
	env := sealClientPub(from, p)
	// Queue behind the parked backlog even when broadcasting just
	// unblocked: a publish parked during the blocked window must reach
	// the engine before anything that arrived after it, or the ring
	// sequences the client's stream out of FIFO order (the parked-queue
	// overtake twin of the gate above).
	if blocked || len(s.parked) > 0 {
		if len(s.parked) < maxParkedClientPubs {
			s.parked = append(s.parked, parkedPub{cid: from, pub: p.PubID, env: env})
		} else {
			s.removeInflight(key) // dropped: the client's retry is the backpressure
			s.gateDrop(from, p.PubID)
		}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	n.broadcastClientPub(from, p.PubID, env)
}

// broadcastClientPub submits one deduplicated, enveloped client publish to
// the engine. Event loop only.
func (n *Node) broadcastClientPub(cid ProcID, pubID uint64, env []byte) {
	if _, err := n.engine.Broadcast(env); err != nil {
		s := n.sess
		s.mu.Lock()
		s.removeInflight(pubKey{cid: cid, pub: pubID})
		s.gateDrop(cid, pubID)
		s.mu.Unlock()
	}
}

// drainClientPubs broadcasts publishes parked during backpressure. Called
// from the event loop whenever broadcasting is unblocked.
func (n *Node) drainClientPubs() {
	s := n.sess
	for {
		if !n.canPublish() {
			return
		}
		s.mu.Lock()
		if len(s.parked) == 0 {
			s.mu.Unlock()
			return
		}
		p := s.parked[0]
		s.parked = s.parked[1:]
		s.mu.Unlock()
		n.broadcastClientPub(p.cid, p.pub, p.env)
	}
}

// --- In-process sessions --------------------------------------------------

// Session returns this member's in-process Session: the same interface a
// remote client gets from client.Dial or Cluster.Dial, served without the
// wire. Publish carries the member's identity and blocks under the member's
// backpressure; Subscribe streams the committed order from any offset out
// of the same Log remote subscriptions are paged from. Sessions share the
// node — closing one is a no-op; stopping the node ends them all.
func (n *Node) Session() Session { return nodeSession{n: n} }

type nodeSession struct{ n *Node }

// Publish returns once the event loop has handed the message to the engine,
// blocking — and honoring ctx — while the publish gate is shut (a remote
// session blocks on its window instead). ctx does not bound the commit; use
// Receipt.Wait for that. The receipt resolves where a remote publish is
// acknowledged: durable at this member, applied, visible to subscribers.
func (s nodeSession) Publish(ctx context.Context, payload []byte) (*Receipt, error) {
	n := s.n
	req := bcastReq{payload: payload, resp: make(chan bcastResp, 1)}
	select {
	case n.bcast <- req:
	case <-n.stop:
		return nil, ErrStopped
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	resp := <-req.resp // the loop answers as soon as it has taken the request
	return resp.receipt, resp.err
}

func (s nodeSession) Subscribe(ctx context.Context, from Offset) iter.Seq2[Offset, Message] {
	return s.n.subscribeLocal(ctx, from)
}

func (s nodeSession) Err() error { return s.n.Err() }

func (s nodeSession) Close() error { return nil }

// subscribeLocal is the in-process subscription stream: it pages the same
// Log with the same call as the remote pagers in internal/serve, yielding
// directly. from == 0 is the frontier at the time of the Subscribe call.
// The stream ends when ctx is done, the node halts, or the offset wanted
// has fallen below an ephemeral member's horizon.
func (n *Node) subscribeLocal(ctx context.Context, from Offset) iter.Seq2[Offset, Message] {
	start := from - 1
	if from == 0 {
		// A joiner that has applied nothing yet starts above its horizon.
		base, _, _ := n.clog.Held()
		start = max(n.Applied(), base)
	}
	return func(yield func(Offset, Message) bool) {
		cursor := start
		for ctx.Err() == nil && !n.stopping() {
			// The channel first, then the frontier: a batch committed
			// between the two closes the channel already held.
			moved := n.clog.Watch()
			applied := n.clog.Applied()
			if cursor >= applied {
				select {
				case <-moved:
				case <-ctx.Done():
				case <-n.stop:
				}
				continue
			}
			page, err := n.clog.ReadCommitted(cursor, applied, serve.MaxPageEntries, serve.MaxPageBytes)
			if err != nil || page.BelowHorizon {
				return
			}
			if page.Snap != nil {
				if !yield(page.SnapSeq, Message{Seq: page.SnapSeq, Snapshot: true, Payload: page.Snap}) {
					return
				}
			}
			for i := range page.Entries {
				e := &page.Entries[i]
				m := Message{Seq: e.Seq, Origin: e.Origin, LogicalID: e.Logical, Payload: e.Payload}
				if !yield(m.Seq, m) {
					return
				}
			}
			cursor = page.Cursor
		}
	}
}
