// Package tcp implements the transport interface over real TCP sockets
// (stdlib net only): length-prefixed frames on one dialed connection per
// destination, which preserves per-destination FIFO exactly like the
// paper's point-to-point channels. Oversized payloads are chunked
// transparently (see chunkMore); receive paths drain every complete frame
// per syscall through one buffered reader.
//
// Topology is static: every endpoint knows the listen address of every
// peer. Outbound connections are dialed lazily on first Send and re-dialed
// after failures; inbound connections are identified by a 4-byte ProcID
// handshake — an ID outside the peer map marks a session client, whose
// inbound connection doubles as the reply path. A write failure surfaces
// as an error from Send — the failure detector above decides what it
// means.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fsr/transport"
)

// Chunked framing: each wire frame is [u32 length][bytes], and a length
// with chunkMore set announces that the payload continues in the next
// frame. Payloads larger than maxChunkSize are split transparently on
// send and reassembled on receive — a protocol payload has no size limit
// (a view-change sync message carrying in-flight 100 KiB message bodies
// legitimately reaches tens of MBs under saturation; a fixed cap treated
// as corruption wedges the view change forever), while a single forged
// length can still only make the receiver allocate maxChunkSize at a time
// up to MaxAssembledSize total.
const (
	chunkMore = 1 << 31
	// maxChunkSize bounds one wire frame's payload bytes; larger chunk
	// announcements are treated as protocol corruption and drop the
	// connection.
	maxChunkSize = 8 << 20
	// MaxAssembledSize bounds one reassembled payload (sanity bound
	// against a malicious unending chunk stream).
	MaxAssembledSize = 1 << 30
)

// MaxFrameSize is the largest single (unchunked) frame on the wire; kept
// as the historical name for the per-frame bound.
const MaxFrameSize = maxChunkSize

// Config describes one TCP endpoint.
type Config struct {
	// Self is this process's ID.
	Self transport.ProcID
	// ListenAddr is the local address to accept peers on, e.g.
	// "127.0.0.1:7001". Required.
	ListenAddr string
	// Peers maps every other process to its listen address.
	Peers map[transport.ProcID]string
	// DialTimeout bounds one connection attempt. Defaults to 3s.
	DialTimeout time.Duration
	// DialBackoff paces reconnection to an unreachable peer: after a
	// failed dial the peer enters backoff (doubling per consecutive
	// failure, capped at DialMaxBackoff) and Sends during the window fail
	// fast without touching the network. Callers that keep sending — the
	// protocol stack emits heartbeats every interval — therefore drive
	// the retry at a bounded rate, so a cluster forms when peers come up
	// out of order and a restarted member reconnects, while a Send never
	// sleeps (a blocking retry here would stall the caller's event loop
	// and starve the failure detector). Defaults to 25ms.
	DialBackoff time.Duration
	// DialMaxBackoff caps the backoff growth. Defaults to 1s.
	DialMaxBackoff time.Duration
}

// Transport is a TCP-backed transport endpoint.
type Transport struct {
	cfg Config
	ln  net.Listener

	// handler is the installed inbound handler, published only once the
	// pre-handler backlog has been replayed: dispatch reads it without mu,
	// and takes mu (to queue behind the backlog) only while it is nil.
	handler atomic.Pointer[transport.Handler]

	mu      sync.Mutex
	conns   map[transport.ProcID]*peerConn    // outbound, dialed
	replies map[transport.ProcID]*peerConn    // inbound from non-peers (session clients)
	redial  map[transport.ProcID]*redialState // per-peer dial pacing
	inbound map[net.Conn]struct{}             // accepted, closed with the endpoint
	pending []pendingPayload                  // buffered inbound before SetHandler finishes replaying
	closed  bool

	wg sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// peerConn is one dialed outbound connection plus its write state. Writes
// to one peer serialize on the peer's own mutex — never on the transport
// lock — so a slow or wedged successor cannot head-of-line-block traffic
// (catch-up serving, failure-detector heartbeats) to other peers.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	// Write scratch, reused under mu: length prefixes and the vectored
	// write list. One batch of k payloads becomes 2k buffers (header,
	// payload, header, payload, ...) — more for payloads large enough to
	// chunk — flushed by a single net.Buffers write: one writev syscall
	// for any batch that fits the iovec limit, and no per-send header
	// allocation. iovs records how many write buffers each queued payload
	// occupies, for the partial-failure accounting in flush.
	hdrs []byte
	vecs net.Buffers
	iovs []int
}

// appendFrame queues one payload on the scratch write list, split into
// chunkMore-linked chunks when it exceeds maxChunkSize. Callers hold
// pc.mu.
func (pc *peerConn) appendFrame(payload []byte) {
	n := 0
	for len(payload) > maxChunkSize {
		pc.appendChunk(payload[:maxChunkSize], true)
		payload = payload[maxChunkSize:]
		n += 2
	}
	pc.appendChunk(payload, false)
	pc.iovs = append(pc.iovs, n+2)
}

func (pc *peerConn) appendChunk(chunk []byte, more bool) {
	length := uint32(len(chunk))
	if more {
		length |= chunkMore
	}
	off := len(pc.hdrs)
	pc.hdrs = binary.LittleEndian.AppendUint32(pc.hdrs, length)
	pc.vecs = append(pc.vecs, pc.hdrs[off:off+4], chunk)
}

// flush writes the queued (header, chunk) list as one vectored write and
// resets the scratch. On error it also reports how many payloads were
// fully consumed by the kernel before the failure, so a retry can skip
// them: a fully-consumed payload may already have reached the receiver,
// and re-sending it on a fresh connection would double-deliver (a
// duplicated ack for an already-pruned segment is a protocol error that
// halts the receiving node). A partially-consumed payload is safe to
// resend whole — the receiver discards the truncated tail of the dead
// connection's stream (a chunk sequence cut short never completes, so a
// partially-shipped chunked payload is never delivered). Callers hold
// pc.mu.
func (pc *peerConn) flush() (completedFrames int, err error) {
	v := pc.vecs // WriteTo consumes its receiver; keep pc.vecs for reuse
	_, err = v.WriteTo(pc.conn)
	if err != nil {
		// v retains the unwritten suffix (a partially-written buffer stays,
		// resliced); fully consumed buffers = total - remaining, and a
		// payload is complete only when every one of its header and chunk
		// buffers is.
		consumed := len(pc.vecs) - len(v)
		for _, n := range pc.iovs {
			if consumed < n {
				break
			}
			consumed -= n
			completedFrames++
		}
	}
	clear(pc.vecs) // drop payload references so pooled buffers are not pinned
	pc.vecs = pc.vecs[:0]
	pc.hdrs = pc.hdrs[:0]
	pc.iovs = pc.iovs[:0]
	return completedFrames, err
}

// New starts listening and returns the endpoint.
func New(cfg Config) (*Transport, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 25 * time.Millisecond
	}
	if cfg.DialMaxBackoff <= 0 {
		cfg.DialMaxBackoff = time.Second
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", cfg.ListenAddr, err)
	}
	t := &Transport{
		cfg:     cfg,
		ln:      ln,
		conns:   make(map[transport.ProcID]*peerConn),
		replies: make(map[transport.ProcID]*peerConn),
		redial:  make(map[transport.ProcID]*redialState),
		inbound: make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeers replaces the peer address map. Intended for bootstrap flows
// where endpoints bind ephemeral ports first and exchange addresses
// afterwards; existing connections are unaffected. A peer whose address
// changed (e.g. a member restarted on a fresh ephemeral port) leaves
// backoff immediately.
func (t *Transport) SetPeers(peers map[transport.ProcID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, addr := range peers {
		if t.cfg.Peers[id] != addr {
			delete(t.redial, id)
		}
	}
	t.cfg.Peers = peers
}

// redialState paces dials to one currently-unreachable peer.
type redialState struct {
	until   time.Time     // no dial before this instant
	backoff time.Duration // next window length
	lastErr error         // what the last real attempt said
}

// Self implements transport.Transport.
func (t *Transport) Self() transport.ProcID { return t.cfg.Self }

// pendingPayload is one inbound payload buffered before SetHandler.
type pendingPayload struct {
	from    transport.ProcID
	payload []byte
}

// SetHandler implements transport.Transport. Payloads that arrive while
// the pre-handler backlog is being replayed keep queuing behind it, so the
// per-sender FIFO guarantee holds across handler installation.
func (t *Transport) SetHandler(h transport.Handler) {
	for {
		t.mu.Lock()
		if len(t.pending) == 0 {
			t.handler.Store(&h)
			t.mu.Unlock()
			return
		}
		batch := t.pending
		t.pending = nil
		t.mu.Unlock()
		for _, p := range batch {
			h(p.from, p.payload)
		}
	}
}

// Send implements transport.Transport: it frames payload and writes it on
// the (possibly freshly dialed) connection to the peer. Writes to one peer
// serialize on that peer's own lock; a failed write closes the connection
// and returns the error after one redial attempt.
func (t *Transport) Send(to transport.ProcID, payload []byte) error {
	return t.send(to, payload)
}

// SendBatch implements transport.Transport: the payloads go out in order
// as one length-prefixed vectored write — a single syscall for the whole
// batch on the common path. The buffers are fully written (or the batch has
// failed) by return, so the caller may reuse them immediately.
func (t *Transport) SendBatch(to transport.ProcID, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	return t.send(to, payloads...)
}

func (t *Transport) send(to transport.ProcID, payloads ...[]byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return transport.ErrClosed
	}
	t.mu.Unlock()
	done, err := t.trySend(to, payloads)
	if err == nil {
		return nil
	}
	// One redial: the previous connection may have died idle. Only the
	// frames the kernel had not fully accepted are rewritten — anything
	// fully consumed before the failure may already be at the receiver,
	// and resending it would double-deliver. (Fully-consumed-but-lost
	// frames die with the connection, the same crash-loss semantics a
	// successful-then-reset single Send always had.)
	t.dropConn(to)
	_, err = t.trySend(to, payloads[done:])
	return err
}

func (t *Transport) trySend(to transport.ProcID, payloads [][]byte) (completedFrames int, err error) {
	pc, err := t.connTo(to)
	if err != nil {
		return 0, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, p := range payloads {
		pc.appendFrame(p)
	}
	done, err := pc.flush()
	if err != nil {
		return done, fmt.Errorf("tcp: write %d payload(s) to %d: %w", len(payloads), to, err)
	}
	return len(payloads), nil
}

// connTo returns (dialing if necessary) the outbound connection to a peer.
// Failed dials put the peer in a doubling backoff window during which
// further Sends fail fast without a network attempt — reconnection is
// paced, never blocking (see Config.DialBackoff).
func (t *Transport) connTo(to transport.ProcID) (*peerConn, error) {
	t.mu.Lock()
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.cfg.Peers[to]
	if !ok {
		// Not a configured peer: a session client is reachable only over
		// the inbound connection it dialed us on (clients have no
		// listener).
		pc, replyOK := t.replies[to]
		t.mu.Unlock()
		if replyOK {
			return pc, nil
		}
		return nil, fmt.Errorf("tcp: peer %d: %w", to, transport.ErrUnknownPeer)
	}
	if rs := t.redial[to]; rs != nil && time.Now().Before(rs.until) {
		err := rs.lastErr
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: peer %d in dial backoff: %w", to, err)
	}
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		err = fmt.Errorf("tcp: dial %d@%s: %w", to, addr, err)
		t.mu.Lock()
		rs := t.redial[to]
		if rs == nil {
			rs = &redialState{backoff: t.cfg.DialBackoff}
			t.redial[to] = rs
		} else {
			rs.backoff = min(rs.backoff*2, t.cfg.DialMaxBackoff)
		}
		rs.until = time.Now().Add(rs.backoff)
		rs.lastErr = err
		t.mu.Unlock()
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	// Handshake: announce who we are.
	id := make([]byte, 4)
	binary.LittleEndian.PutUint32(id, uint32(t.cfg.Self))
	if _, err := c.Write(id); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("tcp: handshake with %d: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return nil, transport.ErrClosed
	}
	delete(t.redial, to)
	if prev, ok := t.conns[to]; ok {
		_ = c.Close() // lost a dial race; reuse the existing connection
		return prev, nil
	}
	pc := &peerConn{conn: c}
	t.conns[to] = pc
	return pc, nil
}

func (t *Transport) dropConn(to transport.ProcID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pc, ok := t.conns[to]; ok {
		_ = pc.conn.Close()
		delete(t.conns, to)
	}
	if pc, ok := t.replies[to]; ok {
		// A client's broken reply path is not redialable from here; the
		// client reconnects and re-registers.
		_ = pc.conn.Close()
		delete(t.replies, to)
	}
}

// acceptLoop accepts inbound peer connections until Close.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop consumes frames from one inbound connection. A sender outside
// the peer map — a session client, identified by its handshake ID — gets
// the connection registered as its reply path, so the member can push
// acks, events and redirects back without dialing (clients have no
// listener).
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var idBuf [4]byte
	if _, err := io.ReadFull(conn, idBuf[:]); err != nil {
		return
	}
	from := transport.ProcID(binary.LittleEndian.Uint32(idBuf[:]))
	t.mu.Lock()
	if _, isPeer := t.cfg.Peers[from]; !isPeer && !t.closed {
		t.replies[from] = &peerConn{conn: conn}
		defer t.dropReply(from, conn)
	}
	t.mu.Unlock()
	// Connection over (EOF, reset, or corrupt framing): drop it.
	_ = readFrames(conn, func(payload []byte) {
		t.dispatch(from, payload)
	})
}

// dropReply removes a client's reply path if conn still owns it.
func (t *Transport) dropReply(id transport.ProcID, conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pc, ok := t.replies[id]; ok && pc.conn == conn {
		delete(t.replies, id)
	}
}

// readBufferSize is the per-connection receive buffer: large enough to
// drain a saturated sender's burst of 8 KiB-segment frames in one
// syscall.
const readBufferSize = 256 << 10

// readFrames drains length-prefixed frames from r, invoking fn with each
// reassembled payload (owned by fn). One buffered reader serves the whole
// stream, so a burst of frames arriving together costs one read syscall,
// not two per frame — the receive-side half of the transport's batching.
// Chunked payloads (chunkMore-linked frames) are reassembled here. It
// returns when the stream ends or a frame violates the chunk bounds.
func readFrames(r io.Reader, fn func(payload []byte)) error {
	br := bufio.NewReaderSize(r, readBufferSize)
	var hdr [4]byte
	var assembling []byte // nil unless mid-way through a chunked payload
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		length := binary.LittleEndian.Uint32(hdr[:])
		more := length&chunkMore != 0
		size := length &^ uint32(chunkMore)
		if size > maxChunkSize {
			return fmt.Errorf("tcp: chunk of %d bytes exceeds limit", size)
		}
		if len(assembling)+int(size) > MaxAssembledSize {
			return fmt.Errorf("tcp: chunked payload exceeds %d bytes", MaxAssembledSize)
		}
		if assembling == nil && !more {
			// Fast path: the single-frame payload every protocol message
			// but a giant view-change sync takes.
			payload := make([]byte, size)
			if _, err := io.ReadFull(br, payload); err != nil {
				return err
			}
			fn(payload)
			continue
		}
		off := len(assembling)
		assembling = append(assembling, make([]byte, size)...)
		if _, err := io.ReadFull(br, assembling[off:]); err != nil {
			return err
		}
		if !more {
			fn(assembling)
			assembling = nil
		}
	}
}

func (t *Transport) dispatch(from transport.ProcID, payload []byte) {
	h := t.handler.Load()
	if h == nil {
		t.mu.Lock()
		// Re-read under mu: SetHandler publishes the handler under it, with
		// the backlog empty, so a payload is either queued before the
		// replay's last pass or handled after it.
		if h = t.handler.Load(); h == nil {
			t.pending = append(t.pending, pendingPayload{from: from, payload: payload})
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	(*h)(from, payload)
}

// Close implements transport.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[transport.ProcID]*peerConn{}
	t.replies = map[transport.ProcID]*peerConn{} // closed via the inbound set
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, pc := range conns {
		_ = pc.conn.Close()
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	t.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
