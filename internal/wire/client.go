package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"fsr/internal/ring"
)

// Client sub-protocol (KindClient payloads).
//
// Clients are NOT ring members: they use the total order without being part
// of the ordering core. A client speaks this small request/response
// vocabulary to any one group member over the ordinary transport; the
// member broadcasts on the client's behalf and streams the committed order
// back. The client's transport identity (the ProcID it handshakes with) IS
// its client ID — frames therefore never repeat it.
//
// Message types (second byte of a KindClient payload):
//
//	HELLO     client → member  announce/refresh a session
//	PUBLISH   client → member  submit one payload, client-assigned PubID
//	PUBACK    member → client  the publish is committed (durable) at Seq
//	SUBSCRIBE client → member  stream the committed order from an offset
//	EVENT     member → client  one page of the order (or snapshot/keepalive)
//	REDIRECT  member → client  welcome / view changed / cannot serve
//
// PubIDs are assigned by the client, consecutively from 1, so a publish
// retried across a member crash or redirect is idempotent: members dedup
// against the committed order before broadcasting, and every member filters
// duplicate (client, PubID) pairs out of the delivered order at apply time
// — the same deterministic decision everywhere, since it is a pure
// function of the order itself.
const (
	clientHello byte = iota + 1
	clientPublish
	clientPubAck
	clientSubscribe
	clientEvent
	clientRedirect
)

// ErrBadClient reports an undecodable client-channel payload.
var ErrBadClient = errors.New("wire: bad client payload")

// Session roles announced in HELLO. An edge replica is a read-only
// fan-out node tailing the log through an ordinary session; members use
// the role for metrics/diagnostics only — the protocol is identical.
const (
	RoleClient byte = 0
	RoleEdge   byte = 1
)

// ClientHello opens or refreshes a session with the serving member. The
// member answers with a ClientRedirect carrying the current view and its
// applied frontier (RedirectWelcome).
type ClientHello struct {
	// MaxEventBytes caps one EVENT frame's payload bytes (0 = server
	// default); lets constrained clients bound their buffers.
	MaxEventBytes uint32
	// Role distinguishes ordinary clients from edge replicas (RoleEdge).
	Role byte
	// Version is the wire protocol version the client speaks (see
	// version.go). Encoders stamp CurrentVersion when it is 0; 1.0 clients
	// predate the field and the decoder fills in MakeVersion(1, 0) when the
	// trailing byte is absent.
	Version byte
}

// ClientPublish submits one payload for total order broadcast on the
// client's behalf.
type ClientPublish struct {
	// PubID is the client-assigned identity of this publish (consecutive
	// from 1). Retries reuse the PubID; commits dedup on it.
	PubID   uint64
	Payload []byte
	// Frame is the whole encoded frame a decoded publish came from
	// (Payload is Frame[ClientPublishHeader:]); nil on a value built for
	// encoding. The serving member turns the frame into its ring envelope
	// in place instead of copying the payload out of it.
	Frame []byte
}

// ClientPublishHeader is the encoded size of everything a PUBLISH frame
// carries before its payload: kind, type, PubID and payload length. The
// payload is the rest of the frame.
const ClientPublishHeader = 2 + 8 + 4

// ClientPubAck confirms that a publish is committed: persisted by the
// serving member at sequence number Seq of the total order. Seq can be 0
// when the publish was a duplicate of one committed long ago whose position
// the member no longer remembers (it is committed either way).
type ClientPubAck struct {
	PubID uint64
	Seq   uint64
}

// ClientSubscribe starts (or re-homes, after a reconnect) one subscription.
type ClientSubscribe struct {
	// SubID distinguishes concurrent subscriptions of one client; a
	// SUBSCRIBE with a known SubID replaces that subscription's cursor.
	SubID uint64
	// From is the first offset wanted (messages with Seq >= From). 0 means
	// "live tail": start at whatever commits next.
	From uint64
	// Cancel tears the subscription down instead of (re)starting it.
	Cancel bool
}

// ClientEventEntry is one committed message of the order.
type ClientEventEntry struct {
	Seq     uint64
	Origin  ring.ProcID
	Logical uint64
	Payload []byte
}

// ClientEvent carries one page of a subscription's stream: either a batch
// of committed messages in seq order, or (first, when the subscription
// resumed below the member's WAL truncation point) a state snapshot at
// SnapSeq, or nothing at all — an idle keepalive proving the subscription
// is still being served.
//
// Three flag bits extend the per-subscription stream with the shared
// encode-once tail (see internal/serve):
//
//   - Attach (Sub = subscription): from here on, this subscription is fed
//     by the link's shared tail frames instead of private pages.
//   - Tail (Sub = 0): one batch of the shared tail, folded into EVERY
//     attached subscription of the link (offset dedup per subscription).
//     With no entries it doubles as the attached-mode keepalive.
//   - Detach (Sub = 0): every attached subscription of the link reverts
//     to private paging (the server fell behind for this link and will
//     re-page it up to date before re-attaching).
type ClientEvent struct {
	// Sub names the subscription this page belongs to (0 for Tail/Detach
	// frames, which are link-wide).
	Sub         uint64
	HasSnapshot bool
	Tail        bool
	Attach      bool
	Detach      bool
	SnapSeq     uint64
	Snapshot    []byte
	Entries     []ClientEventEntry
}

// Redirect reasons.
const (
	// RedirectWelcome acknowledges a HELLO.
	RedirectWelcome byte = iota + 1
	// RedirectView announces an installed view change; the member keeps
	// serving, the client may prefer members of the new view.
	RedirectView
	// RedirectBye announces that the member stops serving (leaving or
	// evicted); the client should fail over now.
	RedirectBye
	// RedirectCannotServe answers a SUBSCRIBE the member cannot satisfy
	// (offset below its horizon and no snapshot); try another member.
	RedirectCannotServe
	// RedirectNotWritable answers a PUBLISH sent to a read-only edge
	// replica: the session must move publishes to a real ring member
	// (Members/Addrs say which).
	RedirectNotWritable
)

// ClientRedirect points the client at the group: the current view members
// (Members[0] is the leader) and the member's applied frontier.
type ClientRedirect struct {
	Reason  byte
	Applied uint64
	Members []ring.ProcID
	// Addrs optionally carries dialable addresses for Members (same order)
	// for deployments where transport IDs alone are not dialable (TCP
	// clients behind an edge learn the ring members' listen addresses from
	// a RedirectNotWritable).
	Addrs []string
	// Sub names the subscription a RedirectCannotServe answers; 0 for
	// session-wide redirects.
	Sub uint64
	// Version is the serving member's wire protocol version, echoed in the
	// RedirectWelcome so a client can refuse a major-incompatible server.
	// Same encode/decode defaulting as ClientHello.Version.
	Version byte
}

// EncodeClientHello serializes h, prefixed with KindClient.
func EncodeClientHello(h *ClientHello) []byte {
	buf := make([]byte, 0, 2+4+1+1)
	buf = append(buf, KindClient, clientHello)
	buf = binary.LittleEndian.AppendUint32(buf, h.MaxEventBytes)
	ver := h.Version
	if ver == 0 {
		ver = CurrentVersion
	}
	buf = append(buf, h.Role, ver)
	return buf
}

// EncodeClientPublish serializes p, prefixed with KindClient.
func EncodeClientPublish(p *ClientPublish) []byte {
	buf := make([]byte, 0, ClientPublishHeader+len(p.Payload))
	buf = append(buf, KindClient, clientPublish)
	buf = binary.LittleEndian.AppendUint64(buf, p.PubID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Payload)))
	buf = append(buf, p.Payload...)
	return buf
}

// EncodeClientPubAck serializes a, prefixed with KindClient.
func EncodeClientPubAck(a *ClientPubAck) []byte {
	buf := make([]byte, 0, 2+16)
	buf = append(buf, KindClient, clientPubAck)
	buf = binary.LittleEndian.AppendUint64(buf, a.PubID)
	buf = binary.LittleEndian.AppendUint64(buf, a.Seq)
	return buf
}

// EncodeClientSubscribe serializes s, prefixed with KindClient.
func EncodeClientSubscribe(s *ClientSubscribe) []byte {
	buf := make([]byte, 0, 2+17)
	buf = append(buf, KindClient, clientSubscribe)
	buf = binary.LittleEndian.AppendUint64(buf, s.SubID)
	buf = binary.LittleEndian.AppendUint64(buf, s.From)
	var c byte
	if s.Cancel {
		c = 1
	}
	buf = append(buf, c)
	return buf
}

// clientEventEntryFixed is the encoded size of an entry minus its payload.
const clientEventEntryFixed = 8 + 4 + 8 + 4

// clientEventSize is the exact encoded size of e.
func clientEventSize(e *ClientEvent) int {
	n := 2 + 8 + 1 + 4
	if e.HasSnapshot {
		n += 8 + 4 + len(e.Snapshot)
	}
	for i := range e.Entries {
		n += clientEventEntryFixed + len(e.Entries[i].Payload)
	}
	return n
}

// EncodeClientEvent serializes e, prefixed with KindClient.
func EncodeClientEvent(e *ClientEvent) []byte {
	return AppendClientEvent(nil, e)
}

// AppendClientEvent appends e's encoding to buf and returns the extended
// slice, growing buf at most once (a tail frame of a hundred 8 KiB entries
// would otherwise double its way up through a dozen reallocations). The
// fan-out hot path encodes into pooled buffers with it.
func AppendClientEvent(buf []byte, e *ClientEvent) []byte {
	buf = slices.Grow(buf, clientEventSize(e))
	buf = append(buf, KindClient, clientEvent)
	buf = binary.LittleEndian.AppendUint64(buf, e.Sub)
	var flags byte
	if e.HasSnapshot {
		flags |= 1
	}
	if e.Tail {
		flags |= 2
	}
	if e.Attach {
		flags |= 4
	}
	if e.Detach {
		flags |= 8
	}
	buf = append(buf, flags)
	if e.HasSnapshot {
		buf = binary.LittleEndian.AppendUint64(buf, e.SnapSeq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Snapshot)))
		buf = append(buf, e.Snapshot...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Entries)))
	for i := range e.Entries {
		en := &e.Entries[i]
		buf = binary.LittleEndian.AppendUint64(buf, en.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(en.Origin))
		buf = binary.LittleEndian.AppendUint64(buf, en.Logical)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(en.Payload)))
		buf = append(buf, en.Payload...)
	}
	return buf
}

// EncodeClientRedirect serializes r, prefixed with KindClient.
func EncodeClientRedirect(r *ClientRedirect) []byte {
	n := 2 + 1 + 8 + 8 + 2 + 4*len(r.Members) + 2 + 1
	for _, a := range r.Addrs {
		n += 2 + len(a)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, KindClient, clientRedirect)
	buf = append(buf, r.Reason)
	buf = binary.LittleEndian.AppendUint64(buf, r.Applied)
	buf = binary.LittleEndian.AppendUint64(buf, r.Sub)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Members)))
	for _, m := range r.Members {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Addrs)))
	for _, a := range r.Addrs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	ver := r.Version
	if ver == 0 {
		ver = CurrentVersion
	}
	buf = append(buf, ver)
	return buf
}

// DecodeClient parses a KindClient payload into one of the *Client types.
// Like the other decoders it never panics on arbitrary bytes and byte
// slices in the result alias buf.
func DecodeClient(buf []byte) (any, error) {
	r := reader{buf: buf}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	if kind != KindClient {
		return nil, fmt.Errorf("%w: kind %d", ErrBadClient, kind)
	}
	typ, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch typ {
	case clientHello:
		var h ClientHello
		if h.MaxEventBytes, err = r.u32(); err != nil {
			return nil, err
		}
		if h.Role, err = r.u8(); err != nil {
			return nil, err
		}
		if h.Version, err = versionTail(&r); err != nil {
			return nil, err
		}
		return &h, trailing(&r)
	case clientPublish:
		p := ClientPublish{Frame: buf}
		if p.PubID, err = r.u64(); err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if p.Payload, err = r.bytes(int(n)); err != nil {
			return nil, err
		}
		return &p, trailing(&r)
	case clientPubAck:
		var a ClientPubAck
		if a.PubID, err = r.u64(); err != nil {
			return nil, err
		}
		if a.Seq, err = r.u64(); err != nil {
			return nil, err
		}
		return &a, trailing(&r)
	case clientSubscribe:
		var s ClientSubscribe
		if s.SubID, err = r.u64(); err != nil {
			return nil, err
		}
		if s.From, err = r.u64(); err != nil {
			return nil, err
		}
		c, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Cancel = c != 0
		return &s, trailing(&r)
	case clientEvent:
		var e ClientEvent
		if e.Sub, err = r.u64(); err != nil {
			return nil, err
		}
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		e.HasSnapshot = flags&1 != 0
		e.Tail = flags&2 != 0
		e.Attach = flags&4 != 0
		e.Detach = flags&8 != 0
		if e.HasSnapshot {
			if e.SnapSeq, err = r.u64(); err != nil {
				return nil, err
			}
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			if e.Snapshot, err = r.bytes(int(n)); err != nil {
				return nil, err
			}
		}
		count, err := r.u32()
		if err != nil {
			return nil, err
		}
		if uint64(count)*clientEventEntryFixed > uint64(r.rem()) {
			return nil, ErrTruncated // forged count; refuse to allocate
		}
		if count > 0 {
			e.Entries = make([]ClientEventEntry, count)
		}
		for i := range e.Entries {
			en := &e.Entries[i]
			if en.Seq, err = r.u64(); err != nil {
				return nil, err
			}
			origin, err := r.u32()
			if err != nil {
				return nil, err
			}
			en.Origin = ring.ProcID(origin)
			if en.Logical, err = r.u64(); err != nil {
				return nil, err
			}
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			if en.Payload, err = r.bytes(int(n)); err != nil {
				return nil, err
			}
		}
		return &e, trailing(&r)
	case clientRedirect:
		var rd ClientRedirect
		if rd.Reason, err = r.u8(); err != nil {
			return nil, err
		}
		if rd.Applied, err = r.u64(); err != nil {
			return nil, err
		}
		if rd.Sub, err = r.u64(); err != nil {
			return nil, err
		}
		count, err := r.u16()
		if err != nil {
			return nil, err
		}
		if int(count)*4 > r.rem() {
			return nil, ErrTruncated
		}
		for i := 0; i < int(count); i++ {
			m, err := r.u32()
			if err != nil {
				return nil, err
			}
			rd.Members = append(rd.Members, ring.ProcID(m))
		}
		acount, err := r.u16()
		if err != nil {
			return nil, err
		}
		if int(acount)*2 > r.rem() {
			return nil, ErrTruncated
		}
		for i := 0; i < int(acount); i++ {
			n, err := r.u16()
			if err != nil {
				return nil, err
			}
			b, err := r.bytes(int(n))
			if err != nil {
				return nil, err
			}
			rd.Addrs = append(rd.Addrs, string(b))
		}
		if rd.Version, err = versionTail(&r); err != nil {
			return nil, err
		}
		return &rd, trailing(&r)
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadClient, typ)
	}
}

// trailing rejects leftover bytes after a complete client message.
func trailing(r *reader) error {
	if r.rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadClient, r.rem())
	}
	return nil
}

// versionTail reads the optional trailing version byte of a handshake
// message. Messages from 1.0 speakers end before it; their absence means
// "version 1.0", which keeps old clients decodable forever.
func versionTail(r *reader) (byte, error) {
	if r.rem() == 0 {
		return MakeVersion(1, 0), nil
	}
	return r.u8()
}
