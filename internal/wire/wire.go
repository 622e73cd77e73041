// Package wire defines the on-the-wire message vocabulary of the FSR stack
// and its binary codec.
//
// Three subsystems share the transport; every transport payload starts with
// a one-byte channel kind so the node dispatcher can route it:
//
//	KindFSR     — a Frame: ring traffic (data segments + piggybacked acks)
//	KindVSC     — a view-change control message (encoded by package vsc)
//	KindFD      — a failure-detector heartbeat (encoded by package fd)
//	KindCatchup — a durable-log catch-up request/response (crash recovery)
//	KindClient  — the client sub-protocol (non-member publish/subscribe)
//	KindAdmin   — the operator sub-protocol (status/introspection queries)
//
// Ring frames additionally carry a protocol version byte right after the
// kind, and the client HELLO handshake negotiates a session version — see
// version.go for the compat policy (same-major interop; unknown kinds and
// incompatible-version frames are skipped by receivers, never fatal).
//
// The codec is hand-rolled little-endian (stdlib encoding/binary): the frame
// encoder sits on the hot path of every hop, so it avoids reflection and
// allocates exactly one buffer per frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fsr/internal/ring"
)

// Channel kinds (first byte of every transport payload).
const (
	KindFSR byte = iota + 1
	KindVSC
	KindFD
	KindCatchup
	KindClient
	KindAdmin
)

// ErrTruncated is returned when a buffer ends before a complete value.
var ErrTruncated = errors.New("wire: truncated buffer")

// MsgID uniquely identifies one broadcast segment system-wide: the origin
// process plus an origin-local counter.
type MsgID struct {
	Origin ring.ProcID
	Local  uint64
}

func (id MsgID) String() string { return fmt.Sprintf("%d/%d", id.Origin, id.Local) }

// DataItem is one message segment traveling clockwise around the ring.
//
// Seq == 0 marks pass A (the raw body heading for the sequencer); Seq > 0
// marks pass B (the sequenced body emitted by the leader). Part/Parts carry
// the segmentation of the logical application message: the segment is one
// independent TO-broadcast, and the logical message is delivered when its
// last segment is TO-delivered.
type DataItem struct {
	ID    MsgID
	Seq   uint64
	Part  uint32
	Parts uint32
	Body  []byte
}

// AckItem is the small pass-C acknowledgment: it carries the sequence number
// to pass-A holders, the uniform-stability flag, and its remaining hop
// budget (number of receptions left before the ack dies).
type AckItem struct {
	ID     MsgID
	Seq    uint64
	Hops   uint32
	Stable bool
}

// Frame is one transport frame between ring neighbors: at most a handful of
// data segments plus piggybacked acks, all tagged with the sender's view
// epoch so stale traffic from a previous view is discarded.
type Frame struct {
	// Ver is the protocol version the frame was encoded under (see
	// version.go). Zero means "this build's CurrentVersion" on encode; the
	// decoder records what the peer actually sent.
	Ver    byte
	ViewID uint64
	Data   []DataItem
	Acks   []AckItem
}

// Encoded sizes of the fixed parts, used by EncodedSize and the decoder.
const (
	frameHeaderSize = 1 + 8 + 2 + 2         // version + viewID + nData + nAcks
	dataFixedSize   = 4 + 8 + 8 + 4 + 4 + 4 // origin local seq part parts bodyLen
	ackSize         = 4 + 8 + 8 + 4 + 1     // origin local seq hops stable
)

// EncodedSize returns the exact number of bytes EncodeFrame will produce,
// including the leading channel-kind byte. The network simulator uses it to
// model link occupancy without materializing buffers.
func (f *Frame) EncodedSize() int {
	n := 1 + frameHeaderSize
	for i := range f.Data {
		n += dataFixedSize + len(f.Data[i].Body)
	}
	n += ackSize * len(f.Acks)
	return n
}

// EncodeFrame serializes f, prefixed with KindFSR, into a fresh buffer.
// The hot path uses AppendFrame with a pooled buffer instead.
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, f.EncodedSize()), f)
}

// AppendFrame appends the serialized form of f (prefixed with KindFSR) to
// dst and returns the extended slice. With a dst of sufficient capacity it
// performs no allocation; the frame encoder runs on every ring hop, so the
// node drives it with pooled buffers (GetBuf/PutBuf).
func AppendFrame(dst []byte, f *Frame) []byte {
	buf := dst
	if rem := cap(buf) - len(buf); rem < f.EncodedSize() {
		grown := make([]byte, len(buf), len(buf)+f.EncodedSize())
		copy(grown, buf)
		buf = grown
	}
	ver := f.Ver
	if ver == 0 {
		ver = CurrentVersion
	}
	buf = append(buf, KindFSR, ver)
	buf = binary.LittleEndian.AppendUint64(buf, f.ViewID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Data)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Acks)))
	for i := range f.Data {
		d := &f.Data[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.ID.Origin))
		buf = binary.LittleEndian.AppendUint64(buf, d.ID.Local)
		buf = binary.LittleEndian.AppendUint64(buf, d.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, d.Part)
		buf = binary.LittleEndian.AppendUint32(buf, d.Parts)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Body)))
		buf = append(buf, d.Body...)
	}
	for i := range f.Acks {
		a := &f.Acks[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.ID.Origin))
		buf = binary.LittleEndian.AppendUint64(buf, a.ID.Local)
		buf = binary.LittleEndian.AppendUint64(buf, a.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, a.Hops)
		var st byte
		if a.Stable {
			st = 1
		}
		buf = append(buf, st)
	}
	return buf
}

// DecodeFrame parses a buffer produced by EncodeFrame. The buffer must
// include the leading KindFSR byte. Body slices alias buf; callers that
// retain bodies beyond the life of buf must copy them.
func DecodeFrame(buf []byte) (*Frame, error) {
	var f Frame
	if err := DecodeFrameInto(&f, buf); err != nil {
		return nil, err
	}
	return &f, nil
}

// DecodeFrameInto parses buf into f, reusing f's Data and Acks capacity —
// the pooled-decoder half of the zero-alloc frame path (see GetFrame).
// All item bodies alias buf (the decoder materializes nothing: every body
// is a view into the one backing buffer the transport handed over), so buf
// is owned by the protocol layer from here on. On error f's contents are
// unspecified.
func DecodeFrameInto(f *Frame, buf []byte) error {
	r := reader{buf: buf}
	kind, err := r.u8()
	if err != nil {
		return err
	}
	if kind != KindFSR {
		return fmt.Errorf("wire: frame kind %d, want %d", kind, KindFSR)
	}
	ver, err := r.u8()
	if err != nil {
		return err
	}
	if !CompatibleVersion(ver) {
		return fmt.Errorf("%w: frame version %d.%d, this build speaks %d.x",
			ErrVersion, VersionMajor(ver), VersionMinor(ver), ProtoMajor)
	}
	f.Ver = ver
	f.Data = f.Data[:0]
	f.Acks = f.Acks[:0]
	if f.ViewID, err = r.u64(); err != nil {
		return err
	}
	nData, err := r.u16()
	if err != nil {
		return err
	}
	nAcks, err := r.u16()
	if err != nil {
		return err
	}
	// Bound the counts by the remaining bytes before growing any slice, so
	// a forged header cannot force a large allocation.
	if int(nData)*dataFixedSize+int(nAcks)*ackSize > r.rem() {
		return ErrTruncated
	}
	for i := 0; i < int(nData); i++ {
		var d DataItem
		if err := decodeDataInto(&r, &d); err != nil {
			return err
		}
		f.Data = append(f.Data, d)
	}
	for i := 0; i < int(nAcks); i++ {
		var a AckItem
		if err := decodeAckInto(&r, &a); err != nil {
			return err
		}
		f.Acks = append(f.Acks, a)
	}
	if r.rem() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame", r.rem())
	}
	return nil
}

func decodeDataInto(r *reader, d *DataItem) error {
	origin, err := r.u32()
	if err != nil {
		return err
	}
	d.ID.Origin = ring.ProcID(origin)
	if d.ID.Local, err = r.u64(); err != nil {
		return err
	}
	if d.Seq, err = r.u64(); err != nil {
		return err
	}
	if d.Part, err = r.u32(); err != nil {
		return err
	}
	if d.Parts, err = r.u32(); err != nil {
		return err
	}
	bodyLen, err := r.u32()
	if err != nil {
		return err
	}
	if d.Body, err = r.bytes(int(bodyLen)); err != nil {
		return err
	}
	return nil
}

func decodeAckInto(r *reader, a *AckItem) error {
	origin, err := r.u32()
	if err != nil {
		return err
	}
	a.ID.Origin = ring.ProcID(origin)
	if a.ID.Local, err = r.u64(); err != nil {
		return err
	}
	if a.Seq, err = r.u64(); err != nil {
		return err
	}
	if a.Hops, err = r.u32(); err != nil {
		return err
	}
	st, err := r.u8()
	if err != nil {
		return err
	}
	a.Stable = st != 0
	return nil
}

// reader is a bounds-checked little-endian cursor over a byte slice.
type reader struct {
	buf []byte
	off int
}

func (r *reader) rem() int { return len(r.buf) - r.off }

func (r *reader) u8() (byte, error) {
	if r.rem() < 1 {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.rem() < 2 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.rem() < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.rem() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// blob reads a u32 length and that many bytes.
func (r *reader) blob() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.rem() < n {
		return nil, ErrTruncated
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v, nil
}

// Catch-up message types (second byte of a KindCatchup payload).
//
// Catch-up is the crash-recovery companion of the durable log: a restarted
// process, after rebuilding from its own snapshot + WAL, asks a peer for
// the suffix of the delivered total order it missed while down. Entries are
// reassembled application messages keyed by the global sequence number of
// their final segment — exactly what the WAL stores — so the response can
// be applied to the state machine directly, without re-running the
// protocol.
const (
	catchupReq byte = iota + 1
	catchupResp
)

// ErrBadCatchup reports an undecodable catch-up payload.
var ErrBadCatchup = errors.New("wire: bad catch-up payload")

// ErrUnknownType reports a well-formed payload whose message type byte this
// build does not know: a newer minor's message, which receivers skip (see
// the compat policy in version.go). DecodeCatchup returns it, and so does
// the view-change control codec.
var ErrUnknownType = errors.New("wire: unknown message type")

// CatchupReq asks a peer for the delivered messages in (After, UpTo].
type CatchupReq struct {
	// After is the requester's last applied sequence number.
	After uint64
	// UpTo bounds the transfer: the requester needs nothing beyond it
	// (messages past it arrive through live ring traffic).
	UpTo uint64
}

// CatchupResp carries one page of a catch-up transfer.
type CatchupResp struct {
	// Unavailable means the peer keeps no durable log and cannot serve.
	Unavailable bool
	// HasSnapshot marks a state-transfer response: the requester is so far
	// behind that the peer has truncated the entries it needs, so it hands
	// over its latest state-machine snapshot (taken at SnapSeq) instead,
	// followed by the entries after it.
	HasSnapshot bool
	SnapSeq     uint64
	Snapshot    []byte
	// UpTo echoes the request's range bound, so the requester can tell
	// which of its (possibly superseded) requests this page answers:
	// More=false and Ceiling only speak about the range up to UpTo.
	UpTo uint64
	// More reports that entries in the requested range remain beyond this
	// page; the requester asks again from the last entry it received.
	More bool
	// Ceiling is the server's authority bound: every entry of the total
	// order with sequence number <= Ceiling that will EVER exist is already
	// in the server's log. A server whose delivery pipeline is fully
	// drained can vouch for everything below its engine cursor; one with
	// deliveries still in flight vouches only for what it has applied.
	// With More unset, a requester whose target lies at or below Ceiling
	// knows the absent sequence numbers in its range are dead — consumed
	// by segments of broadcasts that never completed (e.g. the origin
	// crashed mid-message) — and stops waiting for them.
	Ceiling uint64
	Entries []ClientEventEntry
}

// EncodeCatchupReq serializes q, prefixed with KindCatchup.
func EncodeCatchupReq(q *CatchupReq) []byte {
	buf := make([]byte, 0, 2+16)
	buf = append(buf, KindCatchup, catchupReq)
	buf = binary.LittleEndian.AppendUint64(buf, q.After)
	buf = binary.LittleEndian.AppendUint64(buf, q.UpTo)
	return buf
}

// EncodeCatchupResp serializes p, prefixed with KindCatchup. The body
// after the header is the page body an EVENT carries (appendPageBody).
func EncodeCatchupResp(p *CatchupResp) []byte {
	buf := make([]byte, 0, 2+1+8+8+pageBodySize(p.HasSnapshot, p.Snapshot, p.Entries))
	buf = append(buf, KindCatchup, catchupResp)
	var flags byte
	if p.Unavailable {
		flags |= 1
	}
	if p.HasSnapshot {
		flags |= 2
	}
	if p.More {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, p.UpTo)
	buf = binary.LittleEndian.AppendUint64(buf, p.Ceiling)
	return appendPageBody(buf, p.HasSnapshot, p.SnapSeq, p.Snapshot, p.Entries)
}

// DecodeCatchup parses a KindCatchup payload into *CatchupReq or
// *CatchupResp. Like DecodeFrame it never panics on arbitrary bytes, and
// byte slices in the result alias buf.
func DecodeCatchup(buf []byte) (any, error) {
	r := reader{buf: buf}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	if kind != KindCatchup {
		return nil, fmt.Errorf("%w: kind %d", ErrBadCatchup, kind)
	}
	typ, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch typ {
	case catchupReq:
		var q CatchupReq
		if q.After, err = r.u64(); err != nil {
			return nil, err
		}
		if q.UpTo, err = r.u64(); err != nil {
			return nil, err
		}
		if r.rem() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCatchup, r.rem())
		}
		return &q, nil
	case catchupResp:
		var p CatchupResp
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		p.Unavailable = flags&1 != 0
		p.HasSnapshot = flags&2 != 0
		p.More = flags&4 != 0
		if p.UpTo, err = r.u64(); err != nil {
			return nil, err
		}
		if p.Ceiling, err = r.u64(); err != nil {
			return nil, err
		}
		if err := readPageBody(&r, p.HasSnapshot, &p.SnapSeq, &p.Snapshot, &p.Entries); err != nil {
			return nil, err
		}
		if r.rem() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCatchup, r.rem())
		}
		return &p, nil
	default:
		return nil, fmt.Errorf("%w: catch-up type %d", ErrUnknownType, typ)
	}
}
