// Binary codec for the view-change control messages (KindVSC payloads).
// Same hand-rolled little-endian style as package wire; control traffic is
// rare (membership changes only), so clarity wins over micro-optimization,
// but the format still round-trips recovery bodies without re-encoding.

package vsc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fsr/internal/core"
	"fsr/internal/ring"
	"fsr/internal/wire"
)

// Control message types.
const (
	msgPrepare byte = iota + 1
	msgState
	msgNewView
	msgJoinReq
	msgLeaveReq
	msgSuspicion
	msgFence
	msgEpochSuspicion
)

// ErrBadControl reports an undecodable control payload.
var ErrBadControl = errors.New("vsc: bad control payload")

// Prepare opens a view change: the coordinator asks every proposed member
// to freeze and report its recovery state.
type Prepare struct {
	Epoch   uint64
	Coord   ring.ProcID
	Members []ring.ProcID // proposed new-view order
	T       int
}

// State is one member's flush contribution.
type State struct {
	Epoch    uint64
	From     ring.ProcID
	Joiner   bool // true: exclude Recovery from the merge (fresh process)
	Recovery core.RecoveryState
}

// NewView finalizes a view change: agreed membership plus the merged sync.
type NewView struct {
	Epoch   uint64
	Coord   ring.ProcID
	Members []ring.ProcID
	T       int
	Sync    core.Sync
}

// JoinReq asks the coordinator to admit a new process. Incarnation
// distinguishes successive lives of one process ID (see Config): it lets
// the coordinator recognize a crash-restarted member that the failure
// detector never caught, and deduplicate retransmissions within one life.
type JoinReq struct {
	ID          ring.ProcID
	Incarnation uint64
}

// LeaveReq asks the coordinator to exclude a (still live) process.
type LeaveReq struct{ ID ring.ProcID }

// Suspicion forwards a failure-detector suspicion to the coordinator.
// Only the coordinator acts on suspicions (it drives the view change), so
// under an ASYMMETRIC fault — the suspected member silent toward the
// suspecting member but perfectly audible to the coordinator — the
// suspicion would otherwise die where it was observed and the ring edge
// through the silent pair would stay wedged forever (bug #16, found by the
// asym-partition chaos profile). A non-coordinator therefore reports what
// it saw; the coordinator treats the report exactly like a local
// suspicion. This build sends EpochSuspicion; a Suspicion is an older one's.
type Suspicion struct{ ID ring.ProcID }

// EpochSuspicion is a Suspicion stamped with the epoch of the view its
// reporter held, so the coordinator can drop one raised in an older view
// (see handleSuspicion). It is a type of its own because the compat policy
// forbids appending a field to Suspicion (internal/wire version.go).
type EpochSuspicion struct {
	Epoch uint64
	ID    ring.ProcID
}

// Fence carries the sender's installed view. A member stalled in its view
// sends it to the rest of that view, and a member holding a newer view
// answers with its own, so a member whose NEWVIEW was lost learns that the
// group moved on without it instead of sitting in its old view for good.
type Fence struct {
	Epoch   uint64
	Members []ring.ProcID
}

type writer struct{ buf []byte }

func (w *writer) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) members(ms []ring.ProcID) {
	w.u16(uint16(len(ms)))
	for _, m := range ms {
		w.u32(uint32(m))
	}
}

type creader struct {
	buf []byte
	off int
}

func (r *creader) rem() int { return len(r.buf) - r.off }
func (r *creader) u8() (byte, error) {
	if r.rem() < 1 {
		return 0, ErrBadControl
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}
func (r *creader) u16() (uint16, error) {
	if r.rem() < 2 {
		return 0, ErrBadControl
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}
func (r *creader) u32() (uint32, error) {
	if r.rem() < 4 {
		return 0, ErrBadControl
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}
func (r *creader) u64() (uint64, error) {
	if r.rem() < 8 {
		return 0, ErrBadControl
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}
func (r *creader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil || int(n) > r.rem() {
		return nil, ErrBadControl
	}
	v := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v, nil
}
func (r *creader) members() ([]ring.ProcID, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	ms := make([]ring.ProcID, n)
	for i := range ms {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		ms[i] = ring.ProcID(v)
	}
	return ms, nil
}

// EncodePrepare serializes a Prepare.
func EncodePrepare(p *Prepare) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgPrepare}}
	w.u64(p.Epoch)
	w.u32(uint32(p.Coord))
	w.members(p.Members)
	w.u16(uint16(p.T))
	return w.buf
}

// EncodeState serializes a State, including recovery bodies.
func EncodeState(s *State) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgState}}
	w.u64(s.Epoch)
	w.u32(uint32(s.From))
	if s.Joiner {
		w.u8(1)
	} else {
		w.u8(0)
	}
	encodeRecovery(w, &s.Recovery)
	return w.buf
}

// EncodeNewView serializes a NewView, including sync bodies.
func EncodeNewView(nv *NewView) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgNewView}}
	w.u64(nv.Epoch)
	w.u32(uint32(nv.Coord))
	w.members(nv.Members)
	w.u16(uint16(nv.T))
	w.u64(nv.Sync.StartSeq)
	w.u32(uint32(len(nv.Sync.Sequenced)))
	for i := range nv.Sync.Sequenced {
		encodeSequenced(w, &nv.Sync.Sequenced[i])
	}
	return w.buf
}

// EncodeJoinReq serializes a JoinReq.
func EncodeJoinReq(j *JoinReq) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgJoinReq}}
	w.u32(uint32(j.ID))
	w.u64(j.Incarnation)
	return w.buf
}

// EncodeLeaveReq serializes a LeaveReq.
func EncodeLeaveReq(l *LeaveReq) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgLeaveReq}}
	w.u32(uint32(l.ID))
	return w.buf
}

// EncodeEpochSuspicion serializes an EpochSuspicion.
func EncodeEpochSuspicion(s *EpochSuspicion) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgEpochSuspicion}}
	w.u64(s.Epoch)
	w.u32(uint32(s.ID))
	return w.buf
}

// EncodeFence serializes a Fence.
func EncodeFence(f *Fence) []byte {
	w := &writer{buf: []byte{wire.KindVSC, msgFence}}
	w.u64(f.Epoch)
	w.members(f.Members)
	return w.buf
}

func encodeRecovery(w *writer, rs *core.RecoveryState) {
	w.u64(rs.NextDeliver)
	w.u32(uint32(len(rs.Sequenced)))
	for i := range rs.Sequenced {
		encodeSequenced(w, &rs.Sequenced[i])
	}
	w.u32(uint32(len(rs.OwnPending)))
	for i := range rs.OwnPending {
		p := &rs.OwnPending[i]
		w.u32(uint32(p.ID.Origin))
		w.u64(p.ID.Local)
		w.u32(p.Part)
		w.u32(p.Parts)
		w.bytes(p.Body)
	}
}

func encodeSequenced(w *writer, m *core.SequencedMsg) {
	w.u32(uint32(m.ID.Origin))
	w.u64(m.ID.Local)
	w.u64(m.Seq)
	w.u32(m.Part)
	w.u32(m.Parts)
	w.bytes(m.Body)
}

func decodeSequenced(r *creader) (core.SequencedMsg, error) {
	var m core.SequencedMsg
	origin, err := r.u32()
	if err != nil {
		return m, err
	}
	m.ID.Origin = ring.ProcID(origin)
	if m.ID.Local, err = r.u64(); err != nil {
		return m, err
	}
	if m.Seq, err = r.u64(); err != nil {
		return m, err
	}
	if m.Part, err = r.u32(); err != nil {
		return m, err
	}
	if m.Parts, err = r.u32(); err != nil {
		return m, err
	}
	if m.Body, err = r.bytes(); err != nil {
		return m, err
	}
	return m, nil
}

func decodeRecovery(r *creader) (core.RecoveryState, error) {
	var rs core.RecoveryState
	var err error
	if rs.NextDeliver, err = r.u64(); err != nil {
		return rs, err
	}
	nSeq, err := r.u32()
	if err != nil {
		return rs, err
	}
	for range nSeq {
		m, err := decodeSequenced(r)
		if err != nil {
			return rs, err
		}
		rs.Sequenced = append(rs.Sequenced, m)
	}
	nOwn, err := r.u32()
	if err != nil {
		return rs, err
	}
	for range nOwn {
		var p core.PendingMsg
		origin, err := r.u32()
		if err != nil {
			return rs, err
		}
		p.ID.Origin = ring.ProcID(origin)
		if p.ID.Local, err = r.u64(); err != nil {
			return rs, err
		}
		if p.Part, err = r.u32(); err != nil {
			return rs, err
		}
		if p.Parts, err = r.u32(); err != nil {
			return rs, err
		}
		if p.Body, err = r.bytes(); err != nil {
			return rs, err
		}
		rs.OwnPending = append(rs.OwnPending, p)
	}
	return rs, nil
}

// Decode parses any KindVSC payload into one of the message structs.
func Decode(payload []byte) (any, error) {
	r := &creader{buf: payload}
	kind, err := r.u8()
	if err != nil || kind != wire.KindVSC {
		return nil, fmt.Errorf("%w: kind", ErrBadControl)
	}
	typ, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgPrepare:
		var p Prepare
		if p.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		coord, err := r.u32()
		if err != nil {
			return nil, err
		}
		p.Coord = ring.ProcID(coord)
		if p.Members, err = r.members(); err != nil {
			return nil, err
		}
		t16, err := r.u16()
		if err != nil {
			return nil, err
		}
		p.T = int(t16)
		return &p, nil
	case msgState:
		var s State
		if s.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		from, err := r.u32()
		if err != nil {
			return nil, err
		}
		s.From = ring.ProcID(from)
		j, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Joiner = j != 0
		if s.Recovery, err = decodeRecovery(r); err != nil {
			return nil, err
		}
		return &s, nil
	case msgNewView:
		var nv NewView
		if nv.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		coord, err := r.u32()
		if err != nil {
			return nil, err
		}
		nv.Coord = ring.ProcID(coord)
		if nv.Members, err = r.members(); err != nil {
			return nil, err
		}
		t16, err := r.u16()
		if err != nil {
			return nil, err
		}
		nv.T = int(t16)
		if nv.Sync.StartSeq, err = r.u64(); err != nil {
			return nil, err
		}
		nMsgs, err := r.u32()
		if err != nil {
			return nil, err
		}
		for range nMsgs {
			m, err := decodeSequenced(r)
			if err != nil {
				return nil, err
			}
			nv.Sync.Sequenced = append(nv.Sync.Sequenced, m)
		}
		return &nv, nil
	case msgJoinReq:
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		inc, err := r.u64()
		if err != nil {
			return nil, err
		}
		return &JoinReq{ID: ring.ProcID(id), Incarnation: inc}, nil
	case msgLeaveReq:
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		return &LeaveReq{ID: ring.ProcID(id)}, nil
	case msgSuspicion:
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		return &Suspicion{ID: ring.ProcID(id)}, nil
	case msgEpochSuspicion:
		epoch, err := r.u64()
		if err != nil {
			return nil, err
		}
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		return &EpochSuspicion{Epoch: epoch, ID: ring.ProcID(id)}, nil
	case msgFence:
		var f Fence
		if f.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
		if f.Members, err = r.members(); err != nil {
			return nil, err
		}
		return &f, nil
	default:
		return nil, fmt.Errorf("%w: control type %d", wire.ErrUnknownType, typ)
	}
}
