package admin

import (
	"encoding/json"

	"fsr/internal/serve"
	"fsr/internal/wire"
	"fsr/transport"
)

// Responder is the serving side of the KindAdmin sub-protocol, the one
// implementation members and edges both answer through: it decodes, answers
// what every host answers alike — wal and sessions out of the host's Log and
// Server, the position and readiness half of status — asks the host for the
// rest, and marshals and sends the reply. The host calls Handle on whichever
// goroutine owns the state its callbacks read (a member: its event loop).
type Responder struct {
	// Transport carries the reply back over the connection the request
	// arrived on, so it reaches dialed-in clients with no listener.
	Transport transport.Transport
	Log       *serve.Log
	Server    *serve.Server
	// Role is "member" or "edge". Members is the membership as the host
	// knows it; Status adds what only the host can say about itself to a
	// status the Responder has filled with identity, view and position,
	// and Ready becomes its Ready/ReadyErr.
	Role    string
	Members func() Members
	Status  func(*Status)
	Ready   func() error
	// Publishes reports the publish-side session counters; nil on a host
	// that takes no publishes.
	Publishes func() (accepted, duplicates, bounded uint64)
	// Op answers the ops whose meaning is the host's own — snapshot, a
	// member's evict and join-hint — with the body to marshal, nil for an
	// op the host does not know.
	Op func(req *wire.AdminReq) any
}

// Handle answers one KindAdmin payload from a client. Garbage and stray
// responses are dropped without a reply.
func (r *Responder) Handle(from transport.ProcID, payload []byte) {
	v, err := wire.DecodeAdmin(payload)
	if err != nil {
		return
	}
	req, ok := v.(*wire.AdminReq)
	if !ok {
		return
	}
	resp := wire.AdminResp{Op: req.Op}
	var body any
	switch req.Op {
	case wire.AdminStatus:
		m := r.Members()
		s := Status{Role: r.Role, ID: uint32(r.Transport.Self()),
			Epoch: m.Epoch, Leader: m.Leader, Applied: r.Log.Applied()}
		r.Status(&s)
		if err := r.Ready(); err != nil {
			s.ReadyErr = err.Error()
		} else {
			s.Ready = true
		}
		body = &s
	case wire.AdminMembers:
		m := r.Members()
		body = &m
	case wire.AdminWAL:
		body = r.walInfo()
	case wire.AdminSessions:
		st := r.Server.Stats()
		s := Sessions{
			Subscribers:  st.Subs,
			TailAttached: st.TailAttached,
			EdgeClients:  st.EdgeClients,
			TailFrames:   st.TailFrames,
			TailDetaches: st.TailDetaches,
		}
		if r.Publishes != nil {
			s.Publishes, s.Duplicates, s.Bounded = r.Publishes()
		}
		body = &s
	default:
		body = r.Op(req)
	}
	if body == nil {
		resp.Err = "unknown admin op"
	} else if b, err := json.Marshal(body); err != nil {
		resp.Err = err.Error()
	} else {
		resp.Body = b
	}
	_ = r.Transport.Send(from, wire.EncodeAdminResp(&resp)) // the asker times out and retries
}

// walInfo renders the host's WAL counters in the wal op's schema; a host
// without a durable directory answers Durable false and nothing else.
func (r *Responder) walInfo() *WALInfo {
	ws, ok := r.Log.WALStats()
	if !ok {
		return &WALInfo{}
	}
	return &WALInfo{
		Durable:           true,
		Segments:          ws.Segments,
		Bytes:             ws.Bytes,
		Appends:           ws.Appends,
		Fsyncs:            ws.Fsyncs,
		Rotations:         ws.Rotations,
		Snapshots:         ws.Snapshots,
		SnapshotSeq:       ws.SnapshotSeq,
		SnapshotAgeMillis: ws.SnapshotAge.Milliseconds(),
		Repairs:           ws.Repairs,
	}
}
