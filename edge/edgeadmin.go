package edge

import (
	"encoding/json"
	"time"

	"fsr/admin"
	"fsr/internal/wire"
	"fsr/transport"
)

// handleAdmin answers one KindAdmin request over the serving transport.
// Edges answer the same op vocabulary members do — an operator sweeping a
// mixed address list gets a uniform view — with edge semantics: the view ops
// report what the replica knows, and snapshot triggers are refused (an
// edge's snapshot arrives from upstream, it is never cut locally).
func (e *Edge) handleAdmin(from transport.ProcID, payload []byte) {
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
		s := admin.Status{
			Role:    "edge",
			ID:      uint32(e.cfg.Transport.Self()),
			Applied: e.store.log.Applied(),
		}
		if t, ok := e.upstreamContact(); ok {
			s.TailConnected = true
			s.TailLagMillis = time.Since(t).Milliseconds()
		}
		if err := e.Ready(0); err != nil {
			s.ReadyErr = err.Error()
		} else {
			s.Ready = true
		}
		body = &s
	case wire.AdminMembers:
		// An edge has no installed view; it knows the member IDs it was
		// configured to redirect publishers to.
		m := admin.Members{}
		for _, id := range e.cfg.Members {
			m.IDs = append(m.IDs, uint32(id))
		}
		body = &m
	case wire.AdminWAL:
		w := admin.WALInfo{}
		if ws, ok := e.store.walStats(); ok {
			w = admin.WALInfo{
				Durable:     true,
				Segments:    ws.Segments,
				Bytes:       ws.Bytes,
				Appends:     ws.Appends,
				Fsyncs:      ws.Fsyncs,
				Rotations:   ws.Rotations,
				Snapshots:   ws.Snapshots,
				SnapshotSeq: ws.SnapshotSeq,
				Repairs:     ws.Repairs,
			}
			if !ws.SnapshotTime.IsZero() {
				w.SnapshotAgeMillis = time.Since(ws.SnapshotTime).Milliseconds()
			}
		}
		body = &w
	case wire.AdminSessions:
		st := e.srv.Stats()
		body = &admin.Sessions{
			Subscribers:  st.Subs,
			TailAttached: st.TailAttached,
			EdgeClients:  st.EdgeClients,
			TailFrames:   st.TailFrames,
			TailDetaches: st.TailDetaches,
		}
	case wire.AdminSnapshot:
		body = &admin.SnapshotResult{
			Triggered: false,
			Reason:    "edges replicate snapshots from upstream",
		}
	default:
		resp.Err = "unknown admin op"
	}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Body = b
		}
	}
	_ = e.cfg.Transport.Send(from, wire.EncodeAdminResp(&resp))
}
