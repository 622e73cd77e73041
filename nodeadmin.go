package fsr

import (
	"time"

	"fsr/admin"
	"fsr/internal/serve"
	"fsr/internal/wire"
)

// newAdmin builds the member's admin responder: the shared one, handed what
// only a ring member knows — its view, and the membership ops. The event
// loop calls its Handle, so the callbacks read loop-owned state directly.
func (n *Node) newAdmin() *serve.AdminResponder {
	return &serve.AdminResponder{
		Transport: n.tr,
		Log:       n.clog,
		Server:    n.srv,
		Ready:     n.Ready,
		Role:      "member",
		Status: func(s *admin.Status) {
			s.CatchingUp, s.IsLeader = n.pump.catchingUp(), n.engine.IsLeader()
		},
		Members: func() admin.Members {
			view := n.CurrentView()
			m := admin.Members{Epoch: view.ID, T: view.T}
			for _, id := range view.Members {
				m.IDs = append(m.IDs, uint32(id))
			}
			if len(m.IDs) > 0 {
				m.Leader = m.IDs[0]
			}
			return m
		},
		Publishes: func() (accepted, duplicates, bounded uint64) {
			n.sess.mu.Lock()
			defer n.sess.mu.Unlock()
			return n.sess.pubsAccepted, n.sess.dupsFiltered, n.sess.pubsBounded
		},
		Op: n.adminOp,
	}
}

// adminOp answers the member-only admin ops, on the event loop at now.
func (n *Node) adminOp(req *wire.AdminReq, now time.Time) any {
	switch req.Op {
	case wire.AdminSnapshot:
		r := admin.SnapshotResult{Triggered: n.TriggerSnapshot()}
		if !r.Triggered {
			r.Reason = "no durable log or state machine"
		}
		return &r
	case wire.AdminEvict:
		// Force a member out of the view — the operator override for a
		// wedged or half-partitioned process the detector has not (or
		// cannot) act on. This runs on the event loop, so the membership
		// manager may be called directly; the request is relayed to the
		// coordinator when this node is not it, and evicting ourselves
		// degrades to a graceful departure.
		r := admin.EvictResult{Target: req.Target,
			Requested: n.mgr.RequestEvict(ProcID(req.Target), now)}
		if !r.Requested {
			r.Reason = "no installed view, or target not a member of it"
		}
		return &r
	case wire.AdminJoinHint:
		// Hand an unadmitted joiner a contact list to request admission
		// through — the operator nudge for a process that restarted with a
		// stale or empty member list. On the event loop, so the membership
		// manager is called directly (Join would wait for the loop).
		contacts := make([]ProcID, 0, len(req.Contacts))
		for _, c := range req.Contacts {
			contacts = append(contacts, ProcID(c))
		}
		var r admin.JoinHintResult
		switch {
		case len(contacts) == 0:
			r.Reason = "no contacts supplied"
		case n.mgr.View().ID > 0:
			r.Reason = "already a member of an installed view"
		default:
			n.mgr.RequestJoin(contacts, now)
			r.Accepted = true
		}
		return &r
	}
	return nil
}
