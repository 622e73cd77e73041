package fsr_test

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"fsr"
	"fsr/admin"
	"fsr/edge"
	"fsr/internal/wire"
	"fsr/transport"
	"fsr/transport/mem"
)

// adminSend sends one AdminReq to a process over a raw transport endpoint
// and returns its response.
func adminSend(t *testing.T, ep transport.Transport, resp <-chan *wire.AdminResp,
	to fsr.ProcID, req *wire.AdminReq, within time.Duration) *wire.AdminResp {
	t.Helper()
	if err := ep.Send(to, wire.EncodeAdminReq(req)); err != nil {
		t.Fatalf("admin send to %d: %v", to, err)
	}
	select {
	case p := <-resp:
		if p.Op != req.Op {
			t.Fatalf("admin response op %d, want %d", p.Op, req.Op)
		}
		return p
	case <-time.After(within):
		t.Fatalf("admin op %d: no response from %d within %v", req.Op, to, within)
		return nil
	}
}

// adminAsk is adminSend for an op the process must accept: it decodes the
// response body into out.
func adminAsk(t *testing.T, ep transport.Transport, resp <-chan *wire.AdminResp,
	to fsr.ProcID, req *wire.AdminReq, out any) {
	t.Helper()
	p := adminSend(t, ep, resp, to, req, 10*time.Second)
	if p.Err != "" {
		t.Fatalf("admin op %d refused: %s", req.Op, p.Err)
	}
	if err := json.Unmarshal(p.Body, out); err != nil {
		t.Fatalf("admin op %d body: %v", req.Op, err)
	}
}

// adminEndpoint joins the network as fsr-admin would dial in — a raw
// endpoint in the client ID space — and returns it with the channel its
// responses arrive on.
func adminEndpoint(t *testing.T, network *mem.Network, id fsr.ProcID) (transport.Transport, <-chan *wire.AdminResp) {
	t.Helper()
	ep, err := network.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	resp := make(chan *wire.AdminResp, 4)
	ep.SetHandler(func(from transport.ProcID, payload []byte) {
		if v, err := wire.DecodeAdmin(payload); err == nil {
			if p, ok := v.(*wire.AdminResp); ok {
				p.Body = append([]byte(nil), p.Body...)
				resp <- p
			}
		}
	})
	return ep, resp
}

// TestAdminOpsMemberAndEdge asks a ring member, a durable edge and a
// memory-only edge — all three answer through the one admin.Responder — for
// every query op plus one nobody knows, and checks each field of each
// schema against what the hosts report through their Go APIs.
func TestAdminOpsMemberAndEdge(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()}.
		WithDurableDir(t.TempDir()).
		WithStateMachines(func(fsr.ProcID) fsr.StateMachine { return newKVSM() }),
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	member := cluster.Node(0)

	// Everything below goes through member 0, so its session counters are
	// the ones that move: two edges tailing it, one client publishing.
	via := func(id fsr.ProcID, opts fsr.SessionOptions) fsr.Session {
		t.Helper()
		tr, err := network.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		opts.OnClose = func() { _ = tr.Close() }
		s, err := fsr.DialVia(tr, []fsr.ProcID{member.Self()}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	startEdge := func(id fsr.ProcID, dir string) *edge.Edge {
		t.Helper()
		tr, err := network.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		e, err := edge.NewCore(edge.CoreConfig{
			Transport:  tr,
			Upstream:   via(id+1, fsr.SessionOptions{Edge: true}),
			Members:    cluster.IDs(),
			DurableDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Stop)
		return e
	}
	const durableEdgeID, memEdgeID = fsr.ClientIDBase + 0x100, fsr.ClientIDBase + 0x200
	durableEdge := startEdge(durableEdgeID, t.TempDir())
	memEdge := startEdge(memEdgeID, "")

	const publishes = 5
	pub := via(fsr.ClientIDBase+0x300, fsr.SessionOptions{})
	defer pub.Close()
	var last uint64
	for i := range publishes {
		r, err := pub.Publish(context.Background(), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitReceipt(t, r, 20*time.Second)
		last = r.Seq()
	}
	deadline := time.Now().Add(15 * time.Second)
	for durableEdge.Applied() < last || memEdge.Applied() < last {
		if time.Now().After(deadline) {
			t.Fatalf("edges replicated to %d and %d, want %d", durableEdge.Applied(), memEdge.Applied(), last)
		}
		time.Sleep(time.Millisecond)
	}

	view := member.CurrentView()
	var viewIDs []uint32
	for _, id := range view.Members {
		viewIDs = append(viewIDs, uint32(id))
	}
	var clusterIDs []uint32
	for _, id := range cluster.IDs() {
		clusterIDs = append(clusterIDs, uint32(id))
	}
	ep, resp := adminEndpoint(t, network, fsr.ClientIDBase+0x500)
	for _, h := range []struct {
		name     string
		to       fsr.ProcID
		isMember bool
		durable  bool
	}{
		{"member", member.Self(), true, true},
		{"durable edge", durableEdgeID, false, true},
		{"memory edge", memEdgeID, false, false},
	} {
		t.Run(h.name, func(t *testing.T) {
			var st admin.Status
			adminAsk(t, ep, resp, h.to, &wire.AdminReq{Op: wire.AdminStatus}, &st)
			want := admin.Status{Role: "edge", ID: uint32(h.to), Ready: true, TailConnected: true}
			if h.isMember {
				want = admin.Status{Role: "member", ID: uint32(h.to), Ready: true, Epoch: view.ID,
					Leader: viewIDs[0], IsLeader: uint32(h.to) == viewIDs[0]}
			}
			if st.Applied < last {
				t.Errorf("status applied %d, want >= %d", st.Applied, last)
			}
			if !h.isMember && st.TailLagMillis > 5000 {
				t.Errorf("status tail lag %d ms on a healthy upstream", st.TailLagMillis)
			}
			st.Applied, st.TailLagMillis = 0, 0
			if st != want {
				t.Errorf("status = %+v, want %+v", st, want)
			}

			var ms admin.Members
			adminAsk(t, ep, resp, h.to, &wire.AdminReq{Op: wire.AdminMembers}, &ms)
			wantIDs, wantRest := clusterIDs, admin.Members{} // an edge knows who to redirect to, no view
			if h.isMember {
				wantIDs, wantRest = viewIDs, admin.Members{Epoch: view.ID, Leader: viewIDs[0], T: view.T}
			}
			if !slices.Equal(ms.IDs, wantIDs) {
				t.Errorf("members ids = %v, want %v", ms.IDs, wantIDs)
			}
			if ms.Epoch != wantRest.Epoch || ms.Leader != wantRest.Leader || ms.T != wantRest.T {
				t.Errorf("members = %+v, want %+v", ms, wantRest)
			}

			var w admin.WALInfo
			adminAsk(t, ep, resp, h.to, &wire.AdminReq{Op: wire.AdminWAL}, &w)
			if !h.durable {
				if w != (admin.WALInfo{}) {
					t.Errorf("wal on a host without a durable dir = %+v, want the zero value", w)
				}
			} else if !w.Durable || w.Segments < 1 || w.Bytes <= 0 || w.Appends < publishes ||
				(h.isMember && w.Fsyncs < 1) || w.Repairs != 0 {
				t.Errorf("wal = %+v after %d committed publishes", w, publishes)
			}

			var ss admin.Sessions
			adminAsk(t, ep, resp, h.to, &wire.AdminReq{Op: wire.AdminSessions}, &ss)
			if h.isMember {
				// Two edges and nobody else subscribe, both on the shared tail.
				if ss.Publishes != publishes || ss.Duplicates != 0 || ss.Bounded != 0 ||
					ss.Subscribers != 2 || ss.EdgeClients != 2 || ss.TailAttached > 2 || ss.TailDetaches != 0 {
					t.Errorf("sessions = %+v", ss)
				}
			} else if ss != (admin.Sessions{}) {
				t.Errorf("sessions on an edge nobody subscribes to = %+v, want the zero value", ss)
			}

			var sn admin.SnapshotResult
			adminAsk(t, ep, resp, h.to, &wire.AdminReq{Op: wire.AdminSnapshot}, &sn)
			wantSnap := admin.SnapshotResult{Reason: "edges replicate snapshots from upstream"}
			if h.isMember {
				wantSnap = admin.SnapshotResult{Triggered: true}
			}
			if sn != wantSnap {
				t.Errorf("snapshot = %+v, want %+v", sn, wantSnap)
			}

			const noSuchOp = 99
			p := adminSend(t, ep, resp, h.to, &wire.AdminReq{Op: noSuchOp}, 10*time.Second)
			if p.Err != "unknown admin op" || len(p.Body) != 0 {
				t.Errorf("op %d answered err=%q body=%q", noSuchOp, p.Err, p.Body)
			}
		})
	}
	// The snapshot the member was asked for lands, and the wal op shows it.
	deadline = time.Now().Add(15 * time.Second)
	for {
		var w admin.WALInfo
		adminAsk(t, ep, resp, member.Self(), &wire.AdminReq{Op: wire.AdminWAL}, &w)
		if w.Snapshots == 1 && w.SnapshotSeq >= last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("triggered snapshot never showed in wal = %+v", w)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdminEvictAndJoinHint drives the operator membership ops end to end:
// evict relayed through a non-coordinator forces a live member out of the
// view (and the evictee fail-stops), and a contact-less joiner sits idle
// until a join-hint hands it members to request admission through.
func TestAdminEvictAndJoinHint(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(
		fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	awaitView := func(n *fsr.Node, want int) fsr.ViewInfo {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			v := n.CurrentView()
			if len(v.Members) == want {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d stuck with view %v, want %d members", n.Self(), v.Members, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	awaitView(cluster.Node(0), 3)

	// A raw admin endpoint in the client ID space, as fsr-admin would dial.
	ep, err := network.Join(fsr.ClientIDBase + 0x500)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	resp := make(chan *wire.AdminResp, 4)
	ep.SetHandler(func(from transport.ProcID, payload []byte) {
		if len(payload) == 0 || payload[0] != wire.KindAdmin {
			return
		}
		v, err := wire.DecodeAdmin(payload)
		if err != nil {
			return
		}
		if p, ok := v.(*wire.AdminResp); ok {
			p.Body = append([]byte(nil), p.Body...)
			resp <- p
		}
	})

	// Evicting a non-member is refused outright.
	var ev admin.EvictResult
	adminAsk(t, ep, resp, 1, &wire.AdminReq{Op: wire.AdminEvict, Target: 77}, &ev)
	if ev.Requested {
		t.Fatalf("evict of non-member 77 accepted: %+v", ev)
	}

	// Evict member 2 through member 1 — not the coordinator, so the
	// request must be relayed — and watch the view shrink to {0, 1}.
	adminAsk(t, ep, resp, 1, &wire.AdminReq{Op: wire.AdminEvict, Target: 2}, &ev)
	if !ev.Requested {
		t.Fatalf("evict of member 2 refused: %+v", ev)
	}
	v := awaitView(cluster.Node(0), 2)
	for _, m := range v.Members {
		if m == 2 {
			t.Fatalf("member 2 still in view %v after evict", v.Members)
		}
	}

	// A joiner booted with no contacts has no one to ask for admission;
	// the join-hint hands it the membership and it joins.
	jcfg := fastConfig()
	jcfg.Self = 7
	jcfg.Joiner = true
	jep, err := network.Join(7)
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := fsr.NewNode(jcfg, jep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Stop)
	var jh admin.JoinHintResult
	adminAsk(t, ep, resp, 7, &wire.AdminReq{Op: wire.AdminJoinHint, Contacts: []uint32{0, 1}}, &jh)
	if !jh.Accepted {
		t.Fatalf("join hint refused: %+v", jh)
	}
	v = awaitView(joiner, 3)
	found := false
	for _, m := range v.Members {
		found = found || m == 7
	}
	if !found {
		t.Fatalf("joiner 7 not in its installed view %v", v.Members)
	}
	// A second hint against the now-admitted member is refused politely.
	adminAsk(t, ep, resp, 7, &wire.AdminReq{Op: wire.AdminJoinHint, Contacts: []uint32{0, 1}}, &jh)
	if jh.Accepted {
		t.Fatal("join hint accepted by an admitted member")
	}
}
