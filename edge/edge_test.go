package edge_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsr"
	"fsr/edge"
	"fsr/internal/wal"
	"fsr/transport/mem"
)

// startEdge attaches one edge replica to a mem-transport cluster: a
// serving endpoint subscribers dial, plus an upstream session to the
// members with the edge role.
func startEdge(t *testing.T, net *mem.Network, cluster *fsr.Cluster, serveID fsr.ProcID, durableDir string) *edge.Edge {
	t.Helper()
	return startEdgeFS(t, net, cluster, serveID, durableDir, nil)
}

// startEdgeFS is startEdge with the durable store on a chosen filesystem
// (nil selects the real one).
func startEdgeFS(t *testing.T, net *mem.Network, cluster *fsr.Cluster, serveID fsr.ProcID, durableDir string, fs wal.FS) *edge.Edge {
	t.Helper()
	serveTr, err := net.Join(serveID)
	if err != nil {
		t.Fatal(err)
	}
	upTr, err := net.Join(serveID + 1)
	if err != nil {
		t.Fatal(err)
	}
	up, err := fsr.DialVia(upTr, cluster.IDs(), fsr.SessionOptions{
		Edge:    true,
		OnClose: func() { _ = upTr.Close() },
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := edge.NewCoreFS(edge.CoreConfig{
		Transport:  serveTr,
		Upstream:   up,
		Members:    cluster.IDs(),
		DurableDir: durableDir,
	}, fs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dialThrough opens a client session pinned to the given serving IDs.
func dialThrough(t *testing.T, net *mem.Network, id fsr.ProcID, targets []fsr.ProcID) fsr.Session {
	t.Helper()
	tr, err := net.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fsr.DialVia(tr, targets, fsr.SessionOptions{
		OnClose: func() { _ = tr.Close() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitApplied(t *testing.T, e *edge.Edge, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for e.Applied() < want {
		if time.Now().After(deadline) {
			t.Fatalf("edge replicated to %d, want %d", e.Applied(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// readStream reads n messages starting at from, asserting the offsets are
// consecutive.
func readStream(t *testing.T, s fsr.Session, from uint64, n int) []fsr.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []fsr.Message
	next := from
	for _, m := range s.Subscribe(ctx, from) {
		if m.Snapshot {
			next = m.Seq + 1
			continue
		}
		if m.Seq != next {
			t.Fatalf("stream gap: got seq %d, want %d", m.Seq, next)
		}
		next = m.Seq + 1
		got = append(got, m)
		if len(got) == n {
			break
		}
	}
	if len(got) != n {
		t.Fatalf("read %d of %d messages (session err: %v)", len(got), n, s.Err())
	}
	return got
}

const edgeServeID = fsr.ClientIDBase + 0x100000

// TestEdgeServesSubscribers: an edge replica tails the order from the
// ring and serves it to a subscriber — history from its store, then the
// live tail — without that subscriber ever touching a member.
func TestEdgeServesSubscribers(t *testing.T) {
	net := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, fsr.MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	pub, err := cluster.Dial(fsr.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ctx := context.Background()
	const history = 50
	for i := 0; i < history; i++ {
		r, err := pub.Publish(ctx, []byte(fmt.Sprintf("m-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	e := startEdge(t, net, cluster, edgeServeID, "")
	defer e.Stop()
	waitApplied(t, e, history)

	sub := dialThrough(t, net, fsr.ClientIDBase+0x200000, []fsr.ProcID{edgeServeID})
	defer sub.Close()
	got := readStream(t, sub, 1, history)
	if string(got[0].Payload) != "m-0" || string(got[history-1].Payload) != fmt.Sprintf("m-%d", history-1) {
		t.Fatalf("payload mismatch: first %q last %q", got[0].Payload, got[history-1].Payload)
	}

	// Live tail: messages published after the subscriber caught up flow
	// through the edge's encode-once fan-out.
	done := make(chan error, 1)
	go func() {
		subCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		n := uint64(history + 1)
		for _, m := range sub.Subscribe(subCtx, n) {
			if m.Seq != n {
				done <- fmt.Errorf("live tail gap: got %d want %d", m.Seq, n)
				return
			}
			if n++; n == history+11 {
				done <- nil
				return
			}
		}
		done <- fmt.Errorf("live tail ended early at %d", n)
	}()
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(ctx, []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TailFrames == 0 {
		t.Fatalf("edge never used the shared tail: %+v", st)
	}
	if m := e.Metrics(); m.StoreEntries != history+10 || m.StoreBase != 0 {
		t.Fatalf("memory edge holds %d entries above horizon %d, want %d above 0", m.StoreEntries, m.StoreBase, history+10)
	}
}

// TestEdgePublishRedirectsToMembers: a publisher whose session lands on a
// read-only edge is bounced to the writable members and its publish
// commits exactly once — the address list may freely mix edges and
// members.
func TestEdgePublishRedirectsToMembers(t *testing.T) {
	net := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, fsr.MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	e := startEdge(t, net, cluster, edgeServeID, "")
	defer e.Stop()

	// Pinned to the edge only: the first publish must migrate the session
	// to a member via the NOT-WRITABLE redirect.
	pub := dialThrough(t, net, fsr.ClientIDBase+0x200000, []fsr.ProcID{edgeServeID})
	defer pub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := pub.Publish(ctx, []byte("via-edge"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatalf("publish through edge never committed: %v", err)
	}
	if r.Seq() != 1 {
		t.Fatalf("publish committed at %d, want 1", r.Seq())
	}
	if st := e.Stats(); st.NotWritable == 0 {
		t.Fatalf("edge accepted a publish: %+v", st)
	}
	// Exactly once despite the migration: offset 1 is the only committed
	// message, readable back through the edge.
	waitApplied(t, e, 1)
	sub := dialThrough(t, net, fsr.ClientIDBase+0x200002, []fsr.ProcID{edgeServeID})
	defer sub.Close()
	got := readStream(t, sub, 1, 1)
	if string(got[0].Payload) != "via-edge" {
		t.Fatalf("read back %q", got[0].Payload)
	}
}

// TestEdgeDurableRestart: a durable edge restarted on its store serves
// the replicated history immediately — out of its WAL, without loading it
// into memory — and resumes tailing where it left off, refetching only
// what it missed.
func TestEdgeDurableRestart(t *testing.T) {
	net := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, fsr.MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	dir := t.TempDir()

	pub, err := cluster.Dial(fsr.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ctx := context.Background()
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			r, err := pub.Publish(ctx, []byte("d"))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	publish(30)
	e := startEdge(t, net, cluster, edgeServeID, dir)
	waitApplied(t, e, 30)
	e.Stop()

	publish(10) // committed while the edge was down

	e2 := startEdge(t, net, cluster, edgeServeID+2, dir)
	defer e2.Stop()
	if got := e2.Applied(); got < 30 {
		t.Fatalf("restarted edge serves from %d, want the stored 30", got)
	}
	waitApplied(t, e2, 40)
	sub := dialThrough(t, net, fsr.ClientIDBase+0x200000, []fsr.ProcID{edgeServeID + 2})
	defer sub.Close()
	readStream(t, sub, 1, 40)
	if m := e2.Metrics(); m.StoreEntries != 0 || m.WAL.Appends != 10 {
		t.Fatalf("durable edge holds %d entries in memory and appended %d after restart, want 0 and the 10 it missed",
			m.StoreEntries, m.WAL.Appends)
	}
}
