package edge_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
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
	// Publish once the subscription has attached to the shared tail:
	// published earlier, the ten can reach it as private pages and leave
	// the tail nothing to carry.
	for deadline := time.Now().Add(15 * time.Second); e.Metrics().TailAttached < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the live subscription never attached to the shared tail: %+v", e.Metrics())
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(ctx, []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := e.Metrics(); st.TailFrames == 0 {
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
	if st := e.Metrics(); st.NotWritable == 0 {
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

// linesSM is a state machine whose state is every payload applied so far,
// one per line.
type linesSM struct {
	mu    sync.Mutex
	lines []byte
}

func (s *linesSM) Apply(m fsr.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = append(append(s.lines, m.Payload...), '\n')
}

func (s *linesSM) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Clone(s.lines), nil
}

func (s *linesSM) Restore(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = bytes.Clone(data)
	return nil
}

// TestEdgeReplicatesAcrossSnapshot: an edge that starts tailing below the
// members' WAL truncation point receives a state transfer, installs it as
// its snapshot floor and commits the frontier to it; its own subscribers,
// asking from offset 1, get that application snapshot once and then every
// later entry exactly once, in order, through to the live tail — from the
// ring and from the WAL alike.
func TestEdgeReplicatesAcrossSnapshot(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			net := mem.NewNetwork(mem.Options{})
			cfg := fsr.ClusterConfig{N: 3, T: 1}.WithDurableDir(t.TempDir()).
				WithStateMachines(func(fsr.ProcID) fsr.StateMachine { return &linesSM{} })
			cfg.NodeConfig.SnapshotEvery = 16
			cfg.NodeConfig.WALSegmentBytes = 512
			cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(net))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			pub, err := cluster.Dial(fsr.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			next := 0
			publish := func(n int) {
				t.Helper()
				for ; n > 0; n-- {
					r, err := pub.Publish(ctx, fmt.Appendf(nil, "t%03d", next))
					if err != nil {
						t.Fatal(err)
					}
					if err := r.Wait(ctx); err != nil {
						t.Fatal(err)
					}
					next++
				}
			}
			// Every member snapshots at the end of the history, so the transfer
			// is all the edge receives: only committing the frontier to it gets
			// the edge to history.
			const history, live = 100, 10
			publish(history)
			for i := 0; i < 3; i++ {
				if !cluster.Node(i).TriggerSnapshot() {
					t.Fatalf("member %d refused a snapshot", i)
				}
				for deadline := time.Now().Add(15 * time.Second); cluster.Node(i).Metrics().WAL.SnapshotSeq != history; {
					if time.Now().After(deadline) {
						t.Fatalf("member %d never snapshotted at %d", i, history)
					}
					time.Sleep(time.Millisecond)
				}
			}

			dir := ""
			if durable {
				dir = t.TempDir()
			}
			e := startEdge(t, net, cluster, edgeServeID, dir)
			defer e.Stop()
			waitApplied(t, e, history)
			m := e.Metrics()
			if m.SnapshotSeq != history || m.StoreBase != history {
				t.Fatalf("edge's snapshot floor: base %d, snapshot %d; want %d", m.StoreBase, m.SnapshotSeq, history)
			}

			sub := dialThrough(t, net, fsr.ClientIDBase+0x200000, []fsr.ProcID{edgeServeID})
			defer sub.Close()
			var got []string
			snaps := 0
			published := false
			for off, msg := range sub.Subscribe(ctx, 1) {
				if msg.Snapshot {
					if snaps++; snaps > 1 || len(got) > 0 {
						t.Fatalf("snapshot at offset %d after %d entries (snapshot number %d)", off, len(got), snaps)
					}
					if off != m.SnapshotSeq {
						t.Fatalf("snapshot covers offset %d, the edge installed %d", off, m.SnapshotSeq)
					}
					got = strings.Split(strings.TrimSuffix(string(msg.Payload), "\n"), "\n")
				} else {
					got = append(got, string(msg.Payload))
				}
				if len(got) == history && !published {
					published = true
					publish(live) // rides the edge's shared tail
				}
				if len(got) == history+live {
					break
				}
			}
			if snaps != 1 || len(got) != history+live {
				t.Fatalf("%d snapshots and %d messages, want 1 and %d (session err: %v)", snaps, len(got), history+live, sub.Err())
			}
			for i, p := range got {
				if want := fmt.Sprintf("t%03d", i); p != want {
					t.Fatalf("position %d: got %q, want %q", i, p, want)
				}
			}
		})
	}
}
