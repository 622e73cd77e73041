package edge_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsr"
	"fsr/internal/wal"
	"fsr/internal/wal/walfault"
	"fsr/transport/mem"
)

// TestEdgeReadyTransitions drives Edge.Ready through its states: ready
// once the upstream tail has spoken, not ready under an impossible lag
// bound, not ready with the durable store yanked, ready again when it
// returns, and finally dead-upstream once the members go away.
func TestEdgeReadyTransitions(t *testing.T) {
	net := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, fsr.MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	dir := filepath.Join(t.TempDir(), "edge")
	e := startEdge(t, net, cluster, 600, dir)
	defer e.Stop()

	// Traffic proves the tail is live; Ready follows as contact arrives.
	if _, err := cluster.Node(0).Session().Publish(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = e.Ready(0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("edge never ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// An impossibly tight lag bound must report the edge as lagging —
	// the same check that fires when the upstream goes quiet for real.
	if err := e.Ready(time.Nanosecond); err == nil ||
		!strings.Contains(err.Error(), "lagging") {
		t.Fatalf("Ready(1ns) = %v, want lag-bound error", err)
	}

	// Yank the durable store directory; readiness must follow it down
	// and back (rename, not chmod — permission bits are no-ops as root).
	hidden := dir + ".gone"
	if err := os.Rename(dir, hidden); err != nil {
		t.Fatal(err)
	}
	if err := e.Ready(0); err == nil || !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("Ready() with store dir gone = %v, want not-writable error", err)
	}
	if err := os.Rename(hidden, dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Ready(0); err != nil {
		t.Fatalf("Ready() after store dir restored = %v", err)
	}

	// With every member gone the upstream session dies; an edge serving a
	// stale tail must say so rather than claim readiness.
	cluster.Stop()
	deadline = time.Now().Add(15 * time.Second)
	for {
		if err = e.Ready(0); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge still ready with no upstream members")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestEdgePoisonedStore: a durable edge serves subscribers out of its WAL,
// so once the store is poisoned there is no stale in-memory copy to keep
// serving from. The contract is a member's — fail-stop: Ready turns red,
// the frontier never moves over an entry that cannot be read back, and
// subscribers are served by whoever else they can reach.
func TestEdgePoisonedStore(t *testing.T) {
	net := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, fsr.MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	opts := walfault.NoOneShots()
	opts.FsyncErrEvery = 1 // once armed, every fsync fails
	disk := walfault.New(nil, opts)
	disk.Disarm()
	const edgeID = 700
	e := startEdgeFS(t, net, cluster, edgeID, t.TempDir(), disk)
	defer e.Stop()

	pub, err := cluster.Dial(fsr.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ctx := context.Background()
	publish := func(n int) {
		t.Helper()
		for range n {
			r, err := pub.Publish(ctx, []byte("p"))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(20)
	waitApplied(t, e, 20)
	healthy := dialThrough(t, net, 710, []fsr.ProcID{edgeID})
	readStream(t, healthy, 1, 20)
	healthy.Close()

	// The disk goes bad: the edge's next periodic sync poisons the log.
	disk.Arm()
	deadline := time.Now().Add(10 * time.Second)
	for !e.Metrics().WAL.Poisoned {
		if time.Now().After(deadline) {
			t.Fatal("store never poisoned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := e.Ready(0); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Ready() on a poisoned store = %v, want wal.ErrPoisoned", err)
	}

	// More of the order arrives; the edge cannot store it and stops
	// serving. A subscriber that lists the edge first still gets the whole
	// stream — from the members.
	publish(5)
	tr, err := net.Join(720)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fsr.DialVia(tr, append([]fsr.ProcID{edgeID}, cluster.IDs()...), fsr.SessionOptions{
		ProbeTimeout: 300 * time.Millisecond,
		OnClose:      func() { _ = tr.Close() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	readStream(t, sub, 1, 25)
	if got := e.Applied(); got != 20 {
		t.Fatalf("poisoned edge's frontier moved to %d over entries it cannot read back", got)
	}
	if e.Ready(0) == nil {
		t.Fatal("poisoned edge reports ready")
	}
}
