package fsr_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsr"
	"fsr/transport/mem"
)

// waitReceipt blocks until r resolves or the test deadline trips.
func waitReceipt(t *testing.T, r *fsr.Receipt, timeout time.Duration) {
	t.Helper()
	select {
	case <-r.Delivered():
	case <-time.After(timeout):
		t.Fatal("receipt never resolved")
	}
}

// TestReceiptDeliveredOnUniformity: the receipt resolves, carries the
// sequence number the message was delivered at, and agrees with the
// delivery stream.
func TestReceiptDeliveredOnUniformity(t *testing.T) {
	c := newCluster(t, 4, 1)
	ctx := context.Background()
	r, err := c.Node(2).Session().Publish(ctx, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	waitReceipt(t, r, 20*time.Second)
	if err := r.Err(); err != nil {
		t.Fatalf("receipt error: %v", err)
	}
	// The receipt resolved at the broadcaster, meaning the message is
	// stable at leader+backup; every node delivers it at the same seq.
	for i := range 4 {
		msgs := collect(t, c.Node(i), 1)
		if msgs[0].Seq != r.Seq() {
			t.Fatalf("node %d delivered at seq %d, receipt says %d", i, msgs[0].Seq, r.Seq())
		}
		if string(msgs[0].Payload) != "durable" {
			t.Fatalf("node %d payload %q", i, msgs[0].Payload)
		}
	}
}

// TestReceiptAcrossLeaderCrash is the acceptance scenario: the sequencer
// crashes while broadcasts are in flight, and every receipt still resolves
// — uniform delivery holds across the view change (survivors re-broadcast
// pending messages under the new leader, keeping their identities).
func TestReceiptAcrossLeaderCrash(t *testing.T) {
	const nodes = 5
	// Per-hop latency keeps the batch genuinely in flight when the leader
	// dies: a full ring pass takes ~nodes*latency, far longer than the gap
	// between the broadcasts and the crash below.
	network := mem.NewNetwork(mem.Options{Latency: 2 * time.Millisecond})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: nodes, T: 2, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	ctx := context.Background()
	const inflight = 15
	receipts := make([]*fsr.Receipt, inflight)
	for i := range inflight {
		r, err := c.Node(3).Session().Publish(ctx, []byte(fmt.Sprintf("mid-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		receipts[i] = r
	}
	c.Crash(0) // the sequencer, mid-stream

	if _, ok := c.WaitView(3, nodes-1, 10*time.Second); !ok {
		t.Fatal("post-crash view never installed")
	}
	seqs := make(map[uint64]int, inflight)
	for i, r := range receipts {
		waitReceipt(t, r, 20*time.Second)
		if err := r.Err(); err != nil {
			t.Fatalf("receipt %d failed across leader crash: %v", i, err)
		}
		if r.Seq() == 0 {
			t.Fatalf("receipt %d resolved without a sequence number", i)
		}
		seqs[r.Seq()]++
	}
	if len(seqs) != inflight {
		t.Fatalf("receipts share sequence numbers: %v", seqs)
	}
	// Survivors actually delivered what the receipts promised.
	got := collect(t, c.Node(1), inflight)
	for i, m := range got {
		if want := fmt.Sprintf("mid-%d", i); string(m.Payload) != want {
			t.Fatalf("survivor delivery %d = %q, want %q", i, m.Payload, want)
		}
	}
}

// TestReceiptFailsOnStop: a broadcast that cannot complete resolves with
// ErrStopped when the node halts, instead of hanging its waiter forever.
func TestReceiptFailsOnStop(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	// Sever node 2's outbound links: its broadcast can never leave.
	network.CutLink(c.IDs()[2], c.IDs()[0])
	network.CutLink(c.IDs()[2], c.IDs()[1])
	r, err := c.Node(2).Session().Publish(context.Background(), []byte("stranded"))
	if err != nil {
		t.Fatal(err)
	}
	c.Node(2).Stop()
	waitReceipt(t, r, 10*time.Second)
	if r.Err() != fsr.ErrStopped {
		t.Fatalf("receipt err = %v, want ErrStopped", r.Err())
	}
	if r.Seq() != 0 {
		t.Fatalf("failed receipt carries seq %d", r.Seq())
	}
}

// TestReceiptOriginCrashesPreSequencing: the origin fail-stops before its
// broadcast could reach the sequencer (outbound links severed, then a full
// transport-level crash). The receipt must resolve with ErrStopped — the
// documented "node stopped, message may or may not survive" outcome — not
// hang waiting for a delivery that can never be observed.
func TestReceiptOriginCrashesPreSequencing(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	// Stranded: nothing node 2 sends can leave it.
	network.CutLink(c.IDs()[2], c.IDs()[0])
	network.CutLink(c.IDs()[2], c.IDs()[1])
	r, err := c.Node(2).Session().Publish(context.Background(), []byte("unsequenced"))
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	waitReceipt(t, r, 10*time.Second)
	if r.Err() != fsr.ErrStopped {
		t.Fatalf("receipt err = %v, want ErrStopped", r.Err())
	}
	if r.Seq() != 0 {
		t.Fatalf("failed receipt carries seq %d", r.Seq())
	}
}

// TestReceiptOriginLeavesMidFlight: a node departs gracefully with its own
// broadcasts still in flight. Each receipt must resolve definitively —
// either Delivered (the group sequenced it before honoring the leave) or
// ErrStopped (the departure took the message with it) — and a Delivered
// receipt's message must actually reach the survivors.
func TestReceiptOriginLeavesMidFlight(t *testing.T) {
	// Latency keeps the batch genuinely in flight when the leave lands.
	network := mem.NewNetwork(mem.Options{Latency: 2 * time.Millisecond})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 4, T: 1, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	ctx := context.Background()
	const inflight = 10
	receipts := make([]*fsr.Receipt, inflight)
	for i := range inflight {
		r, err := c.Node(3).Session().Publish(ctx, []byte(fmt.Sprintf("leaving-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		receipts[i] = r
	}
	if !c.Node(3).Leave() {
		t.Fatal("leave not accepted")
	}
	if _, ok := c.WaitView(0, 3, 10*time.Second); !ok {
		t.Fatal("leave view never installed")
	}
	delivered := 0
	for i, r := range receipts {
		waitReceipt(t, r, 20*time.Second)
		switch err := r.Err(); err {
		case nil:
			delivered++
			if r.Seq() == 0 {
				t.Fatalf("receipt %d delivered without a sequence number", i)
			}
		case fsr.ErrStopped:
			// Definite: the departure preempted the broadcast.
		default:
			t.Fatalf("receipt %d resolved with undocumented error %v", i, err)
		}
	}
	// Survivors deliver exactly the messages whose receipts said Delivered.
	got := collect(t, c.Node(0), delivered)
	for _, m := range got {
		if m.Origin != c.IDs()[3] {
			t.Fatalf("unexpected origin %d", m.Origin)
		}
	}
}

// TestReceiptWaitAfterClusterStop: waiting on a receipt after the whole
// cluster was stopped must return ErrStopped immediately, not hang — the
// shutdown path fails every outstanding receipt before the node exits.
func TestReceiptWaitAfterClusterStop(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	// Strand node 2's broadcast so it cannot resolve by delivery first.
	network.CutLink(c.IDs()[2], c.IDs()[0])
	network.CutLink(c.IDs()[2], c.IDs()[1])
	r, err := c.Node(2).Session().Publish(context.Background(), []byte("orphaned"))
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Wait(ctx); err != fsr.ErrStopped {
		t.Fatalf("Wait after Cluster.Stop = %v, want ErrStopped", err)
	}
	// And the no-context accessors agree without blocking.
	if r.Err() != fsr.ErrStopped || r.Seq() != 0 {
		t.Fatalf("post-stop receipt: err=%v seq=%d", r.Err(), r.Seq())
	}
}

// TestReceiptWaitHonorsContext: Wait returns on ctx cancellation without
// resolving the receipt.
func TestReceiptWaitHonorsContext(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()},
		fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	network.CutLink(c.IDs()[2], c.IDs()[0])
	network.CutLink(c.IDs()[2], c.IDs()[1])
	r, err := c.Node(2).Session().Publish(context.Background(), []byte("stuck"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := r.Wait(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
}

// TestMetricsSnapshot: counters move, roles are reported, and the publish
// latency histogram reflects resolved receipts.
func TestMetricsSnapshot(t *testing.T) {
	c := newCluster(t, 3, 1)
	ctx := context.Background()
	const sends = 5
	for i := range sends {
		r, err := c.Node(1).Session().Publish(ctx, []byte(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		waitReceipt(t, r, 20*time.Second)
	}
	leader, follower := c.Node(0).Metrics(), c.Node(1).Metrics()
	if !leader.IsLeader || follower.IsLeader {
		t.Fatalf("leader flags wrong: %v %v", leader.IsLeader, follower.IsLeader)
	}
	if leader.Sequenced < sends {
		t.Errorf("leader sequenced %d < %d", leader.Sequenced, sends)
	}
	if follower.Delivered < sends {
		t.Errorf("follower delivered %d < %d", follower.Delivered, sends)
	}
	if follower.PublishLatency.Count != sends {
		t.Errorf("latency samples %d, want %d", follower.PublishLatency.Count, sends)
	}
	if follower.PendingReceipts != 0 {
		t.Errorf("pending receipts %d after all resolved", follower.PendingReceipts)
	}
	if got := len(leader.View.Members); got != 3 {
		t.Errorf("metrics view has %d members", got)
	}
	c.Node(2).Stop()
	if m := c.Node(2).Metrics(); m.FramesIn != 0 || m.View.ID != 0 {
		t.Errorf("stopped node metrics not zero: %+v", m)
	}
}
