package fsr

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fsr/internal/wire"
	"fsr/transport"
	"fsr/transport/mem"
)

// durableClusterCfg is a small fast cluster template for session tests.
func durableClusterCfg(t *testing.T, n int) ClusterConfig {
	t.Helper()
	return ClusterConfig{
		N: n, T: 1,
		NodeConfig: Config{
			SegmentSize:       256,
			SnapshotEvery:     32,
			WALSegmentBytes:   4096,
			HeartbeatInterval: 15 * time.Millisecond,
			FailureTimeout:    300 * time.Millisecond,
			ChangeTimeout:     400 * time.Millisecond,
		},
	}.WithDurableDir(t.TempDir())
}

// TestSessionPublishSubscribe: the basic remote-session loop — a
// non-member client publishes through one member and a second client
// subscribes from offset 1, receiving everything in order.
func TestSessionPublishSubscribe(t *testing.T) {
	cluster, err := NewCluster(durableClusterCfg(t, 3), MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	pub, err := cluster.Dial(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := cluster.Dial(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const msgs = 20
	receipts := make([]*Receipt, msgs)
	for i := range msgs {
		r, err := pub.Publish(ctx, fmt.Appendf(nil, "m%d", i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		receipts[i] = r
	}
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d not committed: %v", i, err)
		}
		if r.Seq() == 0 {
			t.Fatalf("publish %d committed without an offset", i)
		}
	}

	var got []string
	var offsets []Offset
	for off, m := range sub.Subscribe(ctx, 1) {
		if m.Snapshot {
			t.Fatalf("unexpected snapshot at offset %d", off)
		}
		if m.Origin < ClientIDBase {
			t.Fatalf("client publish delivered with member origin %d", m.Origin)
		}
		got = append(got, string(m.Payload))
		offsets = append(offsets, off)
		if len(got) == msgs {
			break
		}
	}
	for i, s := range got {
		if want := fmt.Sprintf("m%d", i); s != want {
			t.Fatalf("position %d: got %q want %q (offsets %v)", i, s, want, offsets)
		}
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			t.Fatalf("offsets not increasing: %v", offsets)
		}
	}
}

// TestSessionPublishDuringRotation: publishes keep committing exactly once
// while the leadership rotates underneath the serving member (the engine
// backpressure gate parks client publishes during each view change).
func TestSessionPublishDuringRotation(t *testing.T) {
	cluster, err := NewCluster(durableClusterCfg(t, 3), MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	s, err := cluster.Dial(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			// Ask whichever member currently leads to rotate.
			for j := range 3 {
				n := cluster.Node(j)
				if len(n.CurrentView().Members) > 0 && n.CurrentView().Members[0] == n.Self() {
					n.RotateLeader()
					break
				}
			}
		}
	}()

	const msgs = 60
	receipts := make([]*Receipt, msgs)
	for i := range msgs {
		r, err := s.Publish(ctx, fmt.Appendf(nil, "rot%d", i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		receipts[i] = r
		time.Sleep(2 * time.Millisecond)
	}
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d never committed across rotations: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Exactly once: stream the whole order and count every payload.
	seen := make(map[string]int)
	got := 0
	for _, m := range s.Subscribe(ctx, 1) {
		seen[string(m.Payload)]++
		if got++; got == msgs {
			break
		}
	}
	for i := range msgs {
		if c := seen[fmt.Sprintf("rot%d", i)]; c != 1 {
			t.Fatalf("message rot%d delivered %d times, want exactly once", i, c)
		}
	}
}

// recorderSM is a tiny state machine for snapshot tests: it records every
// applied payload and snapshots as JSON.
type recorderSM struct {
	mu  sync.Mutex
	Log []string `json:"log"`
}

func (r *recorderSM) Apply(m Message) {
	r.mu.Lock()
	r.Log = append(r.Log, string(m.Payload))
	r.mu.Unlock()
}

func (r *recorderSM) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Marshal(r.Log)
}

func (r *recorderSM) Restore(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Unmarshal(data, &r.Log)
}

// TestSessionSubscribeBelowTruncation: a subscriber resuming from an
// offset older than the members' WAL truncation point first receives the
// application snapshot (Message.Snapshot), then the retained entries,
// gap-free to the live tail.
func TestSessionSubscribeBelowTruncation(t *testing.T) {
	cfg := durableClusterCfg(t, 3)
	cfg.NodeConfig.SnapshotEvery = 16
	cfg.NodeConfig.WALSegmentBytes = 512
	cfg = cfg.WithStateMachines(func(id ProcID) StateMachine { return &recorderSM{} })
	cluster, err := NewCluster(cfg, MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s, err := cluster.Dial(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const msgs = 200 // >> SnapshotEvery: several snapshots, segments truncated
	for i := range msgs {
		r, err := s.Publish(ctx, fmt.Appendf(nil, "t%03d", i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	// Every member must have truncated its WAL behind a snapshot by now.
	first, _ := cluster.Node(0).wlog.Bounds()
	if first <= 1 {
		t.Fatalf("WAL not truncated (first retained entry %d); test needs a truncated log", first)
	}

	var snap *Message
	var after []string
	for off, m := range s.Subscribe(ctx, 1) {
		if m.Snapshot {
			if snap != nil {
				t.Fatalf("second snapshot at offset %d", off)
			}
			c := m
			snap = &c
			continue
		}
		after = append(after, string(m.Payload))
		if len(after) > 0 && string(m.Payload) == fmt.Sprintf("t%03d", msgs-1) {
			break
		}
	}
	if snap == nil {
		t.Fatal("resume below the truncation point did not start with a snapshot")
	}
	var inSnap []string
	if err := json.Unmarshal(snap.Payload, &inSnap); err != nil {
		t.Fatalf("snapshot payload is not the application snapshot: %v", err)
	}
	// Snapshot + tail must cover all msgs exactly once, in order.
	all := append(inSnap, after...)
	if len(all) != msgs {
		t.Fatalf("snapshot(%d) + tail(%d) = %d messages, want %d", len(inSnap), len(after), len(all), msgs)
	}
	for i, p := range all {
		if want := fmt.Sprintf("t%03d", i); p != want {
			t.Fatalf("position %d: got %q want %q", i, p, want)
		}
	}
}

// TestSessionDuplicatePublishRetry drives the wire protocol by hand: a
// client whose PUBACK was lost retries the same PubID — once while the
// publish is still being committed, once long after — and the group
// commits the payload exactly once, re-acking with the original offset.
func TestSessionDuplicatePublishRetry(t *testing.T) {
	net := mem.NewNetwork(mem.Options{})
	cluster, err := NewCluster(durableClusterCfg(t, 3), MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const clientID = ClientIDBase + 999
	ep, err := net.Join(clientID)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	acks := make(chan *wire.ClientPubAck, 16)
	ep.SetHandler(func(from transport.ProcID, payload []byte) {
		if msg, err := wire.DecodeClient(payload); err == nil {
			if a, ok := msg.(*wire.ClientPubAck); ok {
				acks <- a
			}
		}
	})
	member := cluster.IDs()[0]
	send := func(m []byte) {
		t.Helper()
		if err := ep.Send(member, m); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.EncodeClientHello(&wire.ClientHello{}))

	// Publish pubID 1 twice back to back: the in-flight dedup must collapse
	// them into one broadcast with one ack.
	pub := &wire.ClientPublish{PubID: 1, Payload: []byte("once-only")}
	send(wire.EncodeClientPublish(pub))
	send(wire.EncodeClientPublish(pub))
	var firstSeq uint64
	select {
	case a := <-acks:
		if a.PubID != 1 {
			t.Fatalf("ack for pub %d, want 1", a.PubID)
		}
		firstSeq = a.Seq
	case <-time.After(10 * time.Second):
		t.Fatal("publish never acked")
	}

	// Retry long after commit (the lost-ack case): must re-ack at the
	// original offset without re-broadcasting.
	send(wire.EncodeClientPublish(pub))
	select {
	case a := <-acks:
		if a.PubID != 1 || a.Seq != firstSeq {
			t.Fatalf("duplicate retry acked at (pub %d, seq %d), want (1, %d)", a.PubID, a.Seq, firstSeq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("duplicate retry never re-acked")
	}

	// The order holds the payload exactly once.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	count := 0
	for _, m := range cluster.Node(1).Session().Subscribe(ctx, 1) {
		if string(m.Payload) == "once-only" {
			if m.Origin != clientID || m.LogicalID != 1 {
				t.Fatalf("delivered with identity (%d, %d), want (%d, 1)", m.Origin, m.LogicalID, clientID)
			}
			count++
		}
		if m.Seq >= cluster.Node(1).Applied() {
			break
		}
	}
	if count != 1 {
		t.Fatalf("payload committed %d times, want exactly once", count)
	}
	if d := cluster.Node(1).Metrics().SessionDuplicates; d > 0 {
		// Duplicates filtered at apply time would mean the in-flight or
		// index dedup failed to stop a re-broadcast.
		t.Fatalf("%d duplicate publishes reached the order (dedup happened too late)", d)
	}
}

// TestSessionFailover10k is the acceptance scenario: a remote session
// publishes 10k messages while the member serving it is crashed
// mid-stream; the session reconnects to another member and every message
// is committed exactly once, in total order, while a concurrent
// Subscribe(1) stream observes the whole order gap-free.
func TestSessionFailover10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-message failover run")
	}
	cfg := durableClusterCfg(t, 3)
	cfg.NodeConfig.SegmentSize = 0 // default 8 KiB: small messages, 1 segment each
	cfg.NodeConfig.SnapshotEvery = 0
	cfg.NodeConfig.WALSegmentBytes = 1 << 20
	cluster, err := NewCluster(cfg, MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s, err := cluster.Dial(SessionOptions{
		Window:       128,
		AckTimeout:   time.Second,
		ProbeTimeout: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Concurrent subscriber from offset 1, collecting the whole order.
	type got struct {
		off Offset
		m   Message
	}
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	collected := make(chan got, 16<<10)
	go func() {
		for off, m := range s.Subscribe(subCtx, 1) {
			collected <- got{off: off, m: m}
		}
		close(collected)
	}()

	const msgs = 10_000
	const crashAt = 2_000 // commit count at which the serving member dies
	receipts := make([]*Receipt, msgs)
	crashed := make(chan struct{})
	crashWhenDelivered := make(chan *Receipt, 1)
	go func() {
		// The session binds to members[0] first (rotation order), so that
		// is the serving member to kill mid-stream.
		<-(<-crashWhenDelivered).Delivered()
		cluster.Crash(0)
		close(crashed)
	}()
	for i := range msgs {
		r, err := s.Publish(ctx, fmt.Appendf(nil, "bulk-%05d", i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		receipts[i] = r
		if i == crashAt-1 {
			crashWhenDelivered <- r
		}
	}
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d lost across the crash: %v", i, err)
		}
	}
	<-crashed

	// Every payload exactly once, in publish order, at increasing offsets.
	want := 0
	var lastOff Offset
	for g := range collected {
		if g.m.Snapshot {
			t.Fatalf("unexpected snapshot at offset %d", g.off)
		}
		if g.off <= lastOff {
			t.Fatalf("offsets not increasing: %d after %d", g.off, lastOff)
		}
		lastOff = g.off
		if payload := fmt.Sprintf("bulk-%05d", want); string(g.m.Payload) != payload {
			t.Fatalf("position %d: got %q want %q (duplicate, gap or reorder)", want, g.m.Payload, payload)
		}
		if want++; want == msgs {
			break
		}
	}
	if want != msgs {
		t.Fatalf("subscriber saw %d messages, want %d", want, msgs)
	}

	// Survivors agree and filtered exactly the duplicates the retries sent.
	// (The receipts resolve at the member that acked; the other survivor's
	// pump may still be applying the last batch — wait for it, bounded.)
	var m1, m2 Metrics
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		m1, m2 = cluster.Node(1).Metrics(), cluster.Node(2).Metrics()
		if m1.Applied == m2.Applied || time.Now().After(deadline) {
			break
		}
	}
	if m1.Applied != m2.Applied {
		t.Fatalf("survivors disagree on applied frontier: %d vs %d", m1.Applied, m2.Applied)
	}
	t.Logf("applied frontier %d; duplicates filtered: %d (node1)", m1.Applied, m1.SessionDuplicates)
}

// TestClientPubFIFOGate pins the backpressure-drop FIFO invariant: once a
// member drops a client publish uncommitted (per-client bound, parked
// overflow, broadcast error), it must refuse every HIGHER pubID from that
// client until the dropped one commits or is re-offered. Without the gate
// a selective drop leaves an interior hole in the client's stream that
// the sorted retry later fills out of FIFO order — found by the wan-geo
// chaos profile at soak scale, where WAN ack latency keeps enough
// publishes in flight to trip the bounds (see
// TestChaosWanGeoSoakPinned in internal/harness).
func TestClientPubFIFOGate(t *testing.T) {
	s := newSessSrv(nil)
	const cid = ClientIDBase + 9
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.gateAllows(cid, 30) {
		t.Fatal("gate refused with nothing dropped")
	}
	s.gateDrop(cid, 29)
	if s.gateAllows(cid, 30) {
		t.Fatal("pub 30 admitted past dropped, uncommitted 29")
	}
	if !s.gateAllows(cid, 28) {
		t.Fatal("pub 28 refused: an ID below the gate is always FIFO-safe")
	}
	if !s.gateAllows(cid, 29) {
		t.Fatal("re-offered 29 refused")
	}
	if !s.gateAllows(cid, 30) {
		t.Fatal("pub 30 refused after the gate lifted")
	}
	// Dropping twice keeps the lowest hole as the gate.
	s.gateDrop(cid, 44)
	s.gateDrop(cid, 41)
	if s.gateAllows(cid, 42) {
		t.Fatal("pub 42 admitted past dropped 41")
	}
	// A gate also resolves when its publish commits through ANOTHER member
	// (the index is global state): the client will never re-offer it here.
	s.index.add(cid, 41, 107)
	if !s.gateAllows(cid, 42) {
		t.Fatal("pub 42 refused after 41 committed elsewhere")
	}
}

// TestNodeSessionInProcess: Node.Session gives the identical interface in
// process — publish through one member's session, subscribe on another's.
func TestNodeSessionInProcess(t *testing.T) {
	cluster, err := NewCluster(durableClusterCfg(t, 3), MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := cluster.Node(0).Session()
	const msgs = 10
	for i := range msgs {
		r, err := s.Publish(ctx, fmt.Appendf(nil, "p%d", i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	var got []string
	for _, m := range cluster.Node(2).Session().Subscribe(ctx, 1) {
		got = append(got, string(m.Payload))
		if len(got) == msgs {
			break
		}
	}
	for i, sGot := range got {
		if want := fmt.Sprintf("p%d", i); sGot != want {
			t.Fatalf("position %d: got %q want %q", i, sGot, want)
		}
	}
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
}
