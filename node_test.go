package fsr_test

import (
	"bytes"
	"context"
	"fmt"
	"iter"
	"sync"
	"testing"
	"time"

	"fsr"
	"fsr/transport/mem"
)

// fastConfig keeps failure detection snappy for tests.
func fastConfig() fsr.Config {
	return fsr.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		FailureTimeout:    150 * time.Millisecond,
		ChangeTimeout:     300 * time.Millisecond,
	}
}

func newCluster(t *testing.T, n, tol int) *fsr.Cluster {
	t.Helper()
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: n, T: tol, NodeConfig: fastConfig()},
		fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// cursors remembers, per node, the offset the last collect stopped at, so
// successive collects on one node continue its stream.
var cursors sync.Map // *fsr.Node -> fsr.Offset

// collect reads the next want messages of node's committed order (with a
// deadline), starting at offset 1 on first use.
func collect(t *testing.T, node *fsr.Node, want int) []fsr.Message {
	t.Helper()
	if want == 0 {
		return nil
	}
	from := fsr.Offset(1)
	if last, ok := cursors.Load(node); ok {
		from = last.(fsr.Offset) + 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out := take(t, node, node.Session().Subscribe(ctx, from), want)
	cursors.Store(node, out[want-1].Seq)
	t.Cleanup(func() { cursors.Delete(node) })
	return out
}

// take reads exactly want messages from one of node's subscriptions; the
// subscription's context carries the deadline.
func take(t *testing.T, node *fsr.Node, stream iter.Seq2[fsr.Offset, fsr.Message], want int) []fsr.Message {
	t.Helper()
	var out []fsr.Message
	for _, m := range stream {
		if out = append(out, m); len(out) == want {
			return out
		}
	}
	t.Fatalf("node %d: stream ended after %d/%d messages", node.Self(), len(out), want)
	return nil
}

func assertSameOrder(t *testing.T, a, b []fsr.Message) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Origin != b[i].Origin || a[i].LogicalID != b[i].LogicalID ||
			!bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("order mismatch at %d: %v/%d vs %v/%d",
				i, a[i].Origin, a[i].LogicalID, b[i].Origin, b[i].LogicalID)
		}
	}
}

func TestClusterBasicBroadcast(t *testing.T) {
	c := newCluster(t, 5, 1)
	ctx := context.Background()
	const per = 10
	for i := range 5 {
		for j := range per {
			payload := []byte(fmt.Sprintf("n%d-m%d", i, j))
			if _, err := c.Node(i).Session().Publish(ctx, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	var streams [][]fsr.Message
	for i := range 5 {
		streams = append(streams, collect(t, c.Node(i), 5*per))
	}
	for i := 1; i < 5; i++ {
		assertSameOrder(t, streams[0], streams[i])
	}
}

func TestClusterLargeMessage(t *testing.T) {
	c := newCluster(t, 4, 1)
	payload := make([]byte, 300*1024) // ~37 segments at the default size
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if _, err := c.Node(2).Session().Publish(context.Background(), payload); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		msgs := collect(t, c.Node(i), 1)
		if !bytes.Equal(msgs[0].Payload, payload) {
			t.Fatalf("node %d: payload corrupted (len %d vs %d)", i, len(msgs[0].Payload), len(payload))
		}
		if msgs[0].Origin != c.Node(2).Self() {
			t.Fatalf("node %d: origin %d", i, msgs[0].Origin)
		}
	}
}

func TestClusterConcurrentBroadcasters(t *testing.T) {
	c := newCluster(t, 3, 1)
	ctx := context.Background()
	const goroutines, per = 4, 25
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := c.Node(g % 3)
			for j := range per {
				payload := []byte(fmt.Sprintf("g%d-%d", g, j))
				if _, err := node.Session().Publish(ctx, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := goroutines * per
	a := collect(t, c.Node(0), total)
	b := collect(t, c.Node(2), total)
	assertSameOrder(t, a, b)
}

func TestClusterSingleNode(t *testing.T) {
	c := newCluster(t, 1, 0)
	if _, err := c.Node(0).Session().Publish(context.Background(), []byte("solo")); err != nil {
		t.Fatal(err)
	}
	msgs := collect(t, c.Node(0), 1)
	if string(msgs[0].Payload) != "solo" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
}

func TestBroadcastContextCancel(t *testing.T) {
	c := newCluster(t, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Node(0).Session().Publish(ctx, []byte("x"))
	if err == nil {
		// Accepted before cancellation noticed — legal but unlikely; the
		// canceled context must at least not wedge the node.
		t.Log("broadcast accepted despite canceled context")
	} else if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
}

func TestBroadcastAfterStop(t *testing.T) {
	c := newCluster(t, 2, 1)
	c.Node(0).Stop()
	_, err := c.Node(0).Session().Publish(context.Background(), []byte("x"))
	if err != fsr.ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestCrashStandardMemberContinues(t *testing.T) {
	c := newCluster(t, 5, 2)
	ctx := context.Background()
	if _, err := c.Node(0).Session().Publish(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}
	c.Crash(4) // standard process
	if _, ok := c.WaitView(0, 4, 10*time.Second); !ok {
		t.Fatal("view excluding the crashed member never installed")
	}
	if _, err := c.Node(1).Session().Publish(ctx, []byte("after")); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		msgs := collect(t, c.Node(i), 2)
		if string(msgs[0].Payload) != "before" || string(msgs[1].Payload) != "after" {
			t.Fatalf("node %d got %q, %q", i, msgs[0].Payload, msgs[1].Payload)
		}
	}
}

func TestCrashLeaderContinues(t *testing.T) {
	c := newCluster(t, 5, 2)
	ctx := context.Background()
	const preload = 20
	for j := range preload {
		if _, err := c.Node(3).Session().Publish(ctx, []byte(fmt.Sprintf("pre%d", j))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(0) // the sequencer itself
	if _, ok := c.WaitView(1, 4, 10*time.Second); !ok {
		t.Fatal("post-crash view never installed")
	}
	if _, err := c.Node(2).Session().Publish(ctx, []byte("post")); err != nil {
		t.Fatal(err)
	}
	// Survivors agree on one order that contains all of node 3's preloaded
	// messages and the post-crash message.
	want := preload + 1
	var streams [][]fsr.Message
	for i := 1; i < 5; i++ {
		streams = append(streams, collect(t, c.Node(i), want))
	}
	for i := 1; i < len(streams); i++ {
		assertSameOrder(t, streams[0], streams[i])
	}
	seen := map[string]bool{}
	for _, m := range streams[0] {
		seen[string(m.Payload)] = true
	}
	for j := range preload {
		if !seen[fmt.Sprintf("pre%d", j)] {
			t.Fatalf("pre-crash message pre%d lost", j)
		}
	}
	if !seen["post"] {
		t.Fatal("post-crash message lost")
	}
	for i := 1; i < 5; i++ {
		if err := c.Node(i).Err(); err != nil {
			t.Fatalf("node %d failed: %v", i, err)
		}
	}
}

func TestGracefulLeave(t *testing.T) {
	c := newCluster(t, 4, 1)
	ctx := context.Background()
	c.Node(3).Leave()
	if _, ok := c.WaitView(0, 3, 10*time.Second); !ok {
		t.Fatal("leave view never installed")
	}
	if _, err := c.Node(1).Session().Publish(ctx, []byte("still going")); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		msgs := collect(t, c.Node(i), 1)
		if string(msgs[0].Payload) != "still going" {
			t.Fatalf("node %d got %q", i, msgs[0].Payload)
		}
	}
}

func TestDynamicJoin(t *testing.T) {
	mt := fsr.MemTransport(mem.NewNetwork(mem.Options{}))
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()}, mt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	ctx := context.Background()
	if _, err := c.Node(0).Session().Publish(ctx, []byte("old world")); err != nil {
		t.Fatal(err)
	}
	// Let every member deliver the pre-join message, so the join's flush
	// provably starts the newcomer after it (a joiner receives exactly the
	// history some survivor still needed — nothing older).
	for i := range 3 {
		if got := collect(t, c.Node(i), 1); string(got[0].Payload) != "old world" {
			t.Fatalf("node %d got %q", i, got[0].Payload)
		}
	}
	// Bring up a joiner on the same hub.
	ep, err := mt.Network().Join(9)
	if err != nil {
		t.Fatal(err)
	}
	jc := fastConfig()
	jc.Self = 9
	jc.Joiner = true
	joiner, err := fsr.NewNode(jc, ep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Stop)
	joiner.Join(c.IDs())
	deadline := time.After(10 * time.Second)
	for {
		select {
		case v := <-joiner.Views():
			if len(v.Members) == 4 {
				goto joined
			}
		case <-deadline:
			t.Fatal("joiner never admitted")
		}
	}
joined:
	// A joiner holds nothing below its admission point: read from its tail.
	tailCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	tail := joiner.Session().Subscribe(tailCtx, 0)
	if _, err := joiner.Session().Publish(ctx, []byte("new blood")); err != nil {
		t.Fatal(err)
	}
	msgs := take(t, joiner, tail, 1)
	if string(msgs[0].Payload) != "new blood" {
		t.Fatalf("joiner got %q", msgs[0].Payload)
	}
	// An old member sees it too.
	old := collect(t, c.Node(1), 1)
	if string(old[0].Payload) != "new blood" {
		t.Fatalf("old member got %q", old[0].Payload)
	}
}

func TestViewInfoContents(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.Crash(2)
	v, ok := c.WaitView(0, 2, 10*time.Second)
	if !ok {
		t.Fatal("no view")
	}
	if v.T != 1 { // min(T=2, n-1=1)
		t.Errorf("view T = %d, want 1", v.T)
	}
	if v.Members[0] != c.IDs()[0] {
		t.Errorf("leader changed unexpectedly: %v", v.Members)
	}
}
