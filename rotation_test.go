package fsr_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fsr"
	"fsr/transport/mem"
)

// TestRotateLeader exercises the paper's §4.3.1 latency-balancing device:
// the leader role moves to the next ring position via a view change, and
// ordered delivery continues seamlessly across the rotation.
func TestRotateLeader(t *testing.T) {
	c := newCluster(t, 4, 1)
	ctx := context.Background()
	if _, err := c.Node(1).Session().Publish(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}
	c.Node(0).RotateLeader()
	deadline := time.After(10 * time.Second)
	var v fsr.ViewInfo
	for {
		select {
		case v = <-c.Node(2).Views():
		case <-deadline:
			t.Fatal("rotation view never installed")
		}
		if len(v.Members) == 4 && v.Members[0] == c.IDs()[1] {
			break
		}
	}
	if v.Members[3] != c.IDs()[0] {
		t.Fatalf("old leader not at the tail: %v", v.Members)
	}
	if _, err := c.Node(3).Session().Publish(ctx, []byte("after")); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		msgs := collect(t, c.Node(i), 2)
		if string(msgs[0].Payload) != "before" || string(msgs[1].Payload) != "after" {
			t.Fatalf("node %d: %q, %q", i, msgs[0].Payload, msgs[1].Payload)
		}
	}
}

// TestRotateLeaderFromFollowerIgnored: rotation is a leader prerogative.
func TestRotateLeaderFromFollowerIgnored(t *testing.T) {
	c := newCluster(t, 3, 1)
	c.Node(2).RotateLeader()
	select {
	case v := <-c.Node(0).Views():
		t.Fatalf("follower rotation installed view %d", v.ID)
	case <-time.After(500 * time.Millisecond):
	}
}

// TestRepeatedRotationRoundRobin rotates the leadership all the way around
// the ring while traffic flows, checking the ring order after each step.
func TestRepeatedRotationRoundRobin(t *testing.T) {
	const n = 3
	c := newCluster(t, n, 1)
	ctx := context.Background()
	ids := c.IDs()
	for round := 1; round <= n; round++ {
		// The current leader after `round-1` rotations.
		leaderIdx := (round - 1) % n
		if _, err := c.Node(leaderIdx).Session().Publish(ctx, []byte(fmt.Sprintf("r%d", round))); err != nil {
			t.Fatal(err)
		}
		c.Node(leaderIdx).RotateLeader()
		wantLeader := ids[round%n]
		deadline := time.After(10 * time.Second)
		for {
			var v fsr.ViewInfo
			select {
			case v = <-c.Node((leaderIdx + 1) % n).Views():
			case <-deadline:
				t.Fatalf("rotation %d never installed", round)
			}
			if len(v.Members) == n && v.Members[0] == wantLeader {
				goto next
			}
		}
	next:
	}
	// All traffic delivered identically despite three leadership handoffs.
	ref := collect(t, c.Node(0), n)
	got := collect(t, c.Node(2), n)
	assertSameOrder(t, ref, got)
}

// TestRotateLeaderUnderLoad rotates the sequencer repeatedly while several
// goroutines keep broadcasting from every member: each handoff must
// preserve in-flight messages (every issued receipt resolves Delivered or
// with a definite error — never hangs) and the survivors' total order
// stays identical and duplicate-free across all the epochs.
func TestRotateLeaderUnderLoad(t *testing.T) {
	const n, senders, per, rotations = 4, 4, 30, 3
	c := newCluster(t, n, 1)
	ids := c.IDs()

	var mu sync.Mutex
	var receipts []*fsr.Receipt
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for g := range senders {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := c.Node(g % n)
			for j := range per {
				r, err := node.Session().Publish(ctx, []byte(fmt.Sprintf("g%d-%d", g, j)))
				if err != nil {
					t.Errorf("sender %d broadcast %d: %v", g, j, err)
					return
				}
				mu.Lock()
				receipts = append(receipts, r)
				mu.Unlock()
			}
		}(g)
	}

	// Walk the leadership around the ring while the load is in flight.
	for round := 1; round <= rotations; round++ {
		wantLeader := ids[round%n]
		deadline := time.Now().Add(10 * time.Second)
		for { // the current leader is whoever the latest view says it is
			var rotated bool
			for i := range n {
				v := c.Node(i).CurrentView()
				if len(v.Members) > 0 && v.Members[0] == c.Node(i).Self() {
					rotated = c.Node(i).RotateLeader()
					break
				}
			}
			_ = rotated // a coalesced/dropped request is retried below
			if v := c.Node(0).CurrentView(); len(v.Members) > 0 && v.Members[0] == wantLeader {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rotation %d never installed", round)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	wg.Wait()

	// Liveness half: every receipt resolves.
	total := senders * per
	if len(receipts) != total {
		t.Fatalf("only %d/%d broadcasts issued", len(receipts), total)
	}
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("receipt %d did not survive rotation: %v", i, err)
		}
		if r.Seq() == 0 {
			t.Fatalf("receipt %d resolved without a sequence number", i)
		}
	}
	// Safety half: one gap-free duplicate-free order, identical everywhere.
	var streams [][]fsr.Message
	for i := range n {
		streams = append(streams, collect(t, c.Node(i), total))
	}
	for i := 1; i < n; i++ {
		assertSameOrder(t, streams[0], streams[i])
	}
	seen := make(map[string]bool, total)
	var prevSeq uint64
	for _, m := range streams[0] {
		if m.Seq <= prevSeq {
			t.Fatalf("sequence regressed: %d after %d", m.Seq, prevSeq)
		}
		prevSeq = m.Seq
		if seen[string(m.Payload)] {
			t.Fatalf("duplicate delivery of %q", m.Payload)
		}
		seen[string(m.Payload)] = true
	}
	for g := range senders {
		for j := range per {
			if p := fmt.Sprintf("g%d-%d", g, j); !seen[p] {
				t.Fatalf("message %s lost across rotations", p)
			}
		}
	}
}

// TestBandwidthPacedNetwork runs a cluster on a rate-limited mem network —
// the configuration the fairness examples rely on — and checks that
// ordering survives the pacing.
func TestBandwidthPacedNetwork(t *testing.T) {
	network := mem.NewNetwork(mem.Options{Bandwidth: 200e6, Latency: 100 * time.Microsecond})
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()}, fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	ctx := context.Background()
	const per = 15
	for i := range per {
		if _, err := c.Node(i%3).Session().Publish(ctx, make([]byte, 2048+i)); err != nil {
			t.Fatal(err)
		}
	}
	a := collect(t, c.Node(0), per)
	b := collect(t, c.Node(2), per)
	assertSameOrder(t, a, b)
}
