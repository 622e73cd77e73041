package fsr

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"fsr/internal/wire"
	"fsr/transport"
	"fsr/transport/mem"
)

// TestFrontierHeldByTheLog: a duplicate client publish filtered out as the
// last message of the order uses up its sequence number but leaves no log
// entry, so it must not move Applied. A restarted member rebuilds its
// frontier from its log; had the filtered slot moved the frontier of the
// members that never restarted, the three would disagree until the next
// message (ledger row K).
func TestFrontierHeldByTheLog(t *testing.T) {
	// A link delay longer than the client's two sends are apart, so
	// neither member has committed the other's copy when its own arrives.
	net := mem.NewNetwork(mem.Options{Latency: 2 * time.Millisecond})
	cluster, err := NewCluster(durableClusterCfg(t, 3), MemTransport(net))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := range 10 {
		r, err := cluster.Node(0).Session().Publish(ctx, fmt.Appendf(nil, "warm-up %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// One publish sent to two members back to back: each broadcasts it
	// before the other's copy commits (a commit takes several link
	// delays), so the order holds it twice and every member filters the
	// second copy, the last message.
	const clientID = ClientIDBase + 999
	ep, err := net.Join(clientID)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	acked := make(chan struct{}, 1)
	ep.SetHandler(func(from transport.ProcID, payload []byte) {
		if msg, err := wire.DecodeClient(payload); err == nil {
			if _, ok := msg.(*wire.ClientPubAck); ok {
				select {
				case acked <- struct{}{}:
				default: // each member acks; one is enough
				}
			}
		}
	})
	to := []ProcID{cluster.IDs()[0], cluster.IDs()[1]}
	for _, m := range to {
		if err := ep.Send(m, wire.EncodeClientHello(&wire.ClientHello{})); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range to {
		// One encoding each: a member seals the frame in place.
		pub := wire.EncodeClientPublish(&wire.ClientPublish{PubID: 1, Payload: []byte("twice")})
		if err := ep.Send(m, pub); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-acked:
	case <-ctx.Done():
		t.Fatal("publish never acked")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		filtered := 0
		for _, n := range cluster.Nodes() {
			if n.Metrics().SessionDuplicates > 0 {
				filtered++
			}
		}
		if filtered == len(cluster.Nodes()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the duplicate copy reached %d of %d members' order", filtered, len(cluster.Nodes()))
		}
	}

	cluster.Crash(2)
	if _, ok := cluster.WaitView(0, 2, 20*time.Second); !ok {
		t.Fatal("no eviction")
	}
	if _, err := cluster.Restart(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.WaitView(2, 3, 30*time.Second); !ok {
		t.Fatal("no readmission")
	}
	var applied []uint64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		applied = applied[:0]
		for _, n := range cluster.Nodes() {
			applied = append(applied, n.Applied())
		}
		if slices.Min(applied) == slices.Max(applied) {
			return
		}
	}
	t.Fatalf("applied frontiers never agreed: %v", applied)
}
