package fsr_test

import (
	"context"
	"testing"
	"time"

	"fsr"
	"fsr/client"
	"fsr/internal/wire"
	"fsr/transport/tcp"
)

// TestNeverReadingClientCannotWedgeMember is the regression test for the
// event-loop stall this serving layer was built to remove: a subscriber
// that connects, subscribes, and then never reads its socket. Its TCP
// receive buffer fills, the member's writes to it block — and that must
// wedge exactly that one client's writer goroutine, nothing else. A
// well-behaved client on the same member must publish and stream the full
// history at full speed, and the stalled client must be detached from the
// shared tail rather than buffered without bound.
func TestNeverReadingClientCannotWedgeMember(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	ct := fsr.TCPTransport(nil)
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, ct)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	watchCluster(t, cluster)
	addrs := ct.Addrs()

	// The misbehaving client: raw connection, HELLO + SUBSCRIBE, then
	// total silence — no handler is installed, so nothing ever drains the
	// socket and the member's sends to it eventually block in the kernel.
	bad, err := tcp.DialConn(addrs[0], fsr.ClientIDBase+777, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.Send(wire.EncodeClientHello(&wire.ClientHello{})); err != nil {
		t.Fatal(err)
	}
	if err := bad.Send(wire.EncodeClientSubscribe(&wire.ClientSubscribe{SubID: 1, From: 1})); err != nil {
		t.Fatal(err)
	}

	good, err := client.Dial(client.Config{Addrs: addrs[:1]}) // same member as the wedged client
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// Enough bytes to overrun any socket buffer many times over: if the
	// member funneled client serving through one loop, the stalled socket
	// would stall these publishes. Sequential waits keep the commit
	// batches small, so the wedged client's bounded frame queue (not just
	// the kernel's byte buffer) is what fills.
	const total = 400
	payload := make([]byte, 32<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < total; i++ {
		r, err := good.Publish(ctx, payload)
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
	}

	// The full stream must also be readable back through the same member.
	var got int
	for _, m := range good.Subscribe(ctx, 1) {
		if m.Snapshot {
			continue
		}
		if got++; got == total {
			break
		}
	}
	if got != total {
		t.Fatalf("read %d of %d messages back", got, total)
	}

	// And the wedged client must have been isolated: demoted from the
	// shared tail once its bounded transmit queue filled.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := cluster.Node(0).Metrics()
		if m.TailDetaches >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled client never detached: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
