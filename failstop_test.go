package fsr

import (
	"context"
	"testing"
	"time"

	"fsr/internal/wire"
	"fsr/transport/mem"
)

// TestNodeFailStopIsTerminal: a fatal protocol error (corrupt frame from
// the ring predecessor) must actually halt the node — fail-stop — not just
// record the error: subscription streams end, pending receipts fail, Err
// surfaces the cause, and further Broadcasts are rejected.
func TestNodeFailStopIsTerminal(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	ep0, err := network.Join(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := network.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()
	cfg := Config{
		Self:              0,
		Members:           []ProcID{0, 1},
		HeartbeatInterval: 10 * time.Millisecond,
		FailureTimeout:    time.Minute, // keep the FD quiet; only the corruption matters
		ChangeTimeout:     time.Minute,
	}
	n, err := NewNode(cfg, ep0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	// A broadcast that cannot complete (peer 1 runs no node), so its
	// receipt is pending when the fatal error hits.
	r, err := n.Session().Publish(context.Background(), []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber idling on the (empty) order.
	ended := make(chan int, 1)
	go func() {
		got := 0
		for range n.Session().Subscribe(context.Background(), 1) {
			got++
		}
		ended <- got
	}()

	// Corrupt ring traffic: KindFSR prefix, valid version, truncated body.
	// (A wrong-VERSION frame is deliberately non-fatal — see
	// TestNodeSkipsForeignPayloads — so the version byte here must be ours
	// for the truncation to count as same-major corruption.)
	if err := ep1.Send(0, []byte{wire.KindFSR, wire.CurrentVersion, 0x01}); err != nil {
		t.Fatal(err)
	}

	// The node halts: the subscription stream ends...
	select {
	case got := <-ended:
		if got != 0 {
			t.Fatalf("%d unexpected deliveries", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never ended after fatal error")
	}
	// ...the error is surfaced...
	if n.Err() == nil {
		t.Fatal("Err() nil after fatal frame")
	}
	// ...the pending receipt resolves with the failure...
	select {
	case <-r.Delivered():
	case <-time.After(10 * time.Second):
		t.Fatal("pending receipt never resolved on fail-stop")
	}
	if r.Err() == nil {
		t.Fatal("pending receipt resolved without error on fail-stop")
	}
	// ...and the node accepts no further work.
	if _, err := n.Session().Publish(context.Background(), []byte("late")); err != ErrStopped {
		t.Fatalf("Broadcast after fail-stop = %v, want ErrStopped", err)
	}
}

// TestNodeSkipsForeignPayloads: payloads a future release might send — a
// whole new channel kind, a frame stamped with a foreign protocol major, a
// view-change message of an unknown type — must be skipped and counted,
// never treated as corruption. This is the receiving half of the upgrade
// story: a mixed-version ring survives because old nodes shrug at what
// they cannot parse instead of fail-stopping on it.
func TestNodeSkipsForeignPayloads(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	ep0, err := network.Join(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := network.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()
	cfg := Config{
		Self:              0,
		Members:           []ProcID{0, 1},
		HeartbeatInterval: 10 * time.Millisecond,
		FailureTimeout:    time.Minute,
		ChangeTimeout:     time.Minute,
	}
	n, err := NewNode(cfg, ep0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	// A channel kind this build has never heard of...
	if err := ep1.Send(0, []byte{0xEE, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	// ...a well-formed frame from a foreign protocol major...
	alien := wire.EncodeFrame(&wire.Frame{
		Ver:    wire.MakeVersion(wire.ProtoMajor+1, 0),
		ViewID: 1,
	})
	if err := ep1.Send(0, alien); err != nil {
		t.Fatal(err)
	}
	// ...and a view-change control message of an unknown type.
	if err := ep1.Send(0, []byte{wire.KindVSC, 0xEF, 0x01}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		m := n.Metrics()
		if m.SkippedVersion == 1 && m.SkippedUnknown == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("skip counters never settled: version=%d unknown=%d (want 1, 2)",
				m.SkippedVersion, m.SkippedUnknown)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The node shrugged: no fail-stop, nothing delivered, still taking work.
	if err := n.Err(); err != nil {
		t.Fatalf("node halted on foreign payloads: %v", err)
	}
	if got := n.Applied(); got != 0 {
		t.Fatalf("foreign payloads advanced the order to %d", got)
	}
	if _, err := n.Session().Publish(context.Background(), []byte("still alive")); err != nil {
		t.Fatalf("Broadcast refused after foreign payloads: %v", err)
	}
}

// TestConfigValidationErrors covers withDefaults rejections beyond the
// basics in assembler_test.go.
func TestConfigValidationErrors(t *testing.T) {
	base := func() Config {
		return Config{Self: 1, Members: []ProcID{1, 2, 3}}
	}
	t.Run("defaults filled", func(t *testing.T) {
		c, err := base().withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if c.HeartbeatInterval != 50*time.Millisecond ||
			c.FailureTimeout != 500*time.Millisecond ||
			c.ChangeTimeout != time.Second {
			t.Errorf("timer defaults: %+v", c)
		}
	})
	t.Run("failure timeout equal to heartbeat rejected", func(t *testing.T) {
		c := base()
		c.HeartbeatInterval = 100 * time.Millisecond
		c.FailureTimeout = 100 * time.Millisecond
		if _, err := c.withDefaults(); err == nil {
			t.Error("FailureTimeout == HeartbeatInterval accepted")
		}
	})
	t.Run("joiner needs no members", func(t *testing.T) {
		if _, err := (Config{Self: 7, Joiner: true}).withDefaults(); err != nil {
			t.Errorf("joiner rejected: %v", err)
		}
	})
	t.Run("negative T rejected with members", func(t *testing.T) {
		c := base()
		c.T = -2
		if _, err := c.withDefaults(); err == nil {
			t.Error("negative T accepted")
		}
	})
}
