package fsr

import (
	"testing"
	"time"

	"fsr/internal/wal"
	"fsr/transport/mem"
)

// TestReceiptResolvesThroughCatchup: a local publish can come back through
// recovery instead of the ring — the group delivered it while this member
// lagged behind a view change — as a catch-up entry, or inside a
// transferred snapshot with only a stale live copy reaching the pump. Both
// commit it here, so its receipt resolves with its offset, and only once
// the recovered batch is applied.
func TestReceiptResolvesThroughCatchup(t *testing.T) {
	ep, err := mem.NewNetwork(mem.Options{}).Join(0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Self: 0, Members: []ProcID{0}, DurableDir: t.TempDir()}, ep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	inFlight := func(id uint64) *Receipt {
		r := newReceipt()
		n.sess.mu.Lock()
		n.sess.addInflight(pubKey{cid: 0, pub: id}, r)
		n.sess.mu.Unlock()
		return r
	}
	expect := func(r *Receipt, seq uint64) {
		t.Helper()
		select {
		case <-r.Delivered():
		case <-time.After(10 * time.Second):
			t.Fatalf("receipt for offset %d never resolved", seq)
		}
		if r.Err() != nil || r.Seq() != seq {
			t.Fatalf("receipt: seq %d err %v, want seq %d", r.Seq(), r.Err(), seq)
		}
		if n.Applied() < seq {
			t.Fatalf("receipt resolved at %d, Applied() is %d", seq, n.Applied())
		}
	}

	// As a catch-up entry, the way handleCatchupResp hands history over.
	viaEntry := inFlight(77)
	n.outMu.Lock()
	n.catchBuf = append(n.catchBuf, catchItem{msg: Message{Seq: 5, Origin: 0, LogicalID: 77, Payload: []byte("recovered")}})
	n.outCond.Signal()
	n.outMu.Unlock()
	expect(viaEntry, 5)

	// Inside a transferred snapshot: the live copy arrives below the cursor.
	viaSnapshot := inFlight(78)
	n.outMu.Lock()
	n.catchBuf = append(n.catchBuf, catchItem{snap: &wal.Snapshot{Seq: 10, Data: wrapSnapshot(nil, nil)}})
	n.outBuf = append(n.outBuf, Message{Seq: 8, Origin: 0, LogicalID: 78, Payload: wrapRaw([]byte("covered"))})
	n.outCond.Signal()
	n.outMu.Unlock()
	expect(viaSnapshot, 8)

	if m := n.Metrics(); m.PendingReceipts != 0 || m.PublishLatency.Count != 2 {
		t.Fatalf("PendingReceipts %d, PublishLatency.Count %d after both resolved", m.PendingReceipts, m.PublishLatency.Count)
	}
}
