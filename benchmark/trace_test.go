package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsr"
	"fsr/client"
	"fsr/internal/wal"
	"fsr/transport"
)

// TestTracedTransportKeepsTheBatchPath guards the decorator against
// silently changing what it measures: the node type-asserts its transport
// for transport.BatchSender and falls back to one Send per frame without
// it, and client.Dial needs the cluster transport's Addrs.
func TestTracedTransportKeepsTheBatchPath(t *testing.T) {
	tr := newTracer(time.Now())
	tr.on.Store(true)
	ct := &tracedCluster{TCPClusterTransport: fsr.TCPTransport(nil), t: tr}
	ep, err := ct.Join(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.(transport.BatchSender); !ok {
		t.Fatal("traced endpoint does not implement transport.BatchSender")
	}
	_ = ep.Close()

	ct = &tracedCluster{TCPClusterTransport: fsr.TCPTransport(nil), t: tr}
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{
		N: 3, DurableDir: t.TempDir(),
		WALFS: func(id fsr.ProcID) wal.FS { return tracedFS{FS: wal.OS, member: uint32(id), t: tr} },
	}, ct)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if got := len(ct.Addrs()); got != 3 {
		t.Fatalf("traced cluster transport serves %d addresses, want 3", got)
	}
	sess, err := client.Dial(client.Config{Addrs: ct.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := sess.Publish(ctx, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range []callID{callRingSend, callRingHandler, callClientSend, callClientHandler, callWALWrite, callWALFsync} {
		if tr.totals[c].count.Load() == 0 {
			t.Errorf("no %s.%s span for a committed durable publish", callNames[c].layer, callNames[c].call)
		}
	}
	if tr.totals[callRingSend].bytes.Load() < 1024 {
		t.Errorf("ring sends carried %d bytes, less than the payload", tr.totals[callRingSend].bytes.Load())
	}

	// Off means off: no span, no total.
	tr.on.Store(false)
	seen := tr.next.Load()
	r, err = sess.Publish(ctx, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if tr.next.Load() != seen {
		t.Errorf("%d spans recorded while the tracer was off", tr.next.Load()-seen)
	}

	// The span file holds one JSON object per line with the documented keys.
	path := filepath.Join(t.TempDir(), "trace", "spans.jsonl")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var s struct {
			Layer, Call    string
			Member         uint32
			StartNs, EndNs int64 `json:"-"`
			Start          int64 `json:"start_ns"`
			End            int64 `json:"end_ns"`
			Bytes, Frames  int64
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", lines, err)
		}
		if s.Layer == "" || s.Call == "" || s.End < s.Start {
			t.Fatalf("span line %d malformed: %s", lines, sc.Text())
		}
	}
	if int64(lines) != seen {
		t.Errorf("span file has %d lines, want %d", lines, seen)
	}
}
