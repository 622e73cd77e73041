package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"fsr/internal/wire"
	"fsr/transport"
)

// fakeSource is an in-memory committed order for driving the server.
type fakeSource struct {
	mu      sync.Mutex
	applied uint64
	entries []wire.ClientEventEntry // seqs 1..applied
	watch   chan struct{}
}

func newFakeSource() *fakeSource {
	return &fakeSource{watch: make(chan struct{})}
}

func (f *fakeSource) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

func (f *fakeSource) Watch() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watch
}

func (f *fakeSource) ReadCommitted(cursor, applied uint64, maxEntries, maxBytes int) (Page, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	page := Page{Cursor: applied}
	for i := int(cursor); i < len(f.entries) && len(page.Entries) < maxEntries; i++ {
		page.Entries = append(page.Entries, f.entries[i])
	}
	if n := len(page.Entries); n > 0 && page.Entries[n-1].Seq > page.Cursor {
		page.Cursor = page.Entries[n-1].Seq
	}
	return page, nil
}

// add commits n new entries and returns them (for PublishTail).
func (f *fakeSource) add(n int, payload []byte) []wire.ClientEventEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := len(f.entries)
	for i := 0; i < n; i++ {
		f.entries = append(f.entries, wire.ClientEventEntry{
			Seq:     uint64(len(f.entries) + 1),
			Origin:  1,
			Logical: uint64(len(f.entries) + 1),
			Payload: payload,
		})
	}
	f.applied = uint64(len(f.entries))
	close(f.watch)
	f.watch = make(chan struct{})
	return f.entries[start:]
}

// fakeTransport records every frame per destination (copies, since batch
// buffers are pooled) and can block writes to chosen destinations.
type fakeTransport struct {
	mu     sync.Mutex
	frames map[ProcID][][]byte
	gate   map[ProcID]chan struct{} // writes to this dest block until closed
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{
		frames: make(map[ProcID][][]byte),
		gate:   make(map[ProcID]chan struct{}),
	}
}

func (t *fakeTransport) Self() ProcID                 { return 0 }
func (t *fakeTransport) SetHandler(transport.Handler) {}
func (t *fakeTransport) Close() error                 { return nil }
func (t *fakeTransport) block(to ProcID) chan struct{} {
	ch := make(chan struct{})
	t.mu.Lock()
	t.gate[to] = ch
	t.mu.Unlock()
	return ch
}

func (t *fakeTransport) record(to ProcID, payload []byte) {
	t.mu.Lock()
	gate := t.gate[to]
	t.mu.Unlock()
	if gate != nil {
		<-gate
	}
	t.mu.Lock()
	t.frames[to] = append(t.frames[to], append([]byte(nil), payload...))
	t.mu.Unlock()
}

func (t *fakeTransport) Send(to ProcID, payload []byte) error {
	t.record(to, payload)
	return nil
}

func (t *fakeTransport) sent(to ProcID) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]byte(nil), t.frames[to]...)
}

func (t *fakeTransport) SendBatch(to ProcID, payloads [][]byte) error {
	for _, p := range payloads {
		t.record(to, p)
	}
	return nil
}

func newServer(t *testing.T, tr transport.Transport, src Source, queueCap int) *Server {
	t.Helper()
	s := New(Config{
		Transport: tr,
		Source:    src,
		Publish:   func(from ProcID, p *wire.ClientPublish) {},
		Redirect:  func() ([]ProcID, []string, uint64) { return []ProcID{0, 1, 2}, nil, src.Applied() },
		QueueCap:  queueCap,
	})
	t.Cleanup(func() {
		s.Shutdown()
		s.Wait()
	})
	return s
}

func subscribe(s *Server, cid ProcID, from uint64) {
	s.Handle(cid, wire.EncodeClientHello(&wire.ClientHello{}))
	s.Handle(cid, wire.EncodeClientSubscribe(&wire.ClientSubscribe{SubID: 1, From: from}))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// tailFrames filters a client's recorded frames down to non-empty shared
// tail batches.
func tailFramesOf(t *testing.T, frames [][]byte) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range frames {
		msg, err := wire.DecodeClient(f)
		if err != nil {
			t.Fatalf("recorded frame does not decode: %v", err)
		}
		if ev, ok := msg.(*wire.ClientEvent); ok && ev.Tail && len(ev.Entries) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// TestTailFramesByteIdentical is the encode-once contract: every attached
// subscriber receives the exact same frame bytes for each committed batch.
func TestTailFramesByteIdentical(t *testing.T) {
	ft := newFakeTransport()
	src := newFakeSource()
	s := newServer(t, ft, src, 0)

	clients := []ProcID{101, 102, 103, 104}
	for _, cid := range clients {
		subscribe(s, cid, 1)
	}
	waitFor(t, "all subscribers attached", func() bool {
		return s.Stats().TailAttached == len(clients)
	})
	const batches = 5
	for i := 0; i < batches; i++ {
		s.PublishTail(src.add(3, []byte("payload-of-the-batch")))
	}
	waitFor(t, "all tail frames delivered", func() bool {
		for _, cid := range clients {
			if len(tailFramesOf(t, ft.sent(cid))) < batches {
				return false
			}
		}
		return true
	})
	ref := tailFramesOf(t, ft.sent(clients[0]))
	for _, cid := range clients[1:] {
		got := tailFramesOf(t, ft.sent(cid))
		if len(got) != len(ref) {
			t.Fatalf("client %d: %d tail frames, want %d", cid, len(got), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(ref[i], got[i]) {
				t.Fatalf("client %d: tail frame %d differs from client %d's", cid, i, clients[0])
			}
		}
	}
}

// discardTransport supports batches and drops everything — the alloc
// measurement must not count recording overhead.
type discardTransport struct{}

func (discardTransport) Self() ProcID                     { return 0 }
func (discardTransport) Send(ProcID, []byte) error        { return nil }
func (discardTransport) SendBatch(ProcID, [][]byte) error { return nil }
func (discardTransport) SetHandler(transport.Handler)     {}
func (discardTransport) Close() error                     { return nil }

// measureTailAllocs reports allocations per PublishTail call with k
// attached subscribers.
func measureTailAllocs(t *testing.T, k int) float64 {
	t.Helper()
	src := newFakeSource()
	s := newServer(t, discardTransport{}, src, 1<<16)
	for i := 0; i < k; i++ {
		subscribe(s, ProcID(200+i), 1)
	}
	waitFor(t, "subscribers attached", func() bool { return s.Stats().TailAttached == k })
	payload := bytes.Repeat([]byte("x"), 256)
	// Warm the pools, the per-client deques and the writers' scratch.
	for i := 0; i < 64; i++ {
		s.PublishTail(src.add(1, payload))
	}
	time.Sleep(50 * time.Millisecond) // let writers drain and retire buffers
	return testing.AllocsPerRun(200, func() {
		s.PublishTail(src.add(1, payload))
	})
}

// TestTailFanoutAllocs is the regression gate for the encode-once hot
// path: the allocations per committed offset must not grow with the
// number of attached subscribers (the per-subscriber cost is one queue
// push into a preallocated deque).
func TestTailFanoutAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	one := measureTailAllocs(t, 1)
	eight := measureTailAllocs(t, 8)
	t.Logf("allocs per offset: 1 subscriber=%.1f, 8 subscribers=%.1f", one, eight)
	// Slack of 2 covers scheduler noise from the concurrent writers; the
	// failure mode being guarded (per-subscriber encode or copy) would
	// add at least 7.
	if eight > one+2 {
		t.Fatalf("fan-out allocates per subscriber: %.1f allocs with 8 subs vs %.1f with 1", eight, one)
	}
}

// TestSlowSubscriberIsolation: a subscriber whose socket stalls is
// detached once its bounded queue fills, without delaying PublishTail or
// the other subscribers — and catches back up gap-free when it drains.
func TestSlowSubscriberIsolation(t *testing.T) {
	ft := newFakeTransport()
	src := newFakeSource()
	s := newServer(t, ft, src, 8)

	const fast, slow = ProcID(301), ProcID(302)
	subscribe(s, fast, 1)
	subscribe(s, slow, 1)
	waitFor(t, "both subscribers attached", func() bool { return s.Stats().TailAttached == 2 })

	gate := ft.block(slow)
	const total = 64
	for i := 0; i < total; i++ {
		start := time.Now()
		s.PublishTail(src.add(1, []byte("steady-stream")))
		if d := time.Since(start); d > time.Second {
			t.Fatalf("PublishTail blocked %v behind a stalled subscriber", d)
		}
	}
	// The fast subscriber streams on while the slow one is wedged...
	waitFor(t, "fast subscriber fully served", func() bool {
		return lastSeq(t, ft.sent(fast)) == total
	})
	// ...and the slow one has been demoted rather than buffered forever.
	if st := s.Stats(); st.TailDetaches == 0 {
		t.Fatalf("stalled subscriber was never detached: %+v", st)
	}
	// Unblock it: pager catch-up must close the gap and re-attach.
	close(gate)
	waitFor(t, "slow subscriber caught up", func() bool {
		return lastSeq(t, ft.sent(slow)) == total
	})
	assertGapFree(t, ft.sent(slow), total)
	waitFor(t, "slow subscriber re-attached", func() bool { return s.Stats().TailAttached == 2 })
}

// lastSeq returns the highest entry seq across a client's recorded EVENT
// frames.
func lastSeq(t *testing.T, frames [][]byte) uint64 {
	t.Helper()
	var last uint64
	for _, f := range frames {
		msg, err := wire.DecodeClient(f)
		if err != nil {
			t.Fatalf("recorded frame does not decode: %v", err)
		}
		if ev, ok := msg.(*wire.ClientEvent); ok {
			for i := range ev.Entries {
				last = max(last, ev.Entries[i].Seq)
			}
		}
	}
	return last
}

// assertGapFree folds a client's frames the way the session client does —
// cursor dedup across tail and pager streams — and requires every offset
// 1..total exactly once.
func assertGapFree(t *testing.T, frames [][]byte, total uint64) {
	t.Helper()
	var cursor uint64
	for _, f := range frames {
		msg, err := wire.DecodeClient(f)
		if err != nil {
			t.Fatalf("recorded frame does not decode: %v", err)
		}
		ev, ok := msg.(*wire.ClientEvent)
		if !ok {
			continue
		}
		for i := range ev.Entries {
			seq := ev.Entries[i].Seq
			if seq <= cursor {
				continue // overlap, deduped by the client's cursor
			}
			if seq != cursor+1 {
				t.Fatalf("gap in subscriber stream: cursor %d, next entry %d", cursor, seq)
			}
			cursor = seq
		}
	}
	if cursor != total {
		t.Fatalf("subscriber stream ends at %d, want %d", cursor, total)
	}
}
