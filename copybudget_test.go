package fsr_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"fsr"
	"fsr/client"
)

// The publish → commit → deliver path has a copy budget of one user-space
// copy per process a payload passes through (client encode, socket read at
// each member, EVENT read at the subscriber) and one ring segment per
// publish of up to SegmentSize bytes. These tests pin the budget and the
// buffer sharing it is bought with.

// stamp fills p with a pattern derived from idx, idx itself in front.
func stamp(p []byte, idx uint64) {
	binary.LittleEndian.PutUint64(p, idx)
	for j := 8; j < len(p); j++ {
		p[j] = byte(idx*131 + uint64(j)*7)
	}
}

// stamped reports whether p is exactly what stamp(p, idx) wrote.
func stamped(p []byte, idx uint64) bool {
	if len(p) < 8 || binary.LittleEndian.Uint64(p) != idx {
		return false
	}
	for j := 8; j < len(p); j++ {
		if p[j] != byte(idx*131+uint64(j)*7) {
			return false
		}
	}
	return true
}

// settle waits until every member has applied the same prefix of the order,
// at least through seq.
func settle(t *testing.T, c *fsr.Cluster, seq uint64) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		same := true
		for _, n := range c.Nodes() {
			if n.Applied() != c.Node(0).Applied() {
				same = false
			}
		}
		if same && c.Node(0).Applied() >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("members never settled at or past offset %d", seq)
		}
	}
}

// TestPublishCopyBudget: 2000 × 8 KiB from one TCP client through a
// three-member loopback ring to a live-tail subscriber. Every publish is
// exactly one segment at every member (the 13-byte client envelope rides on
// top of SegmentSize, not inside it), and the whole process — client,
// three members, subscriber — allocates no more than 64 KiB per message:
// five socket-sized buffers and small change, no second copy anywhere.
func TestPublishCopyBudget(t *testing.T) {
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
	pub, err := client.Dial(client.Config{Addrs: addrs[:1], Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := client.Dial(client.Config{Addrs: addrs[1:2]})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const msgs, size = 2000, 8192
	seen := make(chan uint64, msgs+64) // holds the whole run: the reader never blocks
	go func() {
		for _, m := range sub.Subscribe(ctx, 0) {
			if len(m.Payload) != size {
				seen <- ^uint64(0)
				return
			}
			seen <- binary.LittleEndian.Uint64(m.Payload)
		}
	}()
	payload := make([]byte, size)
	publish := func(idx uint64) *fsr.Receipt {
		binary.LittleEndian.PutUint64(payload, idx) // the buffer is ours again after each Publish
		r, err := pub.Publish(ctx, payload)
		if err != nil {
			t.Fatalf("publish %d: %v", idx, err)
		}
		return r
	}
	recv := func() uint64 {
		select {
		case idx := <-seen:
			return idx
		case <-ctx.Done():
			t.Fatal("subscriber stream stalled")
			return 0
		}
	}
	// Warm up until the tail subscription demonstrably follows the order.
	next, lastSeen := uint64(0), ^uint64(0)
	for attached := false; !attached; next++ {
		if next > 500 {
			t.Fatal("live-tail subscriber never saw a message")
		}
		r := publish(next)
		if err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		settle(t, cluster, r.Seq())
		select {
		case lastSeen = <-seen:
			attached = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Then a pipelined burst, so the pooled encode and tail-frame buffers
	// have grown to their working size before anything is counted.
	var warm *fsr.Receipt
	for range 1024 {
		warm = publish(next)
		next++
	}
	if err := warm.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for lastSeen != next-1 {
		lastSeen = recv()
	}
	settle(t, cluster, warm.Seq())

	before := make([]fsr.Metrics, 3)
	for i := range before {
		before[i] = cluster.Node(i).Metrics()
	}
	// No collection while measuring (≈100 MB): a cycle empties sync.Pool, and
	// how many pooled tail-frame buffers get reallocated would otherwise
	// depend on how often the collector happened to run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	receipts := make([]*fsr.Receipt, msgs)
	for i := range receipts {
		receipts[i] = publish(next + uint64(i))
	}
	var lastSeq uint64
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		lastSeq = r.Seq()
	}
	for i := range uint64(msgs) {
		if got := recv(); got != next+i {
			t.Fatalf("subscriber position %d: got message %d, want %d", i, got, next+i)
		}
	}
	settle(t, cluster, lastSeq)
	runtime.ReadMemStats(&m1)

	var sequenced uint64
	for i := range before {
		after := cluster.Node(i).Metrics()
		if d := after.Delivered - before[i].Delivered; d != msgs {
			t.Errorf("member %d delivered %d segments for %d publishes of SegmentSize bytes, want one each", i, d, msgs)
		}
		sequenced += after.Sequenced - before[i].Sequenced
	}
	if sequenced != msgs {
		t.Errorf("the leader sequenced %d segments for %d publishes, want one each", sequenced, msgs)
	}
	perMsg := (m1.TotalAlloc - m0.TotalAlloc) / msgs
	t.Logf("heap allocated per 8 KiB message, all five processes: %d B", perMsg)
	if raceEnabled {
		return // the race runtime drops a quarter of all sync.Pool puts: pooled buffers are reallocated
	}
	if perMsg > 64<<10 {
		t.Errorf("%d B of heap per 8 KiB message, budget is 64 KiB: a payload copy is back on the path", perMsg)
	}
}

// TestSegmentBoundary: SegmentSize bounds the application bytes of a
// one-segment message. The envelope is carried on top: a client publish
// (13-byte envelope) splits from SegmentSize+1 bytes on; a member broadcast
// (1-byte envelope) fits up to 12 bytes more into the same segment bound.
func TestSegmentBoundary(t *testing.T) {
	const seg = 256
	cfg := fastConfig()
	cfg.SegmentSize = seg
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: cfg}, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	remote, err := c.Dial(fsr.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, tc := range []struct {
		name  string
		sess  fsr.Session
		size  int
		parts uint64
	}{
		{"client publish of SegmentSize", remote, seg, 1},
		{"client publish of SegmentSize+1", remote, seg + 1, 2},
		{"client publish of 3×SegmentSize", remote, 3 * seg, 3},
		{"member broadcast of SegmentSize", c.Node(1).Session(), seg, 1},
		{"member broadcast of SegmentSize+12", c.Node(1).Session(), seg + 12, 1},
		{"member broadcast of SegmentSize+13", c.Node(1).Session(), seg + 13, 2},
	} {
		before := c.Node(0).Metrics().Delivered
		payload := make([]byte, tc.size)
		stamp(payload, uint64(i))
		r, err := tc.sess.Publish(ctx, payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		settle(t, c, r.Seq())
		if got := c.Node(0).Metrics().Delivered - before; got != tc.parts {
			t.Errorf("%s: %d segments, want %d", tc.name, got, tc.parts)
		}
		got := take(t, c.Node(2), c.Node(2).Session().Subscribe(ctx, r.Seq()), 1)[0]
		if got.Seq != r.Seq() || !bytes.Equal(got.Payload, payload) {
			t.Errorf("%s: offset %d holds %d bytes at seq %d, not the %d published", tc.name, r.Seq(), len(got.Payload), got.Seq, tc.size)
		}
	}
}

// TestPublishCallerKeepsBuffer: Publish has copied the payload by the time
// it returns, on every kind of session — the caller may overwrite its
// buffer at once and the committed bytes are the ones it published. Run
// over MemTransport, where a sent frame is shared with the member, not
// serialized into a socket.
func TestPublishCallerKeepsBuffer(t *testing.T) {
	cfg := fastConfig()
	cfg.SegmentSize = 256
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: cfg}, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	remote, err := c.Dial(fsr.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const msgs = 300
	buf := make([]byte, 700)
	var last *fsr.Receipt
	for i := range uint64(msgs) {
		sess := remote
		if i%3 == 2 {
			sess = c.Node(int(i) % 2).Session()
		}
		p := buf[:8+int(i*37%690)] // one, two and three segments
		stamp(p, i)
		if last, err = sess.Publish(ctx, p); err != nil {
			t.Fatal(err)
		}
		for j := range p {
			p[j] = 0xEE
		}
	}
	if err := last.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, m := range c.Node(2).Session().Subscribe(ctx, 1) {
		idx := binary.LittleEndian.Uint64(m.Payload)
		if seen[idx] || !stamped(m.Payload, idx) || len(m.Payload) != 8+int(idx*37%690) {
			t.Fatalf("offset %d: message %d committed twice or not as published (%d bytes)", m.Seq, idx, len(m.Payload))
		}
		if seen[idx] = true; len(seen) == msgs {
			break
		}
	}
	if len(seen) != msgs {
		t.Fatalf("read back %d of %d messages", len(seen), msgs)
	}
}

// TestSubscriberPayloadsDisjoint: the payloads of one EVENT frame share its
// buffer, each as a capacity-limited slice of its own bytes — appending to
// one reallocates, overwriting one stays inside it, and neither touches
// the neighbours. Over TCP, where the frame is the socket read buffer.
func TestSubscriberPayloadsDisjoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	ct := fsr.TCPTransport(nil)
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, ct)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	s, err := client.Dial(client.Config{Addrs: ct.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const msgs = 100
	var last *fsr.Receipt
	for i := range uint64(msgs) {
		p := make([]byte, 8+i%50)
		stamp(p, i)
		if last, err = s.Publish(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := last.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Everything is committed: the pager serves it as one page, one frame.
	var got []fsr.Message
	for _, m := range s.Subscribe(ctx, 1) {
		if got = append(got, m); len(got) == msgs {
			break
		}
	}
	if len(got) != msgs {
		t.Fatalf("read back %d of %d messages", len(got), msgs)
	}
	for i := 0; i < msgs; i += 2 {
		p := got[i].Payload
		if cap(p) != len(p) {
			t.Fatalf("message %d: payload has %d bytes of spare capacity reaching into the frame", i, cap(p)-len(p))
		}
		_ = append(p, bytes.Repeat([]byte{0xAA}, 64)...)
		for j := range p {
			p[j] = 0xEE
		}
	}
	for i := 1; i < msgs; i += 2 {
		if !stamped(got[i].Payload, uint64(i)) {
			t.Fatalf("message %d changed when its neighbours were appended to and overwritten", i)
		}
	}
}

// TestPublishResendAfterInPlaceEnvelope: over MemTransport the PUBLISH
// frame a session sends IS the buffer the serving member receives, and the
// member writes its ring envelope over the frame's header in place. The
// session keeps only the payload behind that header for a resend, so
// killing the serving member with a window of publishes in flight must
// still commit every one exactly once with the bytes first published —
// and, under -race, without the two sides ever touching the same byte.
func TestPublishResendAfterInPlaceEnvelope(t *testing.T) {
	cfg := fastConfig()
	cfg.SegmentSize = 256
	c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: cfg}, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	s, err := c.Dial(fsr.SessionOptions{Window: 128, AckTimeout: time.Second, ProbeTimeout: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const msgs, crashAt = 1500, 400
	sums := make([]uint32, msgs)
	receipts := make([]*fsr.Receipt, msgs)
	crashed := make(chan struct{})
	trigger := make(chan *fsr.Receipt, 1)
	go func() {
		// The session binds to the first member of the rotation.
		<-(<-trigger).Delivered()
		c.Crash(0)
		close(crashed)
	}()
	buf := make([]byte, 400)
	for i := range uint64(msgs) {
		p := buf[:8+int(i*53%390)]
		stamp(p, i)
		sums[i] = crc32.ChecksumIEEE(p)
		if receipts[i], err = s.Publish(ctx, p); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if i == crashAt {
			trigger <- receipts[i]
		}
	}
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("publish %d lost across the crash: %v", i, err)
		}
	}
	<-crashed
	next := uint64(0)
	for _, m := range s.Subscribe(ctx, 1) {
		if idx := binary.LittleEndian.Uint64(m.Payload); idx != next || crc32.ChecksumIEEE(m.Payload) != sums[idx] {
			t.Fatalf("offset %d: message %d (%d bytes) where message %d was due, or not the bytes published", m.Seq, idx, len(m.Payload), next)
		}
		if next++; next == msgs {
			break
		}
	}
	if next != msgs {
		t.Fatalf("read back %d of %d messages", next, msgs)
	}
}
