package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
	"fsr/internal/serve"
	"fsr/internal/wal"
	"fsr/internal/wire"
	"fsr/transport"
	"fsr/transport/tcp"
)

// Isolated timed calls: each layer's public functions driven directly, for
// about layerBudget each, reporting nanoseconds and heap allocations per
// operation. They price one unit of a layer's work; the counters of a
// workload run say how many units a message costs; the budget table
// multiplies the two.

// layerBudget is how long each isolated call is timed.
const layerBudget = 400 * time.Millisecond

// layerTimer times isolated calls, budget each, and collects the results.
type layerTimer struct {
	budget time.Duration
	out    metricSet
}

// measure times op in growing batches until the budget is spent (or maxOps
// operations, when the operation consumes something finite such as disk).
func (lt *layerTimer) measure(maxOps int, op func()) (nsPerOp, allocsPerOp float64) {
	for range 16 {
		op() // warm pools and capacities
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops, batch := 0, 1
	for time.Since(start) < lt.budget && ops < maxOps {
		t0 := time.Now()
		for range batch {
			op()
		}
		ops += batch
		if time.Since(t0) < time.Millisecond {
			batch *= 2
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// report records one call's cost, with its allocation twin; perOp says how
// many reported units one timed operation covered.
func (lt *layerTimer) report(name, unit string, perOp, ns, allocs float64) {
	if unit == "us" {
		ns /= 1e3
	}
	lt.out.set(name, unit, ns/perOp)
	lt.out.set(name+".allocs", "count", max(allocs/perOp, 0))
}

const unbounded = 1 << 62

// layerFrame is a hot-path ring frame: nData 8 KiB segments plus eight
// piggybacked acks, as in internal/wire's own benchmarks.
func layerFrame(nData int) *wire.Frame {
	f := &wire.Frame{ViewID: 3}
	body := make([]byte, 8192)
	for i := range nData {
		f.Data = append(f.Data, wire.DataItem{
			ID: wire.MsgID{Origin: ring.ProcID(i % 3), Local: uint64(i)}, Seq: uint64(100 + i), Parts: 1, Body: body,
		})
	}
	for i := range 8 {
		f.Acks = append(f.Acks, wire.AckItem{ID: wire.MsgID{Origin: 2, Local: uint64(i)}, Seq: uint64(50 + i), Hops: 3, Stable: i%2 == 0})
	}
	return f
}

// isolatedLayers runs every isolated call. Files go under dataDir.
func isolatedLayers(dataDir string, budget time.Duration) (*metricSet, error) {
	lt := &layerTimer{budget: budget}

	// wire: encode and decode one frame of 4 × 8 KiB segments.
	frame := layerFrame(4)
	buf := wire.GetBuf()
	ns, allocs := lt.measure(unbounded, func() { buf.B = wire.AppendFrame(buf.B[:0], frame) })
	lt.report("wire.encode_ns_per_frame", "ns", 1, ns, allocs)
	encoded := wire.EncodeFrame(frame)
	rx := wire.GetFrame()
	var decodeErr error
	ns, allocs = lt.measure(unbounded, func() {
		if err := wire.DecodeFrameInto(rx, encoded); err != nil {
			decodeErr = err
		}
	})
	wire.PutFrame(rx)
	if decodeErr != nil {
		return nil, decodeErr
	}
	lt.report("wire.decode_ns_per_frame", "ns", 1, ns, allocs)

	// wire: encode one EVENT carrying one 8 KiB entry.
	event := &wire.ClientEvent{Tail: true, Entries: []wire.ClientEventEntry{{Seq: 7, Origin: 1 << 31, Logical: 7, Payload: make([]byte, 8192)}}}
	ns, allocs = lt.measure(unbounded, func() { buf.B = wire.AppendClientEvent(buf.B[:0], event) })
	wire.PutBuf(buf)
	lt.report("wire.event_encode_ns", "ns", 1, ns, allocs)

	if err := lt.coreHop(); err != nil {
		return nil, err
	}
	if err := lt.walCalls(filepath.Join(dataDir, fmt.Sprintf("layers-%d", os.Getpid()))); err != nil {
		return nil, err
	}
	if err := lt.serveTail(); err != nil {
		return nil, err
	}
	if err := lt.tcpSend(); err != nil {
		return nil, err
	}
	return &lt.out, nil
}

// layerCoreHop prices one segment crossing a relay: HandleFrame, FillFrame
// and the delivery drain, without codec or socket.
func (lt *layerTimer) coreHop() error {
	view := core.View{ID: 1, Ring: ring.MustNew([]ring.ProcID{0, 1, 2}, 1)}
	relay, err := core.NewEngine(core.Config{Self: 2}, view)
	if err != nil {
		return err
	}
	body := make([]byte, 8192)
	in := &wire.Frame{ViewID: 1}
	outFrame := wire.GetFrame()
	defer wire.PutFrame(outFrame)
	var deliveries []core.Delivery
	var hopErr error
	i := uint64(0)
	step := func() {
		in.Data = append(in.Data[:0], wire.DataItem{ID: wire.MsgID{Origin: 0, Local: i}, Seq: i + 1, Parts: 1, Body: body})
		i++
		if err := relay.HandleFrame(in); err != nil {
			hopErr = err
			return
		}
		relay.FillFrame(outFrame)
		deliveries = relay.DrainDeliveries(deliveries[:0])
	}
	// Fill the delivered-buffer window first so recycling is active.
	for range core.DefaultDeliveredBuffer + 64 {
		step()
	}
	ns, allocs := lt.measure(unbounded, step)
	if hopErr != nil {
		return hopErr
	}
	lt.report("core.hop_ns_per_seg", "ns", 1, ns, allocs)
	return nil
}

// layerWAL prices append, the fsync of a 64-entry batch, and paged reads,
// on a real directory.
func (lt *layerTimer) walCalls(dir string) (err error) {
	defer os.RemoveAll(dir)
	// One huge segment and no automatic fsync: rotation and the SyncEvery
	// cap would fold fsyncs into the append figure.
	open := func(name string) (*wal.Log, error) {
		return wal.Open(filepath.Join(dir, name), wal.Options{SegmentBytes: 1 << 40, SyncEvery: 1 << 30})
	}
	var opErr error
	appender := func(log *wal.Log, size int) func() {
		payload := make([]byte, size)
		seq := uint64(0)
		return func() {
			seq++
			if err := log.Append(wal.Entry{Seq: seq, Origin: 1 << 31, LogicalID: seq, Payload: payload}); err != nil {
				opErr = err
			}
		}
	}

	writeLog, err := open("write")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := writeLog.Close(); err == nil {
			err = cerr
		}
	}()
	append8k := appender(writeLog, 8192)
	// 16384 × 8 KiB = 128 MiB of page cache at most.
	ns, allocs := lt.measure(16384, append8k)
	lt.report("wal.append_ns_per_entry", "ns", 1, ns, allocs)
	var syncNs int64
	syncs := 0
	for start := time.Now(); time.Since(start) < lt.budget || syncs < 8; syncs++ {
		for range 64 {
			append8k()
		}
		t0 := time.Now()
		if err := writeLog.Sync(); err != nil {
			return err
		}
		syncNs += int64(time.Since(t0))
	}
	// No allocation twin: the timed call is one fsync.
	lt.out.set("wal.sync_us_per_batch64", "us", float64(syncNs)/float64(syncs)/1e3)

	// Paged reads: a log of 1 KiB entries, a whole number of 256-entry
	// pages, read front to back again and again.
	const pageEntries, pages = 256, 80
	readLog, err := open("read")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := readLog.Close(); err == nil {
			err = cerr
		}
	}()
	append1k := appender(readLog, 1024)
	for range pageEntries * pages {
		append1k()
	}
	if opErr != nil {
		return opErr
	}
	const last = pageEntries * pages
	cursor := uint64(0)
	ns, allocs = lt.measure(unbounded, func() {
		entries, _, err := readLog.ReadFrom(cursor, last, pageEntries, 1<<20)
		if err != nil || len(entries) != pageEntries {
			opErr = fmt.Errorf("wal: read page after %d: %d entries, %v", cursor, len(entries), err)
			return
		}
		cursor = entries[len(entries)-1].Seq % last
	})
	if opErr != nil {
		return opErr
	}
	lt.report("wal.readfrom_ns_per_entry", "ns", pageEntries, ns, allocs)
	return nil
}

// discard is a transport endpoint that drops everything sent through it.
type discard struct{ frames atomic.Int64 }

func (d *discard) Self() transport.ProcID              { return 0 }
func (d *discard) Send(transport.ProcID, []byte) error { d.frames.Add(1); return nil }
func (d *discard) SetHandler(transport.Handler)        {}
func (d *discard) Close() error                        { return nil }
func (d *discard) SendBatch(_ transport.ProcID, payloads [][]byte) error {
	d.frames.Add(int64(len(payloads)))
	return nil
}

// frontier is a serve.Source with nothing to page: subscribers attach to
// the shared tail at once.
type frontier struct{ applied atomic.Uint64 }

func (f *frontier) Applied() uint64 { return f.applied.Load() }
func (f *frontier) ReadCommitted(cursor, applied uint64, maxEntries, maxBytes int) (serve.Page, error) {
	return serve.Page{Cursor: applied}, nil
}
func (f *frontier) Watch() <-chan struct{} { return make(chan struct{}) }

// layerServe prices PublishTail per committed offset with one attached
// link, and what each further attached link adds (1 versus 64).
func (lt *layerTimer) serveTail() error {
	const tailOps = 20000
	perOffset := func(links int) (ns, allocs float64, err error) {
		sink, src := &discard{}, &frontier{}
		// No link may fill its queue and detach mid-measurement.
		srv := serve.New(serve.Config{
			Transport: sink, Source: src, QueueCap: 2 * tailOps,
			Redirect: func() ([]serve.ProcID, []string, uint64) { return nil, nil, src.Applied() },
		})
		defer func() { srv.Shutdown(); srv.Wait() }()
		for i := range links {
			id := transport.ProcID(1<<31 + i)
			srv.Handle(id, wire.EncodeClientHello(&wire.ClientHello{}))
			srv.Handle(id, wire.EncodeClientSubscribe(&wire.ClientSubscribe{SubID: 1}))
		}
		if !waitFor(5*time.Second, func() bool { return srv.Stats().TailAttached == links }) {
			return 0, 0, fmt.Errorf("serve: %d of %d stub links attached", srv.Stats().TailAttached, links)
		}
		entry := []wire.ClientEventEntry{{Origin: 1 << 31, Payload: make([]byte, 1024)}}
		seq := uint64(0)
		ns, allocs = lt.measure(tailOps-16, func() {
			seq++
			entry[0].Seq, entry[0].Logical = seq, seq
			src.applied.Store(seq)
			srv.PublishTail(entry)
		})
		if got := srv.Stats().TailAttached; got != links {
			return 0, 0, fmt.Errorf("serve: %d of %d stub links still attached after the run", got, links)
		}
		return ns, allocs, nil
	}
	ns1, allocs1, err := perOffset(1)
	if err != nil {
		return err
	}
	ns64, allocs64, err := perOffset(64)
	if err != nil {
		return err
	}
	lt.report("serve.publish_tail_ns_per_offset", "ns", 1, ns1, allocs1)
	lt.report("serve.publish_tail_ns_per_extra_sub", "ns", 1, (ns64-ns1)/63, (allocs64-allocs1)/63)
	return nil
}

// layerTCP prices SendBatch per frame on a loopback pair: batches of four
// encoded 8 KiB-segment frames, the receiver discarding.
func (lt *layerTimer) tcpSend() error {
	a, err := tcp.New(tcp.Config{Self: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcp.New(tcp.Config{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetPeers(map[transport.ProcID]string{1: b.Addr()})
	b.SetPeers(map[transport.ProcID]string{0: a.Addr()})
	a.SetHandler(func(transport.ProcID, []byte) {})
	b.SetHandler(func(transport.ProcID, []byte) {})
	one := wire.EncodeFrame(layerFrame(1))
	batch := [][]byte{one, one, one, one}
	var sendErr error
	ns, allocs := lt.measure(unbounded, func() {
		if err := a.SendBatch(1, batch); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return sendErr
	}
	lt.report("transport.tcp.sendbatch_ns_per_frame", "ns", float64(len(batch)), ns, allocs)
	return nil
}

// --- Budget table -----------------------------------------------------------------

// budgetRow is one layer's share of a message's CPU: its isolated unit
// cost times how many units the run's counters say a message needed.
type budgetRow struct {
	layer       string
	unitNs      float64
	unitsPerMsg float64
	note        string
	counted     bool // part of the CPU sum (fsync is waiting, not CPU)
}

func (r budgetRow) usPerMsg() float64 { return r.unitNs * r.unitsPerMsg / 1e3 }

// budgetTable is ROADMAP 1(d): isolated cost × calls per message, per
// layer, against the measured cpu_us_per_msg. Frame costs were taken on
// four-segment frames, so they are charged per segment moved.
func budgetTable(l *metricSet, d delta, msgs, delivered, cpuUsPerMsg float64) []budgetRow {
	v := func(name string) float64 { return l.byName[name].Value }
	segsOut := ratio(d[cSegsOut], msgs)
	segsIn := ratio(d[cSegsIn], msgs)
	rows := []budgetRow{
		{"wire encode", v("wire.encode_ns_per_frame") / 4, segsOut, "per segment sent on the ring", true},
		{"wire decode", v("wire.decode_ns_per_frame") / 4, segsIn, "per segment received from the ring", true},
		{"core hop", v("core.hop_ns_per_seg"), segsIn, "per segment received from the ring", true},
		{"transport/tcp send", v("transport.tcp.sendbatch_ns_per_frame"), ratio(d[cFramesOut], msgs), "per ring frame sent", true},
		{"wal append", v("wal.append_ns_per_entry"), ratio(d[cAppends], msgs), "per entry appended", true},
		{"wal fsync", v("wal.sync_us_per_batch64") * 1e3, ratio(d[cFsyncs], msgs), "per fsync; waiting, not CPU", false},
		{"wal paged read", v("wal.readfrom_ns_per_entry"), ratio(delivered, msgs) * v("wal.read_amp"), "per entry read back (traced read_amp)", true},
		{"serve tail publish", v("serve.publish_tail_ns_per_offset"), ratio(d[cTailFrames], msgs), "per tail frame, EVENT encode included", true},
	}
	sum := 0.0
	for _, r := range rows {
		if r.counted {
			sum += r.usPerMsg()
		}
	}
	rows = append(rows,
		budgetRow{layer: "sum of layers", unitNs: sum * 1e3, unitsPerMsg: 1, counted: false},
		budgetRow{layer: "measured cpu_us_per_msg", unitNs: cpuUsPerMsg * 1e3, unitsPerMsg: 1, counted: false},
		budgetRow{layer: "unexplained", unitNs: (cpuUsPerMsg - sum) * 1e3, unitsPerMsg: 1,
			note: "client sessions, generator, goroutine hand-offs, kernel TCP receive, GC", counted: false},
	)
	return rows
}
