package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsr"
	"fsr/internal/wal"
	"fsr/transport"
)

// The traced run measures layers from outside the program: timing
// decorators sit on the seams the code already exports — the
// fsr.ClusterTransport every member's frames cross and the wal.FS every
// member's log writes through — plus the generator's own Publish calls.
// Spans inside the program (stage clocks) are ROADMAP item 2, not this.

// callID names one decorated call site.
type callID uint8

const (
	callRingSend      callID = iota // member → ring successor (Send/SendBatch)
	callClientSend                  // member → client link (PUBACK, EVENT)
	callRingHandler                 // inbound ring frame inside the node's handler
	callClientHandler               // inbound client frame inside the node's handler
	callWALWrite                    // File.Write on a log segment
	callWALFsync                    // File.Sync on a log segment
	callWALRead                     // File.Read on a log segment
	callPublish                     // the generator's Session.Publish call
	numCalls
)

var callNames = [numCalls]struct{ layer, call string }{
	callRingSend:      {"transport.tcp", "send"},
	callClientSend:    {"transport.tcp", "send_client"},
	callRingHandler:   {"transport.tcp", "handler"},
	callClientHandler: {"transport.tcp", "handler_client"},
	callWALWrite:      {"wal", "write"},
	callWALFsync:      {"wal", "fsync"},
	callWALRead:       {"wal", "read"},
	callPublish:       {"session", "publish_call"},
}

// span is one timed call: which layer and member, when, and how much it
// moved. Times are nanoseconds from the run's clock base.
type span struct {
	call    callID
	member  uint32
	startNs int64
	endNs   int64
	bytes   int64
	frames  int64
}

// callTotals aggregates every span of one call site, kept even after the
// span buffer is full.
type callTotals struct {
	count, ns, bytes, frames atomic.Int64
}

// maxSpans bounds the in-memory span buffer (≈10 MB). A saturated run
// makes more calls than that; the totals stay exact, the span file holds
// the first maxSpans and the rest are counted in dropped.
const maxSpans = 1 << 18

// tracer collects spans in memory while on and writes them out at exit.
// It is switched per measurement window, so one run yields traced and
// untraced windows on the same cluster — their ratio is the overhead.
type tracer struct {
	base time.Time
	on   atomic.Bool

	totals [numCalls]callTotals
	spans  []span
	next   atomic.Int64

	mu      sync.Mutex
	fsyncNs []int64 // every fsync duration, for the median
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record closes a span that began at startNs.
func (t *tracer) record(c callID, member uint32, startNs int64, bytes, frames int) {
	endNs := t.now()
	tot := &t.totals[c]
	tot.count.Add(1)
	tot.ns.Add(endNs - startNs)
	tot.bytes.Add(int64(bytes))
	tot.frames.Add(int64(frames))
	if c == callWALFsync {
		t.mu.Lock()
		t.fsyncNs = append(t.fsyncNs, endNs-startNs)
		t.mu.Unlock()
	}
	if i := t.next.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{call: c, member: member, startNs: startNs, endNs: endNs, bytes: int64(bytes), frames: int64(frames)}
	}
}

func (t *tracer) dropped() int64 { return max(t.next.Load()-maxSpans, 0) }

// fsyncP50Ms is the median fsync duration seen while tracing.
func (t *tracer) fsyncP50Ms() float64 {
	t.mu.Lock()
	sorted := slices.Clone(t.fsyncNs)
	t.mu.Unlock()
	slices.Sort(sorted)
	return percentileMs(sorted, 0.5)
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for _, s := range t.spans[:min(t.next.Load(), maxSpans)] {
		n := callNames[s.call]
		fmt.Fprintf(w, `{"layer":%q,"member":%d,"call":%q,"start_ns":%d,"end_ns":%d,"bytes":%d,"frames":%d}`+"\n",
			n.layer, s.member, n.call, s.startNs, s.endNs, s.bytes, s.frames)
	}
	return w.Flush()
}

// --- fsr.ClusterTransport decorator ----------------------------------------

// tracedCluster wraps the TCP cluster transport so every member endpoint it
// hands out is timed. It forwards Addrs, which client.Dial needs.
type tracedCluster struct {
	*fsr.TCPClusterTransport
	t *tracer
}

// Join implements fsr.ClusterTransport.
func (c *tracedCluster) Join(id fsr.ProcID) (transport.Transport, error) {
	tr, err := c.TCPClusterTransport.Join(id)
	if err != nil {
		return nil, err
	}
	batch, ok := tr.(transport.BatchSender)
	if !ok {
		_ = tr.Close()
		return nil, fmt.Errorf("benchmark: %T lacks SendBatch; tracing it would measure the per-frame path", tr)
	}
	return &tracedTransport{Transport: tr, batch: batch, t: c.t}, nil
}

// tracedTransport times one member's sends and inbound handler. It must
// keep exposing transport.BatchSender: the node type-asserts for it and
// silently falls back to one Send per frame when it is missing.
type tracedTransport struct {
	transport.Transport
	batch transport.BatchSender
	t     *tracer
}

func sendCall(to transport.ProcID) callID {
	if to >= fsr.ClientIDBase {
		return callClientSend
	}
	return callRingSend
}

func (tt *tracedTransport) Send(to transport.ProcID, payload []byte) error {
	if !tt.t.on.Load() {
		return tt.Transport.Send(to, payload)
	}
	start, size := tt.t.now(), len(payload)
	err := tt.Transport.Send(to, payload)
	tt.t.record(sendCall(to), uint32(tt.Self()), start, size, 1)
	return err
}

func (tt *tracedTransport) SendBatch(to transport.ProcID, payloads [][]byte) error {
	if !tt.t.on.Load() {
		return tt.batch.SendBatch(to, payloads)
	}
	start, size := tt.t.now(), 0
	for _, p := range payloads {
		size += len(p)
	}
	err := tt.batch.SendBatch(to, payloads)
	tt.t.record(sendCall(to), uint32(tt.Self()), start, size, len(payloads))
	return err
}

func (tt *tracedTransport) SetHandler(h transport.Handler) {
	tt.Transport.SetHandler(func(from transport.ProcID, payload []byte) {
		if !tt.t.on.Load() {
			h(from, payload)
			return
		}
		c := callRingHandler
		if from >= fsr.ClientIDBase {
			c = callClientHandler
		}
		start, size := tt.t.now(), len(payload) // the handler owns payload after the call
		h(from, payload)
		tt.t.record(c, uint32(tt.Self()), start, size, 1)
	})
}

// --- wal.FS decorator --------------------------------------------------------

// tracedFS times the reads, writes and fsyncs of one member's log files.
type tracedFS struct {
	wal.FS
	member uint32
	t      *tracer
}

func (f tracedFS) wrap(file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, member: f.member, t: f.t}, nil
}

func (f tracedFS) Open(path string) (wal.File, error) { return f.wrap(f.FS.Open(path)) }

func (f tracedFS) OpenFile(path string, flag int, perm fs.FileMode) (wal.File, error) {
	return f.wrap(f.FS.OpenFile(path, flag, perm))
}

func (f tracedFS) CreateTemp(dir, pattern string) (wal.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

type tracedFile struct {
	wal.File
	member uint32
	t      *tracer
}

func (f tracedFile) Read(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.File.Read(p)
	}
	start := f.t.now()
	n, err := f.File.Read(p)
	f.t.record(callWALRead, f.member, start, n, 0)
	return n, err
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.File.Write(p)
	}
	start := f.t.now()
	n, err := f.File.Write(p)
	f.t.record(callWALWrite, f.member, start, n, 0)
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	start := f.t.now()
	err := f.File.Sync()
	f.t.record(callWALFsync, f.member, start, 0, 0)
	return err
}
