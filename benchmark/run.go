package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"fsr"
)

// metric is one reported number. Windows holds the per-window values a
// median was taken over, so -compare can judge a side's own noise.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
}

// metricSet keeps metrics in the order they were reported. In JSON it is
// an object keyed by name.
type metricSet struct {
	names  []string
	byName map[string]metric
}

func (s metricSet) MarshalJSON() ([]byte, error) { return json.Marshal(s.byName) }

func (s *metricSet) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &s.byName); err != nil {
		return err
	}
	s.names = slices.Sorted(maps.Keys(s.byName))
	return nil
}

func (s *metricSet) set(name, unit string, value float64, windows ...float64) {
	if s.byName == nil {
		s.byName = make(map[string]metric)
	}
	if _, ok := s.byName[name]; !ok {
		s.names = append(s.names, name)
	}
	s.byName[name] = metric{Value: value, Unit: unit, Windows: windows}
}

// setMedian reports the median of per-window values.
func (s *metricSet) setMedian(name, unit string, windows []float64) {
	s.set(name, unit, median(windows), windows...)
}

// setQuiet reports the value a metric holds in the run's quietest windows:
// quietQuantile of the per-window values, counted from the better side.
func (s *metricSet) setQuiet(name, unit string, windows []float64, higherIsBetter bool) {
	p := quietQuantile
	if higherIsBetter {
		p = 1 - p
	}
	s.set(name, unit, quantile(windows, p), windows...)
}

// result is everything one run of one workload found.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Invalid   []string  `json:"invalid,omitempty"` // why Correct is false
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
	SpanFile  string    `json:"span_file,omitempty"`

	budget []budgetRow
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runWorkload sets the system up, loads it, checks what came back and
// derives every metric.
func runWorkload(wl workload, cfg runConfig) (*result, error) {
	base := time.Now()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(base)
	}
	res := &result{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Trace: cfg.trace}

	// Set-up, several times over: the last one is used, the median of the
	// durations is setup_s. Tearing the earlier ones down is not counted.
	var e *env
	var setupS []float64
	for i := range wl.setUps {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(wl, cfg, base, i, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", wl.name, i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.tearDown()

	startNs := e.now()
	win := windows{startNs: startNs + int64(cfg.warmUp), widthNs: int64(cfg.measure) / numWindows, n: numWindows}
	e.subscriber.win.Store(&win)
	if wl.sub == subReplay {
		e.subscriber.start(func() { e.subscriber.runReplay(e.cluster.Node(1)) })
	}
	pub := newPublisher(e, win, tr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Counters are read at the first and the last window edge.
	var before, after snapshot
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); pub.run(ctx, startNs) }()
	go func() { defer wg.Done(); pub.drain() }()
	edges := sampleBoundaries(e, win, tr, func(i int) {
		switch i {
		case 0:
			before = takeSnapshot(e)
		case win.n:
			after = takeSnapshot(e)
		}
	})
	wg.Wait()

	// Quiescence: every acked message reaches the subscriber, and every
	// member ends at the same applied offset.
	sub := e.subscriber
	var diverged int64
	if !waitFor(settleTimeout, func() bool { return appliedEqual(e.cluster) }) {
		diverged = 1
	}
	if wl.sub == subReplay {
		sub.stopPasses.Store(true)
		<-sub.done
		sub.replayPass(e.cluster.Node(1)) // one last pass over the settled log
	} else {
		waitFor(settleTimeout, func() bool { return sub.seen.Load() >= pub.lastAcked })
	}
	sub.stop()
	unseen := int64(0)
	if seen := sub.seen.Load(); seen < pub.lastAcked {
		unseen = int64(pub.lastAcked - seen)
	}
	final := takeSnapshot(e)
	viewChanges := final.minus(before)[cViewEpochs]

	committed, _ := pub.acks.total()
	delivered, _ := sub.events.total()
	res.Attempted = pub.attempted
	res.Failed = pub.pubErrors + pub.unresolved + pub.ackErrors + int64(pub.receipts.regressions) +
		int64(sub.check.violations()) + unseen + diverged
	failRatio := ratio(float64(res.Failed), float64(res.Attempted))

	// --- End-to-end metrics ---------------------------------------------
	m := &res.EndToEnd
	m.setMedian("setup_s", "s", setupS)
	m.setQuiet("commit_mbps", "Mb/s", pub.acks.mbpsPerWindow(win.widthNs), true)
	m.setQuiet("deliver_mbps", "Mb/s", sub.events.mbpsPerWindow(win.widthNs), true)
	m.setQuiet("ack_p50_ms", "ms", pub.acks.quantilePerWindow(0.50), false)
	m.setQuiet("event_p50_ms", "ms", sub.events.quantilePerWindow(0.50), false)
	cpuPerMsg := make([]float64, win.n)
	for i := range cpuPerMsg {
		cpuPerMsg[i] = ratio(float64(edges[i+1].cpuNs-edges[i].cpuNs)/1e3, float64(pub.acks.count[i]))
	}
	m.setQuiet("cpu_us_per_msg", "us", cpuPerMsg, false)

	// --- Per-layer metrics from counters --------------------------------
	l := &res.PerLayer
	msgs := float64(committed)
	d := after.minus(before)
	l.set("fail_ratio", "ratio", failRatio)
	l.set("core.segs_per_msg", "count", ratio(d[cDelivered0], msgs))
	l.set("core.frames_per_msg", "count", ratio(d[cFramesOut], msgs))
	l.set("core.segs_per_frame", "count", ratio(d[cSegsOut], d[cFramesOut]))
	l.set("core.standalone_ack_ratio", "ratio", ratio(d[cStandaloneAcks], d[cFramesOut]))
	l.set("wal.fsyncs_per_msg", "count", ratio(d[cFsyncs], msgs))
	l.set("wal.appends_per_msg", "count", ratio(d[cAppends], msgs))
	l.set("serve.tail_frames_per_msg", "count", ratio(d[cTailFrames], msgs))
	l.set("serve.tail_detaches", "count", d[cTailDetaches])
	lags := make([]float64, len(edges))
	for i, b := range edges {
		lags[i] = float64(b.edgeLag)
	}
	l.setMedian("edge.applied_lag_msgs", "count", lags)
	l.set("node.publish_p50_ms", "ms", histQuantileMs(before.publish, after.publish, 0.5))
	l.set("node.session_bounded", "count", d[cBounded])
	l.set("node.session_duplicates", "count", d[cDuplicates])
	l.set("vsc.view_changes", "count", viewChanges)
	l.set("session.window_wait_ratio", "ratio", ratio(float64(pub.blockedNs), float64(pub.callNs)))
	slices.Sort(pub.lateNs)
	l.set("loadgen.late_p99_ms", "ms", percentileMs(pub.lateNs, 0.99))
	achieved := 1.0
	if wl.rate > 0 {
		achieved = ratio(msgs, float64(wl.rate)*cfg.measure.Seconds())
	}
	l.set("loadgen.achieved_ratio", "ratio", achieved)
	l.set("subscriber.replay_passes", "count", float64(sub.passes))
	l.set("proc.allocs_per_msg", "count", ratio(d[cMallocs], msgs))
	l.set("proc.alloc_bytes_per_msg", "B", ratio(d[cAllocBytes], msgs))
	l.set("proc.gc_pause_ms", "ms", d[cGCPauseNs]/1e6)
	l.set("proc.peak_rss_mb", "MB", peakRSSMB())
	// Tails are reported, not gated: windowed p99 moved ±15 % between
	// identical runs on the reference box.
	l.setMedian("session.ack_p99_ms", "ms", pub.acks.quantilePerWindow(0.99))
	l.setMedian("session.ack_p999_ms", "ms", pub.acks.quantilePerWindow(0.999))
	l.set("session.ack_samples", "count", float64(pub.acks.samples()))
	l.setMedian("session.event_p99_ms", "ms", sub.events.quantilePerWindow(0.99))
	l.set("session.event_samples", "count", float64(sub.events.samples()))

	if tr != nil {
		res.traced(tr, pub, sub, win)
		res.SpanFile = filepath.Join(cfg.dataDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", wl.name, cfg.seed))
		if err := tr.writeSpans(res.SpanFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		layers, err := isolatedLayers(cfg.dataDir, cfg.layerBudget)
		if err != nil {
			return nil, fmt.Errorf("isolated layers: %w", err)
		}
		for _, name := range layers.names {
			l.set(name, layers.byName[name].Unit, layers.byName[name].Value)
		}
		res.budget = budgetTable(l, d, msgs, float64(delivered), m.byName["cpu_us_per_msg"].Value)
	}

	// --- Verdict ----------------------------------------------------------
	if res.Failed > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf(
			"%d failed: %d publish errors, %d unresolved within %v, %d ack errors, %d commit-offset regressions, subscriber %d gaps / %d duplicates / %d reorders / %d offset regressions, %d acked but never seen, applied diverged %d",
			res.Failed, pub.pubErrors, pub.unresolved, ackDeadline, pub.ackErrors, pub.receipts.regressions,
			sub.check.gaps, sub.check.duplicates, sub.check.reorders, sub.check.offsetRegressions, unseen, diverged))
	}
	if viewChanges != 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%.0f view changes during the run", viewChanges))
	}
	if achieved < minAchieved {
		res.Invalid = append(res.Invalid, fmt.Sprintf("open loop committed %.4f of the offered rate (< %.2f)", achieved, minAchieved))
	}
	if committed == 0 || delivered == 0 {
		res.Invalid = append(res.Invalid, "nothing committed or nothing delivered in the measured windows")
	}
	res.Correct = len(res.Invalid) == 0
	return res, nil
}

// waitFor polls cond until it holds or the timeout passes. The poll is
// short because set-up waits with it and a whole set-up takes a millisecond.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

func appliedEqual(c *fsr.Cluster) bool {
	nodes := c.Nodes()
	for _, n := range nodes[1:] {
		if n.Applied() != nodes[0].Applied() {
			return false
		}
	}
	return true
}

// --- Counter snapshots ------------------------------------------------------------

// counter names one cumulative count the per-layer metrics are deltas of.
// Member counters are summed over the three members unless noted.
type counter int

const (
	cFramesOut      counter = iota // ring frames sent
	cSegsOut                       // data segments sent, relayed and own
	cSegsIn                        // data segments received
	cDelivered0                    // segments TO-delivered at member 0 alone
	cStandaloneAcks                // frames that carried only acks
	cFsyncs
	cAppends
	cTailFrames   // encode-once tail frames, members and edge
	cTailDetaches // links demoted to paging, members and edge
	cBounded
	cDuplicates
	cViewEpochs // sum of the members' view IDs
	cMallocs
	cAllocBytes
	cGCPauseNs
	numCounters
)

// snapshot is every counter at one instant, plus member 0's publish
// latency histogram (the member that serves the publisher).
type snapshot struct {
	c       [numCounters]uint64
	publish fsr.LatencyHistogram
}

func takeSnapshot(e *env) snapshot {
	var s snapshot
	for i, n := range e.cluster.Nodes() {
		m := n.Metrics()
		if i == 0 {
			s.c[cDelivered0] = m.Delivered
			s.publish = m.PublishLatency
		}
		s.c[cFramesOut] += m.FramesOut
		s.c[cSegsOut] += m.RelayedData + m.OwnSent
		s.c[cSegsIn] += m.DataIn
		s.c[cStandaloneAcks] += m.StandaloneAcks
		s.c[cFsyncs] += m.WAL.Fsyncs
		s.c[cAppends] += m.WAL.Appends
		s.c[cTailFrames] += m.TailFrames
		s.c[cTailDetaches] += m.TailDetaches
		s.c[cBounded] += m.SessionBounded
		s.c[cDuplicates] += m.SessionDuplicates
		s.c[cViewEpochs] += m.View.ID
	}
	if e.edge != nil {
		m := e.edge.Metrics()
		s.c[cTailFrames] += m.TailFrames
		s.c[cTailDetaches] += m.TailDetaches
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.c[cMallocs], s.c[cAllocBytes], s.c[cGCPauseNs] = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	return s
}

// delta is how far each counter moved between two snapshots.
type delta [numCounters]float64

func (s snapshot) minus(b snapshot) delta {
	var d delta
	for i := range d {
		d[i] = float64(s.c[i] - b.c[i])
	}
	return d
}

// --- Traced metrics ---------------------------------------------------------------

// traced derives the per-layer metrics of the decorated calls. The
// decorators were on during the even windows only, so every denominator
// is taken over those windows; per-message figures are summed over all
// members, like cpu_us_per_msg.
func (res *result) traced(tr *tracer, pub *publisher, sub *subscriber, win windows) {
	var msgs, payloadBytes, deliveredMsgs, deliveredBytes, tracedWindows float64
	var onMbps, offMbps []float64
	mbps := pub.acks.mbpsPerWindow(win.widthNs)
	for i := range win.n {
		if i%2 == 0 {
			msgs += float64(pub.acks.count[i])
			payloadBytes += float64(pub.acks.bytes[i])
			deliveredMsgs += float64(sub.events.count[i])
			deliveredBytes += float64(sub.events.bytes[i])
			tracedWindows++
			onMbps = append(onMbps, mbps[i])
		} else {
			offMbps = append(offMbps, mbps[i])
		}
	}
	get := func(c callID) (count, us, bytes, frames float64) {
		t := &tr.totals[c]
		return float64(t.count.Load()), float64(t.ns.Load()) / 1e3, float64(t.bytes.Load()), float64(t.frames.Load())
	}
	l := &res.PerLayer
	sends, sendUs, sendBytes, sendFrames := get(callRingSend)
	l.set("transport.tcp.send_us_per_frame", "us", ratio(sendUs, sendFrames))
	l.set("transport.tcp.frames_per_send", "count", ratio(sendFrames, sends))
	l.set("transport.tcp.sends_per_msg", "count", ratio(sends, msgs))
	l.set("transport.tcp.wire_amp", "ratio", ratio(sendBytes, payloadBytes))
	_, handlerUs, _, handlerFrames := get(callRingHandler)
	l.set("transport.tcp.handler_us_per_frame", "us", ratio(handlerUs, handlerFrames))
	_, writeUs, writeBytes, _ := get(callWALWrite)
	l.set("wal.write_us_per_msg", "us", ratio(writeUs, msgs))
	l.set("wal.write_amp", "ratio", ratio(writeBytes, payloadBytes))
	_, fsyncUs, _, _ := get(callWALFsync)
	l.set("wal.fsync_p50_ms", "ms", tr.fsyncP50Ms())
	l.set("wal.fsync_busy_ratio", "ratio", ratio(fsyncUs*1e3, tracedWindows*float64(win.widthNs)*clusterN))
	_, readUs, readBytes, _ := get(callWALRead)
	l.set("wal.read_us_per_msg", "us", ratio(readUs, deliveredMsgs))
	l.set("wal.read_amp", "ratio", ratio(readBytes, deliveredBytes))
	calls, callUs, _, _ := get(callPublish)
	l.set("session.publish_call_us", "us", ratio(callUs, calls))
	l.set("trace.overhead_ratio", "ratio", ratio(median(onMbps), median(offMbps)))
	l.set("trace.spans_dropped", "count", float64(tr.dropped()))
}
