// Package harness is the deterministic chaos harness: it drives the real
// fsr/transport stack (no protocol mocks) through seeded randomized
// workloads with mid-stream fault injection, then checks the paper's
// correctness claims after quiescence — uniform total order surviving up
// to t crashes, identity-preserving rebroadcast across leader failure,
// FIFO per sender, receipt/delivery consistency and applied-state equality
// across crash-restart.
//
// One integer seed pins a whole scenario: the cluster shape, the workload
// (senders, message counts, payload sizes), the chaos transport's per-link
// delay/stall schedule (transport/chaos) and the fault plan (crashes,
// restarts, leader rotations, membership churn, slow nodes, link stalls).
// The seed picks one of ten coverage classes from the profiles table, and
// the class's plan generator draws the rest. A failing scenario prints a
// one-line repro of the form
//
//	FSR_SEED=<seed> go test -race -run 'TestChaos/seed-<seed>' ./internal/harness
//
// and re-running it regenerates the identical scenario plan and injection
// schedule byte-for-byte (the goroutine scheduler still interleaves the
// stack freely — the seed pins every injected fault, not the scheduler).
// testdata/plans.golden pins the plans of the regression ranges and every
// pinned seed, so a refactor that shifts one random draw fails loudly.
//
// A member that halts on its own — a fault, or eviction — is reaped as down
// and restarted like a crashed one, and a restarted member awaiting
// readmission holds up quiescence rather than dropping out of the checks.
package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsr"
	"fsr/internal/wal"
	"fsr/internal/wal/walfault"
	"fsr/transport/chaos"
	"fsr/transport/mem"
)

// Transport IDs for harness-attached processes, spread through the client
// ID space so Cluster.Dial's sequential IDs (ClientIDBase+0, +1, ...)
// never collide with them.
const (
	edgeIDBase   = fsr.ClientIDBase + 0x100000 // 2 per edge: serving, upstream
	clientIDBase = fsr.ClientIDBase + 0x200000 // 2 per client: publisher, subscriber
)

// multiSegFrames accumulates, across every scenario this process ran, how
// many outbound frames batched more than one data segment. The chaos suite
// asserts it is non-zero over a run of scenarios: the hot-path batching
// must actually be exercised by chaos traffic (frames with len(Data) > 1
// flowing through encode, decode, chaos injection and the engine), not
// just by unit tests.
var multiSegFrames atomic.Uint64

// evictedRejoins counts, likewise, members that halted on eviction, were
// restarted and were live at quiescence: the suite asserts eviction's
// recovery is exercised and held to the checks.
var evictedRejoins atomic.Uint64

// chaosSegments and chaosMessages accumulate, per scenario, the sequence
// numbers one member's applied history spans (a segment consumes one each)
// and the messages in it. Their ratio is measured, not derived from MaxPay
// and SegmentSize: the suite asserts that chaos traffic still exercises
// reassembly wherever the segment boundary happens to sit.
var chaosSegments, chaosMessages atomic.Uint64

// ExtraSegmentsPerMessage reports how many segments beyond its first the
// average message of the scenarios run so far needed — the share of
// two-part messages, as MaxPay stays below two segments. Sequence numbers
// spent on filtered duplicate publishes or abandoned broadcasts count as
// extra segments too; they are rare.
func ExtraSegmentsPerMessage() float64 {
	segs, msgs := chaosSegments.Load(), chaosMessages.Load()
	if msgs == 0 {
		return 0
	}
	return float64(segs)/float64(msgs) - 1
}

// The chaos decorator composes with every cluster transport: it is itself
// a ClusterTransport, and both shipped backends satisfy its Inner surface.
var (
	_ fsr.ClusterTransport = (*chaos.Transport)(nil)
	_ chaos.Inner          = (*fsr.MemClusterTransport)(nil)
	_ chaos.Inner          = (*fsr.TCPClusterTransport)(nil)
)

// sent pairs one issued broadcast with its receipt for the checker.
type sent struct {
	origin  fsr.ProcID
	hash    uint64
	length  int
	receipt *fsr.Receipt
	// mustDeliver marks a session-client publish: the session survives
	// member crashes by failing over, so a receipt that resolves with an
	// error (rather than a commit) is an invariant violation.
	mustDeliver bool
}

// TB is the subset of testing.TB the harness reports through.
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
	FailNow()
	Failed() bool
	TempDir() string
}

// tbWriter adapts TB.Logf into an io.Writer so the scenario's structured
// events (view installs, catch-ups, WAL repairs — everything the stack
// emits through slog) land in the test log: a failing seed's artifact then
// carries the machine-parsable event stream alongside the repro line.
type tbWriter struct {
	t TB
}

func (w tbWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// newTBLogger builds the slog handler chaos scenarios run under. The time
// attribute is dropped: the test log timestamps lines already, and seed
// replays diff cleaner without wall-clock noise.
func newTBLogger(t TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(tbWriter{t: t}, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// failf reports one invariant violation with the replayable repro line.
func failf(t TB, seed int64, format string, args ...any) {
	t.Helper()
	t.Errorf("%s\nreplay: FSR_SEED=%d go test -race -run 'TestChaos/seed-%d' ./internal/harness",
		fmt.Sprintf(format, args...), seed, seed)
}

// Run executes one seeded scenario end to end and checks every invariant.
func Run(t TB, seed int64, soak bool) {
	RunScenario(t, Generate(seed, soak))
}

// RunScenario executes one explicit scenario (Run derives it from the
// seed; tests may tweak a generated one).
func RunScenario(t TB, sc Scenario) {
	logger := newTBLogger(t)
	logger.Info("chaos scenario", "seed", sc.Seed, "n", sc.N, "t", sc.T,
		"profile", profileOf(sc.Seed).name, "plan", sc.String())

	run := &runner{t: t, sc: sc, reg: &registry{sms: make(map[fsr.ProcID]*Recorder)},
		ct:   chaos.New(fsr.MemTransport(mem.NewNetwork(mem.Options{})), sc.Net),
		base: t.TempDir(), durBase: t.TempDir(), log: logger,
		alive:    make(map[fsr.ProcID]*fsr.Node, sc.N),
		evicted:  make(map[fsr.ProcID]bool),
		upgraded: make(map[fsr.ProcID]bool),
		nodeCfg: fsr.Config{
			SegmentSize:       256,
			SnapshotEvery:     32,
			WALSegmentBytes:   4096,
			HeartbeatInterval: 15 * time.Millisecond,
			FailureTimeout:    300 * time.Millisecond,
			ChangeTimeout:     400 * time.Millisecond,
			Logger:            logger,
		}}
	ccfg := fsr.ClusterConfig{N: sc.N, T: sc.T, NodeConfig: run.nodeCfg}.
		WithDurableDir(run.durBase).WithStateMachines(run.reg.factory)
	if sc.Rolling {
		// Every member boots on the previous wire release.
		ccfg.WireVersion = run.wireVersion
	}
	if sc.Disk != nil {
		// One fault-injecting disk for the scenario's hostile member,
		// shared across its incarnations (members number from 0, so cluster index
		// == ProcID). Everyone else runs on the real filesystem.
		run.diskFS = walfault.New(nil, *sc.Disk)
		run.diskFS.Disarm() // boot on a calm disk; armed once the cluster is up
		ccfg.WALFS = func(id fsr.ProcID) wal.FS {
			if id == fsr.ProcID(sc.DiskNode) {
				return run.diskFS
			}
			return nil
		}
	}
	cluster, err := fsr.NewCluster(ccfg, run.ct)
	if err != nil {
		failf(t, sc.Seed, "cluster: %v", err)
		t.FailNow()
	}
	defer cluster.Stop()
	run.cluster = cluster
	for i, id := range cluster.IDs() {
		run.alive[id] = cluster.Node(i)
	}
	run.startEdges()
	defer run.stopEdges()
	if t.Failed() {
		return
	}
	if run.diskFS != nil {
		run.diskFS.Arm() // the cluster is up; let the weather begin
	}
	defer func() {
		// Members admitted mid-run (never booked down) are not owned by
		// the Cluster.
		for id, n := range run.liveNodes() {
			if !slices.Contains(cluster.IDs(), id) {
				n.Stop()
			}
		}
	}()

	var wg sync.WaitGroup
	stopEvents := make(chan struct{})
	wg.Add(1)
	go func() { defer wg.Done(); run.driveEvents(stopEvents) }()

	// Non-member session clients: pipelined publishers and offset-1
	// subscribers riding through the fault plan on session failover.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	collectors := run.startClients(subCtx)
	defer func() {
		for _, c := range collectors {
			c.sess.Close()
			if c.subSess != c.sess {
				c.subSess.Close()
			}
		}
	}()

	var senders sync.WaitGroup
	for sdr := range sc.Senders {
		senders.Add(1)
		go func(sdr int) { defer senders.Done(); run.sender(sdr) }(sdr)
	}
	for _, c := range collectors {
		senders.Add(1)
		go func(c *clientRun) { defer senders.Done(); run.clientPublisher(c) }(c)
	}
	senders.Wait()
	close(stopEvents)
	wg.Wait()

	run.awaitReceipts()
	live := run.quiesce()
	run.recordLive(live)
	if t.Failed() {
		return
	}
	logs := run.reg.logs()
	if len(live) > 0 && len(logs[live[0]]) > 0 {
		log := logs[live[0]] // the live members agree (check, below): any one history will do
		chaosSegments.Add(log[len(log)-1].Seq)
		chaosMessages.Add(uint64(len(log)))
	}
	run.checkSubscribers(logs, collectors)
	subCancel()
	if t.Failed() {
		return
	}
	note := ""
	if run.diskFS != nil {
		note = fmt.Sprintf(" disk faults %v, %d segment files recycled", run.diskFS.Injected(), run.diskRecycled())
	}
	check(t, sc, logs, live, run.sentCopy(), note)
}

type runner struct {
	t       TB
	sc      Scenario
	reg     *registry
	ct      *chaos.Transport
	cluster *fsr.Cluster
	base    string
	durBase string       // ClusterConfig.DurableDir (member WALs live under node-<id>)
	diskFS  *walfault.FS // the hostile member's disk; nil without Scenario.Disk
	nodeCfg fsr.Config
	log     *slog.Logger

	mu       sync.Mutex
	alive    map[fsr.ProcID]*fsr.Node // members booked up (see members.go)
	crashed  []int                    // cluster indexes booked down, longest-down first
	evicted  map[fsr.ProcID]bool      // members reaped after halting on eviction
	upgraded map[fsr.ProcID]bool      // members flipped to wire.CurrentVersion
	nextID   fsr.ProcID
	sent     []sent
	edges    []*edgeRun
	recycled uint64 // segment files the hostile-disk member reused, banked at each crash
}

// sender issues this sender's share of the workload against a home node,
// re-homing (at most once per message) if the home crashes or leaves.
func (r *runner) sender(sdr int) {
	// Per-sender RNG: the workload stream is independent of scheduling.
	rng := rand.New(rand.NewSource(r.sc.Seed ^ int64(0x5eed+sdr)))
	ids := r.cluster.IDs()
	home := ids[sdr%len(ids)]
	for i := range r.sc.Messages {
		payload := r.payload(rng, "c%d/s%d/m%d/", sdr, i)
		node := r.nodeFor(home)
		if node == nil {
			if node, home = r.anyAlive(); node == nil {
				return // nothing left to send through
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rcpt, err := node.Session().Publish(ctx, payload)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			r.stuck("sender %d: broadcast %d wedged >30s (backpressure never released)", sdr, i)
			return
		}
		if err != nil {
			// The home died mid-broadcast (ErrStopped) — legal under chaos;
			// re-home and keep going.
			home = ^fsr.ProcID(0) // sentinel outside the ID space: re-home next loop
			continue
		}
		r.book(rng, sent{origin: node.Self(), hash: hashPayload(payload),
			length: len(payload), receipt: rcpt})
	}
}

// payload renders one workload message: a tag binding (seed, publisher,
// index) plus deterministic filler sized to sometimes span protocol
// segments.
func (r *runner) payload(rng *rand.Rand, tag string, pub, i int) []byte {
	n := 1 + rng.Intn(r.sc.MaxPay)
	p := make([]byte, 0, n+32)
	p = fmt.Appendf(p, tag, r.sc.Seed, pub, i)
	for len(p) < n {
		p = append(p, byte('a'+rng.Intn(26)))
	}
	return p
}

// book records one issued publish for the checker, then paces the
// publisher by up to Scenario.Gap.
func (r *runner) book(rng *rand.Rand, s sent) {
	r.mu.Lock()
	r.sent = append(r.sent, s)
	r.mu.Unlock()
	if r.sc.Gap > 0 {
		time.Sleep(time.Duration(rng.Int63n(int64(r.sc.Gap))))
	}
}

func (r *runner) sentCopy() []sent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sent(nil), r.sent...)
}

func (r *runner) nodeFor(id fsr.ProcID) *fsr.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive[id]
}

func (r *runner) anyAlive() (*fsr.Node, fsr.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, n := range r.alive {
		return n, id
	}
	return nil, 0
}

// await polls pending every 10ms until it reports nothing left to wait
// for (""), or until d runs out: then the last thing pending is reported
// as a stuck wait and await returns false.
func (r *runner) await(d time.Duration, pending func() string) bool {
	deadline := time.Now().Add(d)
	for {
		what := pending()
		if what == "" {
			return true
		}
		if time.Now().After(deadline) {
			r.stuck("%s", what)
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stuck reports a wait that ran out its deadline, with what a hang needs
// to be diagnosed from the log alone: every live member's vitals and
// every goroutine's stack.
func (r *runner) stuck(format string, args ...any) {
	buf := make([]byte, 8<<20)
	buf = buf[:runtime.Stack(buf, true)]
	failf(r.t, r.sc.Seed, "%s; group: %s\ngoroutines:\n%s",
		fmt.Sprintf(format, args...), r.groupState(), buf)
}

// awaitReceipts enforces the liveness half of the receipt contract: every
// issued receipt resolves — uniform delivery or a definite error — inside
// the deadline. A hung receipt is an invariant violation, not a timeout.
func (r *runner) awaitReceipts() {
	sents, next := r.sentCopy(), 0
	resolved := r.await(60*time.Second, func() string {
		for ; next < len(sents); next++ {
			select {
			case <-sents[next].receipt.Delivered():
			default:
				s := sents[next]
				return fmt.Sprintf("receipt %d (origin %d, %d bytes) never resolved", next, s.origin, s.length)
			}
		}
		return ""
	})
	if !resolved {
		r.t.FailNow()
	}
}

// groupState renders every live node's vitals for failure diagnostics.
func (r *runner) groupState() string {
	var state []string
	for id, n := range r.liveNodes() {
		m := n.Metrics()
		state = append(state, fmt.Sprintf("%d{view=%d%v ldr=%v applied=%d catch=%v own=%d relay=%d rcpt=%d err=%v}",
			id, m.View.ID, m.View.Members, m.IsLeader, n.Applied(), m.CatchingUp, m.OwnQueue, m.RelayQueue, m.PendingReceipts, n.Err()))
	}
	sort.Strings(state)
	return strings.Join(state, " ")
}

func (r *runner) liveNodes() map[fsr.ProcID]*fsr.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.alive)
}

// quiesce waits until the group is drained: every member booked up has
// installed a view and reports no pending work, and all of them agree on
// the applied frontier, stably. Members down by then come back first, as
// does one that halts while the group settles (reviveForChecks). A
// restarted member still awaiting readmission (no view installed yet)
// keeps the group unsettled; a halted member that stays down drops out —
// its history stays subject to the prefix checks. Returns the IDs of the
// members live at the end.
func (r *runner) quiesce() []fsr.ProcID {
	var live []fsr.ProcID
	var stableSince time.Time
	var lastFrontier uint64
	quiet := r.await(45*time.Second, func() string {
		r.reviveForChecks()
		live = live[:0]
		frontier, settled := uint64(0), true
		for id, n := range r.liveNodes() {
			if halted(n) {
				continue
			}
			m := n.Metrics()
			if m.View.ID == 0 || m.CatchingUp || m.OwnQueue > 0 || m.RelayQueue > 0 || m.PendingReceipts > 0 {
				settled = false
			}
			a := n.Applied()
			if len(live) == 0 {
				frontier = a
			} else if a != frontier {
				settled = false
				frontier = max(frontier, a)
			}
			live = append(live, id)
		}
		now := time.Now()
		if !settled || frontier != lastFrontier {
			stableSince = time.Time{}
		} else if stableSince.IsZero() {
			stableSince = now
		} else if now.Sub(stableSince) > 250*time.Millisecond {
			return ""
		}
		lastFrontier = frontier
		return "group never quiesced"
	})
	if !quiet {
		r.t.FailNow()
	}
	return live
}

// recordLive folds the scenario's live members into the process-wide
// coverage counters: their multi-segment frames, and the evicted members
// among them that a restart brought back.
func (r *runner) recordLive(live []fsr.ProcID) {
	for _, id := range live {
		r.mu.Lock()
		n, evicted := r.alive[id], r.evicted[id]
		r.mu.Unlock()
		multiSegFrames.Add(n.Metrics().MultiSegFrames)
		if evicted {
			evictedRejoins.Add(1)
		}
	}
}
