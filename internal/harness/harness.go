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
// A failing scenario prints a one-line repro of the form
//
//	FSR_SEED=<seed> go test -race -run 'TestChaos/seed-<seed>' ./internal/harness
//
// and re-running it regenerates the identical scenario plan and injection
// schedule byte-for-byte (the goroutine scheduler still interleaves the
// stack freely — the seed pins every injected fault, not the scheduler).
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsr"
	"fsr/edge"
	"fsr/internal/wal"
	"fsr/internal/wal/walfault"
	"fsr/internal/wire"
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

// MultiSegFramesObserved reports the accumulated count (see above).
func MultiSegFramesObserved() uint64 { return multiSegFrames.Load() }

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

// EventKind enumerates the fault plan's vocabulary.
type EventKind int

const (
	// EvCrashLeader fail-stops the current leader (sequencer).
	EvCrashLeader EventKind = iota
	// EvCrashFollower fail-stops a live non-leader member.
	EvCrashFollower
	// EvRestart restarts the most recently crashed member from its durable
	// directory (crash-restart with catch-up).
	EvRestart
	// EvRotate asks the current leader for a ring rotation (§4.3.1).
	EvRotate
	// EvJoin admits a brand-new durable member mid-run.
	EvJoin
	// EvLeave makes a live non-leader member depart gracefully.
	EvLeave
	// EvSlowNode adds per-frame delay to one member's links; EvHealNode
	// removes it.
	EvSlowNode
	EvHealNode
	// EvStallLink holds one directed link (frames queue, none drop).
	EvStallLink
	// EvCrashEdge fail-stops one edge replica (Node selects which);
	// EvRestartEdge brings it back on its durable store.
	EvCrashEdge
	EvRestartEdge
	// EvCrashDisk power-cuts the scenario's hostile-disk member (Scenario
	// .DiskNode): the process fail-stops (if storage poison has not already
	// fail-stopped it) and its fault-layer disk drops every byte not
	// honestly fsynced — including bytes a lying fsync claimed durable.
	EvCrashDisk
	// EvCutLink one-way blackholes the ring edge ids[Node] -> ids[Node+1]
	// for Dur: frames vanish silently in that direction only, the reverse
	// keeps flowing. The successor's FD must suspect its silent predecessor
	// and the relayed suspicion must drive a view change (the asymmetric-
	// partition trap: only the coordinator acts on suspicions it holds).
	EvCutLink
	// EvFlapLink flaps the same directed edge: down Dur, up Dur/3, twice.
	EvFlapLink
	// EvUpgrade is one step of a rolling upgrade: fail-stop member Node,
	// flip its wire version from the previous release's to the current
	// build's, and restart it from its durable state. The mixed-version
	// ring must keep serving throughout.
	EvUpgrade
)

var kindNames = map[EventKind]string{
	EvCrashLeader: "crash-leader", EvCrashFollower: "crash-follower",
	EvRestart: "restart", EvRotate: "rotate", EvJoin: "join",
	EvLeave: "leave", EvSlowNode: "slow-node", EvHealNode: "heal-node",
	EvStallLink: "stall-link", EvCrashEdge: "crash-edge", EvRestartEdge: "restart-edge",
	EvCrashDisk: "crash-disk", EvCutLink: "cut-link", EvFlapLink: "flap-link",
	EvUpgrade: "upgrade",
}

// Event is one scheduled fault: Kind fires At after the workload starts.
type Event struct {
	At   time.Duration
	Kind EventKind
	// Node selects a target by cluster index where the kind needs one
	// (slow/heal/stall); crash/leave targets are resolved at fire time
	// against the live membership.
	Node int
	// Dur parameterizes slow-node lag and link stalls.
	Dur time.Duration
}

// Scenario is one fully derived chaos run. Everything in it is a pure
// function of Seed, so logging the seed is logging the scenario.
type Scenario struct {
	Seed     int64
	N        int // initial members
	T        int // tolerated concurrent crashes
	Senders  int
	Messages int // per sender
	MaxPay   int // payload size bound (SegmentSize*1.5 exercises reassembly)
	Gap      time.Duration
	// Clients are non-member session clients (Cluster.Dial): each runs a
	// pipelined publisher of ClientMsgs messages and an offset-1
	// subscriber, both surviving member crashes via session failover. The
	// checker then requires publish-exactly-once (every client receipt
	// resolves delivered; no (client, pubID) twice) and
	// subscribe-gap-freedom (each subscriber saw exactly the reference
	// history).
	Clients    int
	ClientMsgs int // per client
	// Edges runs read-only edge replicas tailing the order from the ring.
	// With edges present the clients route through the edge tier instead
	// of the members: subscribers stay pinned to the edges (surviving
	// edge crashes via failover between them), publishers start on an
	// edge and migrate to a writable member through the NOT-WRITABLE
	// redirect.
	Edges int
	// Disk, when non-nil, runs member DiskNode's write-ahead log on a
	// seeded fault-injecting filesystem (internal/wal/walfault): torn
	// writes, honest and lying fsync failures, ENOSPC and read bit-flips,
	// all derived from Seed. Exactly one member per scenario takes storage
	// faults, so the cluster always retains a durable majority. The member
	// is expected to poison its WAL and fail-stop at some point; the
	// harness reaps it like a crash and the EvCrashDisk/EvRestart pair
	// (plus a final revival before quiescence) exercises recovery — a
	// corrupt WAL at restart is wiped for a state-transfer rejoin.
	Disk     *walfault.Options
	DiskNode int
	// Rolling runs a version-skew rolling upgrade: every member boots
	// speaking the previous wire release (wire.PrevVersion) and EvUpgrade
	// events restart them one at a time onto wire.CurrentVersion, so the
	// ring spends most of the scenario mixed-version.
	Rolling bool
	// ReviveAll restarts every member still down — crashed by schedule or
	// fail-stopped after eviction — before final quiescence, so the checker
	// holds the whole original membership to uniformity. The hostile-network
	// profiles set it: an asymmetric cut routinely gets its victim evicted,
	// and an evicted member's documented recovery is restart + state
	// transfer, which these profiles must actually exercise.
	ReviveAll bool
	Net       chaos.Options
	Events    []Event
}

// String renders the plan — two runs of one seed must render identically
// (asserted by TestScenarioDeterminism).
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d n=%d t=%d senders=%d msgs=%d maxpay=%d gap=%v clients=%dx%d edges=%d net{delay=[%v,%v] stallEvery=%d maxStall=%v}",
		s.Seed, s.N, s.T, s.Senders, s.Messages, s.MaxPay, s.Gap,
		s.Clients, s.ClientMsgs, s.Edges,
		s.Net.MinDelay, s.Net.MaxDelay, s.Net.StallEvery, s.Net.MaxStall)
	if s.Net.Geo != nil {
		fmt.Fprintf(&b, " geo=%s", s.Net.Geo.Name)
	}
	if s.Rolling {
		b.WriteString(" rolling")
	}
	if s.Disk != nil {
		fmt.Fprintf(&b, " disk{node=%d torn=%d fsync=%d lie=%d enospc=%d flip=%d}",
			s.DiskNode, s.Disk.TornEvery, s.Disk.FsyncErrEvery, s.Disk.LieEvery,
			s.Disk.ENOSPCEvery, s.Disk.FlipEvery)
	}
	for _, e := range s.Events {
		fmt.Fprintf(&b, " @%v:%s", e.At.Round(time.Millisecond), kindNames[e.Kind])
		switch e.Kind {
		case EvSlowNode, EvHealNode, EvStallLink, EvCrashEdge, EvRestartEdge,
			EvCutLink, EvFlapLink, EvUpgrade:
			fmt.Fprintf(&b, "(%d)", e.Node)
		}
		if e.Dur > 0 {
			fmt.Fprintf(&b, "/%v", e.Dur.Round(time.Millisecond))
		}
	}
	return b.String()
}

// Profile classes guarantee coverage across a seed range: every tenth
// seed crashes the leader, every tenth crash-restarts a follower, every
// tenth churns membership, every tenth drives non-member client
// sessions through a serving-member crash, every tenth crash-restarts an
// edge replica under client traffic routed through the edge tier, every
// tenth runs one durable member on a hostile disk (storage fault
// injection with a power-cut crash-restart), every tenth hits a ring edge
// with a one-way blackhole or a flapping link (asymmetric partition),
// every tenth runs the whole ring on a WAN-shaped geo latency matrix,
// every tenth performs a version-skew rolling upgrade under traffic; the
// rest stress timing only. Extra faults (rotations, slow nodes, stalls)
// sprinkle into all classes.
const profiles = 10

// Generate derives the scenario for a seed. Soak scales the workload up.
func Generate(seed int64, soak bool) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{
		Seed:     seed,
		N:        3 + rng.Intn(3), // 3..5
		T:        1,
		Senders:  2 + rng.Intn(3), // 2..4
		Messages: 12 + rng.Intn(18),
		MaxPay:   384, // SegmentSize is 256 (+13 of envelope on the ring): ~30% of messages are two-part
		Gap:      time.Duration(rng.Intn(4)) * time.Millisecond,
		Net: chaos.Options{
			Seed:       seed,
			MaxDelay:   time.Duration(1+rng.Intn(2)) * time.Millisecond,
			StallEvery: 150,
			MaxStall:   40 * time.Millisecond,
		},
	}
	if s.N >= 5 && rng.Intn(2) == 0 {
		s.T = 2
	}
	if soak {
		s.Messages *= 3
	}

	profile := int(((seed % profiles) + profiles) % profiles)
	base := 150*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond
	switch profile {
	case 1: // leader crash, then crash-restart with catch-up
		s.Events = append(s.Events,
			Event{At: base, Kind: EvCrashLeader},
			Event{At: base + 500*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond, Kind: EvRestart},
		)
	case 2: // follower crash-restart with catch-up
		s.Events = append(s.Events,
			Event{At: base, Kind: EvCrashFollower},
			Event{At: base + 400*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond, Kind: EvRestart},
		)
		if s.T == 2 { // a second overlapping crash stays within tolerance
			s.Events = append(s.Events, Event{At: base + 150*time.Millisecond, Kind: EvCrashFollower},
				Event{At: base + 900*time.Millisecond, Kind: EvRestart})
		}
	case 3: // membership churn: admit a newcomer, lose a veteran
		s.Events = append(s.Events,
			Event{At: base, Kind: EvJoin},
			Event{At: base + 300*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond, Kind: EvLeave},
		)
	case 4: // client sessions across a serving-member crash
		s.Clients = 1 + rng.Intn(2)
		s.ClientMsgs = 10 + rng.Intn(15)
		if soak {
			s.ClientMsgs *= 3
		}
		// Sessions bind to the first member of the rotation — initially
		// the leader — so a leader crash is a serving-member crash: the
		// clients fail over mid-stream and retry their unacked publishes.
		s.Events = append(s.Events,
			Event{At: base, Kind: EvCrashLeader},
			Event{At: base + 500*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond, Kind: EvRestart},
		)
	case 5: // edge-replica crash/restart with clients on the edge tier
		s.Edges = 2
		s.Clients = 1 + rng.Intn(2)
		s.ClientMsgs = 10 + rng.Intn(15)
		if soak {
			s.ClientMsgs *= 3
		}
		// Crash one of the two edges mid-stream: its subscribers resume
		// through the surviving edge, and the crashed one later returns
		// from its durable store and re-tails the order.
		idx := rng.Intn(2)
		s.Events = append(s.Events,
			Event{At: base, Kind: EvCrashEdge, Node: idx},
			Event{At: base + 500*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond, Kind: EvRestartEdge, Node: idx},
		)
	case 6: // hostile-disk: one durable member on a fault-injecting filesystem
		s.Clients = 1 + rng.Intn(2)
		s.ClientMsgs = 10 + rng.Intn(15)
		if soak {
			s.ClientMsgs *= 3
		}
		// Mean fault periods sized against the scenario's WAL op volume (a
		// few hundred appends/flushes, tens of fsyncs): most seeds inject a
		// handful of storage faults, some none, some several — coverage
		// across clean runs, single-fault poisons and compound failures.
		d := walfault.NoOneShots()
		d.Seed = seed
		d.TornEvery = 40 + rng.Intn(80)
		d.FsyncErrEvery = 30 + rng.Intn(60)
		d.LieEvery = 30 + rng.Intn(60)
		d.ENOSPCEvery = 25 + rng.Intn(50)
		d.FlipEvery = 60 + rng.Intn(120)
		s.Disk = &d
		s.DiskNode = rng.Intn(s.N)
		// A deterministic power cut + restart on top of whatever the fault
		// schedule does: the crash reveals lying-fsync losses, the restart
		// exercises torn-tail repair, corrupt-WAL wipe and catch-up.
		s.Events = append(s.Events,
			Event{At: base, Kind: EvCrashDisk},
			Event{At: base + 500*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond, Kind: EvRestart},
		)
	case 7: // asymmetric partition: one-way blackhole or flapping ring edge
		s.Clients = 1 + rng.Intn(2)
		s.ClientMsgs = 10 + rng.Intn(15)
		if soak {
			s.ClientMsgs *= 3
		}
		s.ReviveAll = true
		// Fault one directed ring edge, chosen by seed. The window outlasts
		// FailureTimeout (300ms) so the successor's detector must fire; what
		// follows — relayed suspicion, view change, eviction of a perfectly
		// live member, its restart and state-transfer rejoin — is the
		// scenario under test. Rotation may remap the edge mid-run; it stays
		// a ring edge either way.
		k := rng.Intn(s.N)
		window := 450*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond
		if rng.Intn(2) == 0 {
			s.Events = append(s.Events, Event{At: base, Kind: EvCutLink, Node: k, Dur: window})
		} else {
			// Flap: down long enough to be suspected, up briefly, down again.
			s.Events = append(s.Events, Event{At: base, Kind: EvFlapLink, Node: k,
				Dur: 350*time.Millisecond + time.Duration(rng.Intn(150))*time.Millisecond})
		}
		s.Events = append(s.Events,
			Event{At: base + window + 700*time.Millisecond, Kind: EvRestart})
	case 8: // wan-geo: the whole ring on a per-link geo latency matrix
		s.Clients = 1 + rng.Intn(2)
		s.ClientMsgs = 10 + rng.Intn(15)
		if soak {
			s.ClientMsgs *= 3
		}
		if rng.Intn(2) == 0 {
			s.Net.Geo = &chaos.Metro3
		} else {
			s.Net.Geo = &chaos.Continental3
		}
		// Geo latency is pure timing stress: no scheduled faults beyond the
		// sprinkles, the matrix itself is the adversary (cross-region RTT is
		// close to the heartbeat interval under Continental3).
	case 9: // rolling upgrade: restart every member once, old wire -> new
		s.Rolling = true
		s.ReviveAll = true
		s.Clients = 1 + rng.Intn(2)
		s.ClientMsgs = 12 + rng.Intn(12)
		if soak {
			s.ClientMsgs *= 3
		}
		for i := range s.N {
			s.Events = append(s.Events, Event{
				At:   base + time.Duration(i)*(700*time.Millisecond+time.Duration(rng.Intn(150))*time.Millisecond),
				Kind: EvUpgrade, Node: i,
			})
		}
	}
	// Timing faults for everyone; rotation for half.
	if rng.Intn(2) == 0 {
		s.Events = append(s.Events, Event{At: base / 2, Kind: EvRotate})
	}
	if rng.Intn(2) == 0 {
		idx := rng.Intn(s.N)
		s.Events = append(s.Events,
			Event{At: base / 3, Kind: EvSlowNode, Node: idx, Dur: time.Duration(5+rng.Intn(20)) * time.Millisecond},
			Event{At: base + 300*time.Millisecond, Kind: EvHealNode, Node: idx},
		)
	}
	if rng.Intn(2) == 0 {
		s.Events = append(s.Events, Event{
			At: base * 2 / 3, Kind: EvStallLink,
			Node: rng.Intn(s.N), Dur: time.Duration(20+rng.Intn(60)) * time.Millisecond,
		})
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// --- Recording state machine ---------------------------------------------

// Rec is one applied message as a replica saw it — the unit every checker
// invariant is phrased over. Payloads are kept as a 64-bit FNV-1a hash plus
// length, so a scenario's whole history stays cheap to snapshot and
// transfer.
type Rec struct {
	Seq     uint64     `json:"s"`
	Origin  fsr.ProcID `json:"o"`
	Logical uint64     `json:"l"`
	Hash    uint64     `json:"h"`
	Len     int        `json:"n"`
}

func hashPayload(p []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(p)
	return h.Sum64()
}

// Recorder is the harness's replicated state machine: it records the exact
// applied sequence and carries it inside snapshots, so a replica rebuilt
// via state transfer still exposes its full history to the checker.
type Recorder struct {
	mu  sync.Mutex
	log []Rec
}

func (r *Recorder) Apply(m fsr.Message) {
	rec := Rec{Seq: m.Seq, Origin: m.Origin, Logical: m.LogicalID,
		Hash: hashPayload(m.Payload), Len: len(m.Payload)}
	r.mu.Lock()
	r.log = append(r.log, rec)
	r.mu.Unlock()
}

func (r *Recorder) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Marshal(r.log)
}

func (r *Recorder) Restore(data []byte) error {
	var log []Rec
	if err := json.Unmarshal(data, &log); err != nil {
		return err
	}
	r.mu.Lock()
	r.log = log
	r.mu.Unlock()
	return nil
}

// Log returns a copy of the applied history.
func (r *Recorder) Log() []Rec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Rec(nil), r.log...)
}

// registry tracks the latest Recorder incarnation per member (a restart
// builds a fresh instance that rebuilds its log from snapshot + WAL).
type registry struct {
	mu  sync.Mutex
	sms map[fsr.ProcID]*Recorder
}

func (g *registry) factory(id fsr.ProcID) fsr.StateMachine {
	sm := &Recorder{}
	g.mu.Lock()
	g.sms[id] = sm
	g.mu.Unlock()
	return sm
}

func (g *registry) get(id fsr.ProcID) *Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sms[id]
}

// --- Runner ---------------------------------------------------------------

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
		"profile", ((sc.Seed%profiles)+profiles)%profiles, "plan", sc.String())

	reg := &registry{sms: make(map[fsr.ProcID]*Recorder)}
	ct := chaos.New(fsr.MemTransport(mem.NewNetwork(mem.Options{})), sc.Net)
	nodeCfg := fsr.Config{
		SegmentSize:       256,
		SnapshotEvery:     32,
		WALSegmentBytes:   4096,
		HeartbeatInterval: 15 * time.Millisecond,
		FailureTimeout:    300 * time.Millisecond,
		ChangeTimeout:     400 * time.Millisecond,
		Logger:            logger,
	}
	durBase := t.TempDir()
	ccfg := fsr.ClusterConfig{N: sc.N, T: sc.T, NodeConfig: nodeCfg}.
		WithDurableDir(durBase).WithStateMachines(reg.factory)
	// Rolling upgrade: every member boots on the previous wire release;
	// EvUpgrade flips its entry here before restarting it, and Restart
	// re-consults this callback — the version shim the real deployment
	// flips by installing a new binary.
	var verMu sync.Mutex
	upgraded := make(map[fsr.ProcID]bool)
	if sc.Rolling {
		ccfg.WireVersion = func(id fsr.ProcID) byte {
			verMu.Lock()
			defer verMu.Unlock()
			if upgraded[id] {
				return wire.CurrentVersion
			}
			return wire.PrevVersion
		}
	}
	var diskFS *walfault.FS
	if sc.Disk != nil {
		// One fault-injecting disk for the scenario's hostile member,
		// shared across its incarnations (FirstID is 0, so cluster index
		// == ProcID). Everyone else runs on the real filesystem.
		diskFS = walfault.New(nil, *sc.Disk)
		diskFS.Disarm() // boot on a calm disk; armed once the cluster is up
		ccfg.WALFS = func(id fsr.ProcID) wal.FS {
			if id == fsr.ProcID(sc.DiskNode) {
				return diskFS
			}
			return nil
		}
	}
	cluster, err := fsr.NewCluster(ccfg, ct)
	if err != nil {
		failf(t, sc.Seed, "cluster: %v", err)
		t.FailNow()
	}
	defer cluster.Stop()

	run := &runner{t: t, sc: sc, reg: reg, ct: ct, cluster: cluster,
		base: t.TempDir(), durBase: durBase, diskFS: diskFS,
		nodeCfg: nodeCfg, log: logger,
		markUpgraded: func(id fsr.ProcID) {
			verMu.Lock()
			upgraded[id] = true
			verMu.Unlock()
		}}
	run.alive = make(map[fsr.ProcID]*fsr.Node, sc.N)
	for i, id := range cluster.IDs() {
		run.alive[id] = cluster.Node(i)
	}
	run.startEdges()
	defer run.stopEdges()
	if t.Failed() {
		return
	}
	if diskFS != nil {
		diskFS.Arm() // the cluster is up; let the weather begin
	}
	defer func() {
		// Members admitted mid-run are not owned by the Cluster.
		run.mu.Lock()
		extras := append([]*fsr.Node(nil), run.extras...)
		run.mu.Unlock()
		for _, n := range extras {
			n.Stop()
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
	run.reviveDisk()
	run.reviveDown()
	live := run.quiesce()
	run.recordBatching()
	if t.Failed() {
		return
	}
	logs := run.collectLogs()
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
	check(t, sc, logs, live, run.sentCopy())
}

// clientRun is one session client: its publishing session, identity, and
// the subscriber's collected stream. With edges in the scenario the
// subscriber runs on its own session pinned to the edge tier (subSess);
// otherwise subSess is sess.
type clientRun struct {
	idx     int
	id      fsr.ProcID
	sess    fsr.Session
	subSess fsr.Session

	mu   sync.Mutex
	recs []Rec
	err  error
}

// startClients dials the scenario's session clients and starts their
// offset-1 subscribers. With edges present, both the publisher and the
// subscriber sessions target the edge tier only: the publisher's first
// publish is bounced by NOT-WRITABLE and migrates to a member, the
// subscriber stays on the edges for its whole life, failing over between
// them as they crash and return.
func (r *runner) startClients(subCtx context.Context) []*clientRun {
	collectors := make([]*clientRun, 0, r.sc.Clients)
	opts := fsr.SessionOptions{
		Window:       32,
		AckTimeout:   time.Second,
		ProbeTimeout: 1500 * time.Millisecond,
	}
	for i := range r.sc.Clients {
		var c *clientRun
		if r.sc.Edges > 0 {
			pubID := clientIDBase + fsr.ProcID(2*i)
			pub, err := r.dialVia(pubID, r.edgeServeIDs(), opts)
			if err == nil {
				var sub fsr.Session
				sub, err = r.dialVia(pubID+1, r.edgeServeIDs(), opts)
				if err != nil {
					pub.Close()
				} else {
					c = &clientRun{idx: i, id: pubID, sess: pub, subSess: sub}
				}
			}
			if err != nil {
				failf(r.t, r.sc.Seed, "client %d: dial via edges: %v", i, err)
				r.t.FailNow()
			}
		} else {
			sess, err := r.cluster.Dial(opts)
			if err != nil {
				failf(r.t, r.sc.Seed, "client %d: dial session: %v", i, err)
				r.t.FailNow()
			}
			// Cluster.Dial hands out client IDs in call order from
			// ClientIDBase; these are the first (and only) dials on this
			// cluster.
			c = &clientRun{idx: i, id: fsr.ClientIDBase + fsr.ProcID(i), sess: sess, subSess: sess}
		}
		collectors = append(collectors, c)
		go c.subscribe(subCtx)
	}
	return collectors
}

// dialVia opens one session on a fresh chaos-wrapped endpoint, pinned to
// the given serving processes.
func (r *runner) dialVia(id fsr.ProcID, targets []fsr.ProcID, opts fsr.SessionOptions) (fsr.Session, error) {
	tr, err := r.ct.Join(id)
	if err != nil {
		return nil, err
	}
	if err := r.ct.Open(); err != nil {
		_ = tr.Close()
		return nil, err
	}
	opts.OnClose = func() { _ = tr.Close() }
	return fsr.DialVia(tr, targets, opts)
}

// subscribe streams the whole order from offset 1 into the collector. A
// state snapshot (the stream resumed below a member's truncation point)
// replaces the collected prefix — the Recorder's snapshot IS its history.
func (c *clientRun) subscribe(ctx context.Context) {
	for _, m := range c.subSess.Subscribe(ctx, 1) {
		if m.Snapshot {
			var log []Rec
			if err := json.Unmarshal(m.Payload, &log); err != nil {
				c.mu.Lock()
				c.err = fmt.Errorf("undecodable snapshot at %d: %v", m.Seq, err)
				c.mu.Unlock()
				return
			}
			c.mu.Lock()
			c.recs = log
			c.mu.Unlock()
			continue
		}
		rec := Rec{Seq: m.Seq, Origin: m.Origin, Logical: m.LogicalID,
			Hash: hashPayload(m.Payload), Len: len(m.Payload)}
		c.mu.Lock()
		c.recs = append(c.recs, rec)
		c.mu.Unlock()
	}
}

// clientPublisher issues one client's pipelined publish workload.
func (r *runner) clientPublisher(c *clientRun) {
	rng := rand.New(rand.NewSource(r.sc.Seed ^ int64(0xc11e47+c.idx)))
	for i := range r.sc.ClientMsgs {
		n := 1 + rng.Intn(r.sc.MaxPay)
		payload := make([]byte, 0, n+32)
		payload = fmt.Appendf(payload, "cc%d/c%d/m%d/", r.sc.Seed, c.idx, i)
		for len(payload) < n {
			payload = append(payload, byte('a'+rng.Intn(26)))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rcpt, err := c.sess.Publish(ctx, payload)
		cancel()
		if err != nil {
			// The session retries internally; Publish only fails on
			// timeout (window never opened) or Close — both findings here.
			failf(r.t, r.sc.Seed, "client %d: publish %d failed: %v", c.idx, i, err)
			return
		}
		r.mu.Lock()
		r.sent = append(r.sent, sent{origin: c.id, hash: hashPayload(payload),
			length: len(payload), receipt: rcpt, mustDeliver: true})
		r.mu.Unlock()
		if r.sc.Gap > 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(r.sc.Gap))))
		}
	}
}

// checkSubscribers enforces subscribe-gap-freedom: after quiescence every
// client subscriber catches up to the reference history exactly — no gap,
// duplicate or reorder anywhere in its stream, across every failover it
// performed.
func (r *runner) checkSubscribers(logs map[fsr.ProcID][]Rec, collectors []*clientRun) {
	if len(collectors) == 0 {
		return
	}
	var ref []Rec
	for _, log := range logs {
		if len(log) > len(ref) {
			ref = log
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, c := range collectors {
		for {
			c.mu.Lock()
			recs, err := c.recs, c.err
			c.mu.Unlock()
			if err != nil {
				failf(r.t, r.sc.Seed, "client %d subscriber: %v", c.idx, err)
				return
			}
			if len(recs) >= len(ref) {
				if len(recs) > len(ref) {
					failf(r.t, r.sc.Seed, "client %d subscriber saw %d messages, reference has %d (duplicate delivery)",
						c.idx, len(recs), len(ref))
					return
				}
				for i := range ref {
					if recs[i] != ref[i] {
						failf(r.t, r.sc.Seed, "client %d subscriber diverges at %d: got %+v want %+v (gap or reorder)",
							c.idx, i, recs[i], ref[i])
						return
					}
				}
				break
			}
			if time.Now().After(deadline) {
				failf(r.t, r.sc.Seed, "client %d subscriber stuck at %d/%d messages; session err=%v; group: %s",
					c.idx, len(recs), len(ref), c.subSess.Err(), r.groupState())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// recordBatching folds every live node's multi-segment frame count into
// the process-wide counter (halted nodes report zero metrics).
func (r *runner) recordBatching() {
	r.mu.Lock()
	nodes := make([]*fsr.Node, 0, len(r.alive))
	for _, n := range r.alive {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	for _, n := range nodes {
		multiSegFrames.Add(n.Metrics().MultiSegFrames)
	}
}

type runner struct {
	t       TB
	sc      Scenario
	reg     *registry
	ct      *chaos.Transport
	cluster *fsr.Cluster
	base    string
	durBase string       // ClusterConfig.DurableDir (member WALs live under node-<id>)
	diskFS  *walfault.FS // the hostile member's disk; nil outside profile 6
	nodeCfg fsr.Config
	log     *slog.Logger
	// markUpgraded records a member as running the current wire version;
	// the cluster's WireVersion callback (consulted on Restart) reads the
	// same map. Only meaningful under Scenario.Rolling.
	markUpgraded func(fsr.ProcID)

	mu      sync.Mutex
	alive   map[fsr.ProcID]*fsr.Node // nodes believed running (crashed/left removed)
	extras  []*fsr.Node              // members admitted mid-run (EvJoin)
	crashed []int                    // cluster indexes crashed and not yet restarted
	nextID  fsr.ProcID
	sent    []sent
	edges   []*edgeRun
}

// edgeRun is one edge replica's slot: its fixed transport identities, its
// durable store directory, and the running instance (nil while crashed).
type edgeRun struct {
	serveID fsr.ProcID // the ID subscribers dial
	upID    fsr.ProcID // the ID of its upstream client session
	dir     string
	e       *edge.Edge // guarded by runner.mu
}

// startEdges launches the scenario's edge replicas (before any client
// dials them).
func (r *runner) startEdges() {
	for j := range r.sc.Edges {
		er := &edgeRun{
			serveID: edgeIDBase + fsr.ProcID(2*j),
			upID:    edgeIDBase + fsr.ProcID(2*j+1),
			dir:     fmt.Sprintf("%s/edge-%d", r.base, j),
		}
		if err := r.launchEdge(er); err != nil {
			failf(r.t, r.sc.Seed, "edge %d: %v", j, err)
			return
		}
		r.edges = append(r.edges, er)
	}
}

// launchEdge (re)starts one edge replica on its slot: fresh chaos-wrapped
// endpoints under the slot's fixed IDs, the durable store replayed from
// its directory.
func (r *runner) launchEdge(er *edgeRun) error {
	serveTr, err := r.ct.Join(er.serveID)
	if err != nil {
		return err
	}
	upTr, err := r.ct.Join(er.upID)
	if err != nil {
		_ = serveTr.Close()
		return err
	}
	if err := r.ct.Open(); err != nil {
		_ = serveTr.Close()
		_ = upTr.Close()
		return err
	}
	up, err := fsr.DialVia(upTr, r.cluster.IDs(), fsr.SessionOptions{
		Edge:         true,
		AckTimeout:   time.Second,
		ProbeTimeout: 1500 * time.Millisecond,
		OnClose:      func() { _ = upTr.Close() },
	})
	if err != nil {
		_ = serveTr.Close()
		_ = upTr.Close()
		return err
	}
	e, err := edge.NewCore(edge.CoreConfig{
		Transport:  serveTr,
		Upstream:   up,
		Members:    r.cluster.IDs(),
		DurableDir: er.dir,
		Logger:     r.log,
	})
	if err != nil {
		_ = up.Close()
		_ = serveTr.Close()
		return err
	}
	r.mu.Lock()
	er.e = e
	r.mu.Unlock()
	return nil
}

// crashEdge fail-stops one edge replica: both its endpoints drop off the
// transport (clients and the upstream member observe silence), then the
// instance is reaped.
func (r *runner) crashEdge(idx int) {
	r.mu.Lock()
	if idx >= len(r.edges) {
		r.mu.Unlock()
		return
	}
	er := r.edges[idx]
	e := er.e
	er.e = nil
	r.mu.Unlock()
	if e == nil {
		return
	}
	r.ct.Crash(er.serveID)
	r.ct.Crash(er.upID)
	e.Stop()
}

// restartEdge brings a crashed edge back on its durable store.
func (r *runner) restartEdge(idx int) {
	r.mu.Lock()
	if idx >= len(r.edges) || r.edges[idx].e != nil {
		r.mu.Unlock()
		return
	}
	er := r.edges[idx]
	r.mu.Unlock()
	if err := r.launchEdge(er); err != nil {
		failf(r.t, r.sc.Seed, "edge %d restart: %v", idx, err)
	}
}

// stopEdges reaps every edge still running at scenario end.
func (r *runner) stopEdges() {
	r.mu.Lock()
	edges := append([]*edgeRun(nil), r.edges...)
	r.mu.Unlock()
	for _, er := range edges {
		r.mu.Lock()
		e := er.e
		er.e = nil
		r.mu.Unlock()
		if e != nil {
			e.Stop()
		}
	}
}

// edgeServeIDs returns the serving IDs clients rotate across.
func (r *runner) edgeServeIDs() []fsr.ProcID {
	ids := make([]fsr.ProcID, 0, len(r.edges))
	for _, er := range r.edges {
		ids = append(ids, er.serveID)
	}
	return ids
}

// sender issues this sender's share of the workload against a home node,
// re-homing (at most once per message) if the home crashes or leaves.
func (r *runner) sender(sdr int) {
	// Per-sender RNG: the workload stream is independent of scheduling.
	rng := rand.New(rand.NewSource(r.sc.Seed ^ int64(0x5eed+sdr)))
	ids := r.cluster.IDs()
	home := ids[sdr%len(ids)]
	for i := range r.sc.Messages {
		payload := r.payload(rng, sdr, i)
		node := r.nodeFor(home)
		if node == nil {
			if node, home = r.anyAlive(); node == nil {
				return // nothing left to send through
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rcpt, err := node.Session().Publish(ctx, payload)
		cancel()
		if err != nil {
			// The home died mid-broadcast (ErrStopped) — legal under chaos;
			// re-home and keep going. Context timeouts are findings.
			if err == context.DeadlineExceeded {
				failf(r.t, r.sc.Seed, "sender %d: broadcast %d wedged >30s (backpressure never released)", sdr, i)
				return
			}
			home = ^fsr.ProcID(0) // sentinel outside the ID space: re-home next loop
			continue
		}
		r.mu.Lock()
		r.sent = append(r.sent, sent{origin: node.Self(), hash: hashPayload(payload),
			length: len(payload), receipt: rcpt})
		r.mu.Unlock()
		if r.sc.Gap > 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(r.sc.Gap))))
		}
	}
}

// payload renders one workload message: a tag binding (seed, sender, index)
// plus deterministic filler sized to sometimes span protocol segments.
func (r *runner) payload(rng *rand.Rand, sdr, i int) []byte {
	n := 1 + rng.Intn(r.sc.MaxPay)
	p := make([]byte, 0, n+32)
	p = fmt.Appendf(p, "c%d/s%d/m%d/", r.sc.Seed, sdr, i)
	for len(p) < n {
		p = append(p, byte('a'+rng.Intn(26)))
	}
	return p
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

// driveEvents fires the scenario's fault plan on schedule.
func (r *runner) driveEvents(stop <-chan struct{}) {
	start := time.Now()
	for _, ev := range r.sc.Events {
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-stop:
				// Workload already over: fire the remaining plan immediately
				// (restarts especially must still happen so the checker sees
				// the catch-up) .
				timer.Stop()
			}
		}
		r.fire(ev)
	}
}

// fire applies one fault against the current cluster state. Events whose
// target no longer exists degrade to no-ops — the plan is generated before
// the run, the membership evolves during it.
func (r *runner) fire(ev Event) {
	switch ev.Kind {
	case EvCrashLeader, EvCrashFollower:
		r.crash(ev.Kind == EvCrashLeader)
	case EvRestart:
		r.restart()
	case EvRotate:
		if n := r.leader(); n != nil {
			n.RotateLeader()
		}
	case EvJoin:
		r.join()
	case EvLeave:
		r.leave()
	case EvSlowNode:
		r.ct.SlowNode(r.cluster.IDs()[ev.Node], ev.Dur)
	case EvHealNode:
		r.ct.SlowNode(r.cluster.IDs()[ev.Node], 0)
	case EvStallLink:
		ids := r.cluster.IDs()
		from := ids[ev.Node]
		to := ids[(ev.Node+1)%len(ids)]
		r.ct.StallLink(from, to, ev.Dur)
	case EvCrashEdge:
		r.crashEdge(ev.Node)
	case EvRestartEdge:
		r.restartEdge(ev.Node)
	case EvCrashDisk:
		r.crashDisk()
	case EvCutLink:
		ids := r.cluster.IDs()
		r.ct.CutLink(ids[ev.Node], ids[(ev.Node+1)%len(ids)], ev.Dur)
	case EvFlapLink:
		ids := r.cluster.IDs()
		r.ct.FlapLink(ids[ev.Node], ids[(ev.Node+1)%len(ids)], ev.Dur, ev.Dur/3, 2)
	case EvUpgrade:
		r.upgradeMember(ev.Node)
	}
}

// reapHalted books any member that fail-stopped on its own — typically
// evicted after an (asymmetric-partition-induced) false suspicion — as a
// crash, so restart/reviveDown can bring it back. The hostile-disk member
// is left to reapPoisoned, which additionally asserts the fail-stop
// contract on poisoning.
func (r *runner) reapHalted() {
	ids := r.cluster.IDs()
	type down struct {
		id  fsr.ProcID
		idx int
		err error
	}
	var reap []down
	r.mu.Lock()
	for id, n := range r.alive {
		if r.diskFS != nil && id == fsr.ProcID(r.sc.DiskNode) {
			continue
		}
		if n.Err() == nil {
			continue
		}
		idx := slices.Index(ids, id)
		if idx < 0 {
			continue // mid-run joiner; not restartable through the Cluster
		}
		reap = append(reap, down{id, idx, n.Err()})
	}
	for _, d := range reap {
		delete(r.alive, d.id)
		if !slices.Contains(r.crashed, d.idx) {
			r.crashed = append(r.crashed, d.idx)
		}
	}
	r.mu.Unlock()
	for _, d := range reap {
		r.log.Info("chaos: reaping halted member", "node", uint32(d.id), "err", d.err)
		// The process already halted itself; Crash severs its transport
		// endpoint so peers observe clean silence.
		r.cluster.Crash(d.idx)
	}
}

// reviveDown restarts every member still down before final quiescence —
// see Scenario.ReviveAll.
func (r *runner) reviveDown() {
	if !r.sc.ReviveAll {
		return
	}
	r.reapHalted()
	for {
		r.mu.Lock()
		if len(r.crashed) == 0 {
			r.mu.Unlock()
			return
		}
		idx := r.crashed[0]
		r.crashed = r.crashed[1:]
		r.mu.Unlock()
		r.restartMember(idx)
	}
}

// upgradeMember is one EvUpgrade step: fail-stop the member, flip its wire
// version to the current build's, restart it from its durable state. If an
// earlier fault already took the member down it is simply restarted
// upgraded.
func (r *runner) upgradeMember(idx int) {
	r.reapHalted()
	ids := r.cluster.IDs()
	if idx >= len(ids) {
		return
	}
	id := ids[idx]
	r.mu.Lock()
	_, isAlive := r.alive[id]
	if isAlive {
		delete(r.alive, id)
	} else {
		pos := slices.Index(r.crashed, idx)
		if pos < 0 {
			r.mu.Unlock()
			return // departed membership; nothing to upgrade
		}
		r.crashed = slices.Delete(r.crashed, pos, pos+1)
	}
	r.mu.Unlock()
	if isAlive {
		r.cluster.Crash(idx)
	}
	if r.markUpgraded != nil {
		r.markUpgraded(id)
	}
	r.log.Info("rolling upgrade: restarting member on current wire version",
		"node", uint32(id))
	// A beat of downtime, as a real binary swap has; the rest of the ring
	// keeps serving around the hole.
	time.Sleep(250 * time.Millisecond)
	r.restartMember(idx)
	// One at a time means one at a time: wait for the member to be
	// readmitted and serving before the plan may take down the next one.
	// Crashing member k+1 while member k is still an unadmitted joiner
	// shrinks the installed group below recovery, and a full rolling pass
	// done that way strands the whole ring as singleton joiners with no
	// group left to admit them.
	r.mu.Lock()
	n := r.alive[id]
	r.mu.Unlock()
	if n == nil {
		return // restart failed; restartMember already reported
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if n.Ready() == nil {
			if v := n.CurrentView(); len(v.Members) > 1 {
				return
			}
		}
		if time.Now().After(deadline) {
			failf(r.t, r.sc.Seed, "upgraded member %d never rejoined; group: %s",
				idx, r.groupState())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reapPoisoned notices a hostile-disk member that fail-stopped on its own
// (WAL poisoned by a storage fault, or evicted while degraded) and books it
// as a crash so EvRestart/reviveDisk can bring it back. It also enforces
// the fail-stop contract: a poisoned member must report not-ready and must
// never keep serving.
func (r *runner) reapPoisoned() {
	if r.diskFS == nil {
		return
	}
	id := fsr.ProcID(r.sc.DiskNode)
	r.mu.Lock()
	n, isAlive := r.alive[id]
	r.mu.Unlock()
	if !isAlive || n.Err() == nil {
		return
	}
	if errors.Is(n.Err(), wal.ErrPoisoned) {
		if n.Ready() == nil {
			failf(r.t, r.sc.Seed, "poisoned member %d still reports ready", id)
		}
		r.log.Info("hostile disk: reaping poisoned member", "node", uint32(id), "err", n.Err())
	} else {
		r.log.Info("hostile disk: reaping halted member", "node", uint32(id), "err", n.Err())
	}
	r.mu.Lock()
	delete(r.alive, id)
	if !slices.Contains(r.crashed, r.sc.DiskNode) {
		r.crashed = append(r.crashed, r.sc.DiskNode)
	}
	r.mu.Unlock()
	// The process already halted itself; Crash additionally severs its
	// transport endpoint so peers observe clean silence.
	r.cluster.Crash(r.sc.DiskNode)
}

// crashDisk is the scheduled power cut of the hostile-disk member: the
// process fail-stops (unless storage poison already took it down) and the
// fault-layer disk drops every byte not honestly fsynced — the moment a
// lying fsync's durability claim is put to the test.
func (r *runner) crashDisk() {
	if r.diskFS == nil {
		return
	}
	r.reapPoisoned()
	id := fsr.ProcID(r.sc.DiskNode)
	r.mu.Lock()
	_, isAlive := r.alive[id]
	if isAlive {
		if len(r.crashed) >= r.sc.T {
			r.mu.Unlock()
			return // budget exhausted; leave the member running, disk intact
		}
		delete(r.alive, id)
		r.crashed = append(r.crashed, r.sc.DiskNode)
	}
	r.mu.Unlock()
	if isAlive {
		r.cluster.Crash(r.sc.DiskNode)
	}
	if err := r.diskFS.Crash(); err != nil {
		r.log.Info("hostile disk: power-cut truncation", "err", err)
	}
}

// reviveDisk runs after the workload: if the hostile-disk member is down —
// by schedule or by poison — bring it back for the final quiescence so the
// checker can hold it to prefix agreement and uniformity. Its disk takes a
// final power cut first, so recovery starts from what was honestly
// durable.
func (r *runner) reviveDisk() {
	if r.diskFS == nil {
		return
	}
	r.reapPoisoned()
	r.mu.Lock()
	pos := slices.Index(r.crashed, r.sc.DiskNode)
	if pos >= 0 {
		r.crashed = slices.Delete(r.crashed, pos, pos+1)
	}
	r.mu.Unlock()
	if pos < 0 {
		return
	}
	// Final power cut, then calm weather: recovery is judged on what the
	// faults left behind, not hampered by fresh ones.
	_ = r.diskFS.Crash()
	r.diskFS.Disarm()
	r.restartMember(r.sc.DiskNode)
}

// leader returns the live node currently coordinating the group.
func (r *runner) leader() *fsr.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.alive {
		v := n.CurrentView()
		if len(v.Members) > 0 {
			if ldr, ok := r.alive[v.Members[0]]; ok {
				return ldr
			}
		}
	}
	return nil
}

// crash fail-stops the leader or a follower, respecting the concurrent
// crash budget T.
func (r *runner) crash(leader bool) {
	target := -1
	ldr := r.leader()
	r.mu.Lock()
	if len(r.crashed) >= r.sc.T {
		r.mu.Unlock()
		return // budget exhausted; plan generation should prevent this
	}
	ids := r.cluster.IDs()
	for i, id := range ids {
		n, ok := r.alive[id]
		if !ok {
			continue
		}
		isLdr := ldr != nil && n == ldr
		if leader == isLdr {
			target = i
			break
		}
	}
	if target < 0 {
		r.mu.Unlock()
		return
	}
	delete(r.alive, ids[target])
	r.crashed = append(r.crashed, target)
	r.mu.Unlock()
	r.cluster.Crash(target)
}

// restart brings the oldest crashed member back from its durable dir.
func (r *runner) restart() {
	r.reapHalted()
	r.mu.Lock()
	if len(r.crashed) == 0 {
		r.mu.Unlock()
		return
	}
	idx := r.crashed[0]
	r.crashed = r.crashed[1:]
	r.mu.Unlock()
	r.restartMember(idx)
}

// restartMember brings one crashed member back from its durable dir. For
// the hostile-disk member the recovery contract is looser: injected open
// faults may abort a few attempts (retried), and a corrupt log means the
// member must NOT serve from it — it wipes local state and re-joins via
// state transfer instead. Any other member failing to restart is a bug.
func (r *runner) restartMember(idx int) {
	hostile := r.diskFS != nil && idx == r.sc.DiskNode
	for attempt := 0; ; attempt++ {
		node, err := r.cluster.Restart(idx)
		if err == nil {
			r.mu.Lock()
			r.alive[node.Self()] = node
			r.mu.Unlock()
			return
		}
		if !hostile || attempt >= 4 {
			failf(r.t, r.sc.Seed, "restart of member %d: %v", idx, err)
			return
		}
		if errors.Is(err, wal.ErrCorrupt) {
			r.log.Info("hostile disk: corrupt log on restart, wiping for state transfer",
				"node", idx, "err", err)
			r.wipeDisk(idx)
			continue
		}
		r.log.Info("hostile disk: restart attempt failed, retrying",
			"node", idx, "attempt", attempt, "err", err)
	}
}

// wipeDisk discards the hostile-disk member's log and snapshots (keeping
// the gen incarnation file, so the member still re-joins as a fresh
// incarnation of itself). Removal goes through the fault layer so its
// per-file tracking stays consistent with the directory contents.
func (r *runner) wipeDisk(idx int) {
	dir := filepath.Join(r.durBase, fmt.Sprintf("node-%d", r.cluster.IDs()[idx]))
	names, err := r.diskFS.ReadDir(dir)
	if err != nil {
		failf(r.t, r.sc.Seed, "wiping hostile disk %d: %v", idx, err)
		return
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".snap") {
			if err := r.diskFS.Remove(filepath.Join(dir, name)); err != nil {
				failf(r.t, r.sc.Seed, "wiping hostile disk %d: %v", idx, err)
			}
		}
	}
}

// join admits a brand-new durable member mid-run.
func (r *runner) join() {
	r.mu.Lock()
	if r.nextID == 0 {
		r.nextID = r.cluster.IDs()[len(r.cluster.IDs())-1] + 1
	}
	id := r.nextID
	r.nextID++
	var contacts []fsr.ProcID
	for cid := range r.alive {
		contacts = append(contacts, cid)
	}
	r.mu.Unlock()
	if len(contacts) == 0 {
		return
	}
	ep, err := r.ct.Join(id)
	if err != nil {
		failf(r.t, r.sc.Seed, "join transport endpoint for %d: %v", id, err)
		return
	}
	cfg := r.nodeCfg
	cfg.Self = id
	cfg.Joiner = true
	cfg.Members = contacts
	cfg = cfg.WithDurableDir(fmt.Sprintf("%s/node-%d", r.base, id)).
		WithStateMachine(r.reg.factory(id))
	node, err := fsr.NewNode(cfg, ep)
	if err != nil {
		failf(r.t, r.sc.Seed, "join node %d: %v", id, err)
		return
	}
	node.Join(contacts)
	r.mu.Lock()
	r.alive[id] = node
	r.extras = append(r.extras, node)
	r.mu.Unlock()
}

// leave departs a live non-leader veteran gracefully.
func (r *runner) leave() {
	ldr := r.leader()
	r.mu.Lock()
	var node *fsr.Node
	for _, id := range r.cluster.IDs() {
		if n, ok := r.alive[id]; ok && n != ldr {
			node = n
			break
		}
	}
	if node == nil || len(r.alive) <= 2 {
		r.mu.Unlock()
		return // keep a workable group
	}
	delete(r.alive, node.Self())
	r.mu.Unlock()
	node.Leave()
}

func (r *runner) sentCopy() []sent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sent(nil), r.sent...)
}

// awaitReceipts enforces the liveness half of the receipt contract: every
// issued receipt resolves — uniform delivery or a definite error — inside
// the deadline. A hung receipt is an invariant violation, not a timeout.
func (r *runner) awaitReceipts() {
	deadline := time.Now().Add(60 * time.Second)
	for i, s := range r.sentCopy() {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		err := s.receipt.Wait(ctx)
		cancel()
		if err == context.DeadlineExceeded {
			failf(r.t, r.sc.Seed, "receipt %d (origin %d, %d bytes) never resolved; group: %s",
				i, s.origin, s.length, r.groupState())
			r.t.FailNow()
		}
	}
}

// groupState renders every live node's vitals for failure diagnostics.
func (r *runner) groupState() string {
	r.mu.Lock()
	nodes := make(map[fsr.ProcID]*fsr.Node, len(r.alive))
	for id, n := range r.alive {
		nodes[id] = n
	}
	r.mu.Unlock()
	var state []string
	for id, n := range nodes {
		m := n.Metrics()
		state = append(state, fmt.Sprintf("%d{view=%d%v ldr=%v applied=%d catch=%v own=%d relay=%d rcpt=%d err=%v}",
			id, m.View.ID, m.View.Members, m.IsLeader, n.Applied(), m.CatchingUp, m.OwnQueue, m.RelayQueue, m.PendingReceipts, n.Err()))
	}
	sort.Strings(state)
	return strings.Join(state, " ")
}

// quiesce waits until the group is drained: every live node reports no
// pending work and all live nodes agree on the applied frontier, stably.
// Returns the IDs of the members live at the end.
func (r *runner) quiesce() []fsr.ProcID {
	r.mu.Lock()
	nodes := make(map[fsr.ProcID]*fsr.Node, len(r.alive))
	for id, n := range r.alive {
		nodes[id] = n
	}
	r.mu.Unlock()

	deadline := time.Now().Add(45 * time.Second)
	stableSince := time.Time{}
	var lastFrontier uint64
	for {
		frontier, settled := uint64(0), true
		first := true
		for id, n := range nodes {
			m := n.Metrics()
			if m.View.ID == 0 {
				// The node halted (a halted node reports zero metrics) —
				// e.g. it was evicted after a false suspicion under heavy
				// load and fail-stopped, which is the documented outcome.
				// It is no longer a live member; its history stays subject
				// to the prefix checks via collectLogs.
				delete(nodes, id)
				continue
			}
			if m.CatchingUp || m.OwnQueue > 0 || m.RelayQueue > 0 || m.PendingReceipts > 0 {
				settled = false
			}
			a := n.Applied()
			if first {
				frontier, first = a, false
			} else if a != frontier {
				settled = false
				frontier = max(frontier, a)
			}
		}
		now := time.Now()
		if settled && frontier == lastFrontier {
			if stableSince.IsZero() {
				stableSince = now
			} else if now.Sub(stableSince) > 250*time.Millisecond {
				ids := make([]fsr.ProcID, 0, len(nodes))
				for id := range nodes {
					ids = append(ids, id)
				}
				return ids
			}
		} else {
			stableSince = time.Time{}
		}
		lastFrontier = frontier
		if now.After(deadline) {
			failf(r.t, r.sc.Seed, "group never quiesced: %s", r.groupState())
			r.t.FailNow()
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// collectLogs snapshots every member's applied history (latest incarnation
// per member, including crashed and departed ones — their prefixes are
// checked too).
func (r *runner) collectLogs() map[fsr.ProcID][]Rec {
	r.reg.mu.Lock()
	ids := make([]fsr.ProcID, 0, len(r.reg.sms))
	for id := range r.reg.sms {
		ids = append(ids, id)
	}
	r.reg.mu.Unlock()
	logs := make(map[fsr.ProcID][]Rec, len(ids))
	for _, id := range ids {
		logs[id] = r.reg.get(id).Log()
	}
	return logs
}
