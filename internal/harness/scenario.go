package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"fsr/internal/wal/walfault"
	"fsr/transport/chaos"
)

// EventKind enumerates the fault plan's vocabulary; kinds holds each one's
// name, whether it targets a node, and what firing it does.
type EventKind int

const (
	// EvCrashLeader fail-stops the current leader (sequencer).
	EvCrashLeader EventKind = iota
	// EvCrashFollower fail-stops a live non-leader member.
	EvCrashFollower
	// EvRestart restarts the member down longest from its durable
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
	// .DiskNode): the process fail-stops (if it has not already halted)
	// and its fault-layer disk drops every byte not honestly fsynced —
	// including bytes a lying fsync claimed durable.
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

// kind is one entry of the fault vocabulary. targeted kinds read
// Event.Node as a cluster index (and render it in the plan); the others
// resolve their target at fire time against the live membership.
type kind struct {
	name     string
	targeted bool
	fire     func(r *runner, ev Event)
}

var kinds = [...]kind{
	EvCrashLeader:   {"crash-leader", false, func(r *runner, _ Event) { r.crash(true) }},
	EvCrashFollower: {"crash-follower", false, func(r *runner, _ Event) { r.crash(false) }},
	EvRestart:       {"restart", false, func(r *runner, _ Event) { r.revive(r.longestDown()) }},
	EvRotate: {"rotate", false, func(r *runner, _ Event) {
		if n := r.leader(); n != nil {
			n.RotateLeader()
		}
	}},
	EvJoin:     {"join", false, func(r *runner, _ Event) { r.join() }},
	EvLeave:    {"leave", false, func(r *runner, _ Event) { r.leave() }},
	EvSlowNode: {"slow-node", true, func(r *runner, ev Event) { r.ct.SlowNode(r.cluster.IDs()[ev.Node], ev.Dur) }},
	EvHealNode: {"heal-node", true, func(r *runner, ev Event) { r.ct.SlowNode(r.cluster.IDs()[ev.Node], 0) }},
	EvStallLink: {"stall-link", true, func(r *runner, ev Event) {
		from, to := r.ringEdge(ev.Node)
		r.ct.StallLink(from, to, ev.Dur)
	}},
	EvCrashEdge:   {"crash-edge", true, func(r *runner, ev Event) { r.crashEdge(ev.Node) }},
	EvRestartEdge: {"restart-edge", true, func(r *runner, ev Event) { r.restartEdge(ev.Node) }},
	EvCrashDisk:   {"crash-disk", false, func(r *runner, _ Event) { r.crashDisk() }},
	EvCutLink: {"cut-link", true, func(r *runner, ev Event) {
		from, to := r.ringEdge(ev.Node)
		r.ct.CutLink(from, to, ev.Dur)
	}},
	EvFlapLink: {"flap-link", true, func(r *runner, ev Event) {
		from, to := r.ringEdge(ev.Node)
		r.ct.FlapLink(from, to, ev.Dur, ev.Dur/3, 2)
	}},
	EvUpgrade: {"upgrade", true, func(r *runner, ev Event) { r.upgradeMember(ev.Node) }},
}

// Event is one scheduled fault: Kind fires At after the workload starts.
type Event struct {
	At   time.Duration
	Kind EventKind
	// Node is the target's cluster index for targeted kinds.
	Node int
	// Dur parameterizes slow-node lag, link stalls and link cuts.
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
	// harness reaps it like any halted member and the EvCrashDisk/EvRestart
	// pair (plus a final revival before quiescence) exercises recovery — a
	// corrupt WAL at restart is wiped for a state-transfer rejoin.
	Disk     *walfault.Options
	DiskNode int
	// Rolling runs a version-skew rolling upgrade: every member boots
	// speaking the previous wire release (wire.PrevVersion) and EvUpgrade
	// events restart them one at a time onto wire.CurrentVersion, so the
	// ring spends most of the scenario mixed-version.
	Rolling bool
	// ReviveAll restarts every member still down before final quiescence —
	// crashed by schedule, fail-stopped on a fault, or halted by eviction —
	// so the checker holds the whole original membership to uniformity. The
	// hostile-network profiles set it: an asymmetric cut routinely gets its
	// victim evicted, and an evicted member's documented recovery is
	// restart + state transfer, which these profiles must actually
	// exercise. A revived member still awaiting readmission keeps the group
	// from quiescing, so it cannot slip out of the checks.
	ReviveAll bool
	Net       chaos.Options
	Events    []Event
}

// String renders the plan — two runs of one seed must render identically
// (TestScenarioDeterminism holds it to testdata/plans.golden).
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
		fmt.Fprintf(&b, " @%v:%s", e.At.Round(time.Millisecond), kinds[e.Kind].name)
		if kinds[e.Kind].targeted {
			fmt.Fprintf(&b, "(%d)", e.Node)
		}
		if e.Dur > 0 {
			fmt.Fprintf(&b, "/%v", e.Dur.Round(time.Millisecond))
		}
	}
	return b.String()
}

// profile is one coverage class. plan adds the class's workload and faults
// to a scenario whose shape is drawn already; base is when its first fault
// fires. Every draw comes from rng, in a fixed order: reordering two draws
// changes every seed's plan (TestScenarioDeterminism).
type profile struct {
	name string
	plan func(s *Scenario, rng *rand.Rand, base time.Duration, soak bool)
}

// profiles are the coverage classes: seed s runs profiles[s mod 10], so
// any ten consecutive seeds cover every class. Extra faults (rotations,
// slow nodes, stalls) sprinkle into all classes.
var profiles = [...]profile{
	{"timing-only", func(*Scenario, *rand.Rand, time.Duration, bool) {}},
	{"leader-crash+restart", func(s *Scenario, rng *rand.Rand, base time.Duration, _ bool) {
		s.crashRestart(rng, base, 500*time.Millisecond, EvCrashLeader, EvRestart, 0)
	}},
	{"follower-crash+restart", func(s *Scenario, rng *rand.Rand, base time.Duration, _ bool) {
		s.crashRestart(rng, base, 400*time.Millisecond, EvCrashFollower, EvRestart, 0)
		if s.T == 2 { // a second overlapping crash stays within tolerance
			s.Events = append(s.Events, Event{At: base + 150*time.Millisecond, Kind: EvCrashFollower},
				Event{At: base + 900*time.Millisecond, Kind: EvRestart})
		}
	}},
	{"membership-churn", func(s *Scenario, rng *rand.Rand, base time.Duration, _ bool) {
		// Admit a newcomer, lose a veteran.
		s.Events = append(s.Events,
			Event{At: base, Kind: EvJoin},
			Event{At: base + 300*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond, Kind: EvLeave},
		)
	}},
	{"client-sessions", func(s *Scenario, rng *rand.Rand, base time.Duration, soak bool) {
		s.addClients(rng, soak, 10, 15)
		// Sessions bind to the first member of the rotation — initially
		// the leader — so a leader crash is a serving-member crash: the
		// clients fail over mid-stream and retry their unacked publishes.
		s.crashRestart(rng, base, 500*time.Millisecond, EvCrashLeader, EvRestart, 0)
	}},
	{"edge-replicas", func(s *Scenario, rng *rand.Rand, base time.Duration, soak bool) {
		s.Edges = 2
		s.addClients(rng, soak, 10, 15)
		// Crash one of the two edges mid-stream: its subscribers resume
		// through the surviving edge, and the crashed one later returns
		// from its durable store and re-tails the order.
		s.crashRestart(rng, base, 500*time.Millisecond, EvCrashEdge, EvRestartEdge, rng.Intn(2))
	}},
	{"hostile-disk", func(s *Scenario, rng *rand.Rand, base time.Duration, soak bool) {
		s.addClients(rng, soak, 10, 15)
		// Mean fault periods sized against the scenario's WAL op volume (a
		// few hundred appends/flushes, tens of fsyncs): most seeds inject a
		// handful of storage faults, some none, some several — coverage
		// across clean runs, single-fault poisons and compound failures.
		d := walfault.NoOneShots()
		d.Seed = s.Seed
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
		s.crashRestart(rng, base, 500*time.Millisecond, EvCrashDisk, EvRestart, 0)
	}},
	{"asym-partition", func(s *Scenario, rng *rand.Rand, base time.Duration, soak bool) {
		s.addClients(rng, soak, 10, 15)
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
	}},
	{"wan-geo", func(s *Scenario, rng *rand.Rand, _ time.Duration, soak bool) {
		s.addClients(rng, soak, 10, 15)
		// Geo latency is pure timing stress: no scheduled faults beyond the
		// sprinkles, the matrix itself is the adversary (cross-region RTT is
		// close to the heartbeat interval under Continental3).
		if rng.Intn(2) == 0 {
			s.Net.Geo = &chaos.Metro3
		} else {
			s.Net.Geo = &chaos.Continental3
		}
	}},
	{"rolling-upgrade", func(s *Scenario, rng *rand.Rand, base time.Duration, soak bool) {
		// Restart every member once, old wire -> new.
		s.Rolling = true
		s.ReviveAll = true
		s.addClients(rng, soak, 12, 12)
		for i := range s.N {
			s.Events = append(s.Events, Event{
				At:   base + time.Duration(i)*(700*time.Millisecond+time.Duration(rng.Intn(150))*time.Millisecond),
				Kind: EvUpgrade, Node: i,
			})
		}
	}},
}

// profileOf returns the coverage class seed falls in.
func profileOf(seed int64) profile {
	n := int64(len(profiles))
	return profiles[((seed%n)+n)%n]
}

// addClients adds one or two session clients publishing lo+[0,spread)
// messages each, three times as many under soak.
func (s *Scenario) addClients(rng *rand.Rand, soak bool, lo, spread int) {
	s.Clients = 1 + rng.Intn(2)
	s.ClientMsgs = lo + rng.Intn(spread)
	if soak {
		s.ClientMsgs *= 3
	}
}

// crashRestart schedules crash at base and restart after (+[0,300)ms)
// later, both aimed at node where the kinds are targeted.
func (s *Scenario) crashRestart(rng *rand.Rand, base, after time.Duration, crash, restart EventKind, node int) {
	s.Events = append(s.Events,
		Event{At: base, Kind: crash, Node: node},
		Event{At: base + after + time.Duration(rng.Intn(300))*time.Millisecond, Kind: restart, Node: node},
	)
}

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
	base := 150*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond
	profileOf(seed).plan(&s, rng, base, soak)
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
