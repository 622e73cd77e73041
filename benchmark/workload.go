package main

import (
	"fmt"
	"time"
)

// subKind is how a workload's one subscriber consumes the order.
type subKind int

const (
	// subMemberTail follows the live tail of member 1 (Subscribe(ctx, 0)).
	subMemberTail subKind = iota
	// subEdgeTail follows the live tail of an edge replica fed by the ring.
	subEdgeTail
	// subReplay streams the whole history of member 1 from offset 1 to the
	// frontier, over and over, at workload.replayRate.
	subReplay
)

// workload is one fixed traffic shape. The generator is always one
// publisher session on member 0 and one subscriber session: the reference
// box has two cores and the cluster runs in the same process, so more
// client goroutines would measure the scheduler.
type workload struct {
	name    string
	payload int  // bytes per message, header included
	window  int  // session in-flight window
	rate    int  // offered messages per second; 0 is a closed loop
	durable bool // members keep a WAL in a real directory
	// bounded gives every durable member a (trivial) state machine, so the
	// node snapshots every 4096 messages and truncates the WAL behind it,
	// as a long-running deployment does. Without it the log, and with it
	// the page cache, grows by 225 MB/s at saturation, and on the
	// reference VM the kernel's cost per write rose fourfold a few seconds
	// into a run — on tmpfs as on disk — which is the box, not the code.
	bounded bool
	sub     subKind
	// replayRate is the messages per second a replaying subscriber reads
	// at. Left to read flat out it takes every cycle the two cores have
	// (≈560 000 msg/s), and the publisher's latency then measures the Go
	// scheduler's time slices: 17 ms, a quarter apart between runs.
	replayRate int
	preload    int // messages committed during set-up, before any timing
	setUps     int // set-up is done this often; setup_s is the median
}

// cheapSetUps is how often a set-up without preload is repeated: it takes a
// few milliseconds, so its median needs many samples to hold still.
const cheapSetUps = 31

// The names are final: later issues cite them. BENCHMARK.json carries the
// one-line reason for each; benchmark/README.md the longer one.
var workloads = []workload{
	{name: "sat-8k", payload: 8 << 10, window: 256, sub: subMemberTail, setUps: cheapSetUps},
	{name: "sat-8k-durable", payload: 8 << 10, window: 256, durable: true, bounded: true, sub: subMemberTail, setUps: cheapSetUps},
	{name: "rate-1k-edge", payload: 1 << 10, window: 256, rate: 15000, sub: subEdgeTail, setUps: cheapSetUps},
	// 2000 msg/s offered and 100 000 msg/s read, not the issue's 5000 and a
	// reader flat out: on the reference VM every step down in load made the
	// publisher's latency steadier between runs (spread of ack_p50_ms 32 %,
	// 19 % and 10 % at 5000/200 000, 5000/100 000 and 2000/100 000, in
	// interleaved runs).
	{name: "replay-1k-durable", payload: 1 << 10, window: 256, rate: 2000, durable: true, sub: subReplay, replayRate: 100000, preload: 100000, setUps: 3},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed shape of every run; only the measured length comes from the
// command line (the driver passes BENCHMARK.json's run_seconds).
const (
	// numWindows is how many windows the measured time is cut into: a
	// second or so each, far shorter than the host's disturbances.
	numWindows = 20

	// quietQuantile picks, from a metric's per-window values, the one a run
	// reports: the tenth percentile counted from the better side, the level
	// the system holds in the run's quietest seconds. The reference VM shares
	// its host: for 5 to 25 s at a time, every 20 to 30 s on a bad afternoon,
	// a message costs up to a quarter more CPU and sub-millisecond latencies
	// rise by half. A median over the windows follows those bursts whenever
	// they cover half a run (spread between identical runs of 17 to 30 % on
	// the open-loop latencies), the low quantile only when they cover nearly
	// all of it. A change in the code moves every window, so it moves this
	// too; what it cannot see is a change that stalls only some seconds,
	// which the per-layer p99s (medians over the windows) are for.
	quietQuantile = 0.10

	warmUp = 3 * time.Second // load runs this long before the first window

	// settleTimeout bounds the wait, after the last publish, for the
	// subscriber to have seen every acked message and for the members'
	// applied offsets to meet. A subscriber that was demoted to paging
	// learns of the final messages only from the 1 s keepalive of each
	// serving hop, so this must cover two of them.
	settleTimeout = 5 * time.Second

	// ackDeadline is how long after its due time a publish may take to
	// commit before it counts as failed. It equals the session's default
	// AckTimeout, so a publish that needed a session retry is a failure,
	// not a slow success.
	ackDeadline = 2 * time.Second

	// Failure detection is slowed as in internal/bench/tcp.go: a saturated
	// event loop delays heartbeats by tens of milliseconds, and a run in
	// which any view changes is invalid anyway.
	failureTimeout = 3 * time.Second
	changeTimeout  = 3 * time.Second

	// minAchieved is the share of the offered rate an open-loop run must
	// commit to be valid.
	minAchieved = 0.99
)

// runConfig is what varies between the real command and the tests.
type runConfig struct {
	seed    uint64
	measure time.Duration // total measured time, cut into numWindows
	warmUp  time.Duration
	dataDir string // durable directories and span files go under here
	trace   bool

	layerBudget time.Duration // how long each isolated layer call is timed
}
