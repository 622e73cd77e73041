package harness

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// heapWatermark forces a collection and reports the live heap — the
// number the soak's leak check watches between scenarios.
func heapWatermark() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// seedBase picks where this run's seed range starts: FSR_SEED pins a single
// scenario for replay; otherwise every run explores a fresh range (the
// FoundationDB discipline — new schedules every CI run, any failure
// replayable from its printed seed).
func seedBase(t *testing.T) (base int64, pinned bool) {
	if v := os.Getenv("FSR_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("FSR_SEED=%q: %v", v, err)
		}
		return n, true
	}
	return time.Now().UnixNano(), false
}

// TestScenarioDeterminism: a seed fully determines the scenario — the plan
// renders byte-for-byte as testdata/plans.golden recorded it, for seeds
// -3..99, the regression range and every pinned seed, at both workload
// scales. The chaos transport's injection schedule is likewise seed-pure
// (covered by transport/chaos tests). This is what makes the printed repro
// line honest, and what keeps a pinned seed or a ledger rate meaning the
// same schedule across refactors: a shifted random draw fails here. The
// golden file is never regenerated to make this pass.
func TestScenarioDeterminism(t *testing.T) {
	data, err := os.ReadFile("testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	planned := make(map[int64]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		want, soak := strings.CutPrefix(line, "soak ")
		var seed int64
		if _, err := fmt.Sscanf(want, "seed=%d ", &seed); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		if got := Generate(seed, soak).String(); got != want {
			t.Errorf("seed %d (soak %v) plan changed:\n got %s\nwant %s", seed, soak, got, want)
		}
		planned[seed] = true
	}
	for _, seed := range regressionSeeds() {
		if !planned[seed] {
			t.Errorf("regression seed %d has no golden plan", seed)
		}
	}
	for _, p := range pinnedSeeds {
		if !planned[p.seed] {
			t.Errorf("pinned seed %d has no golden plan", p.seed)
		}
	}
}

// TestScenarioCoverage: any window of len(profiles) consecutive seeds
// covers every coverage class, so the default 50-scenario run always
// includes leader crashes, crash-restarts with catch-up and membership
// churn.
func TestScenarioCoverage(t *testing.T) {
	base := time.Now().UnixNano()
	classes := make(map[string]bool)
	for i := range int64(len(profiles)) {
		classes[profileOf(base+i).name] = true
	}
	for _, p := range profiles {
		if !classes[p.name] {
			t.Fatalf("class %q missing from %d consecutive seeds (base %d)", p.name, len(profiles), base)
		}
	}
}

// regressionBases each start a fixed range of regressionCount seeds —
// every profile five times over — that a default TestChaos run replays
// ahead of its fresh range, so each run covers the same known schedules,
// under the same subtest names, as well as new ones. Each range is one
// that an earlier run drew fresh and passed.
var regressionBases = []int64{1792146418171245131, 1792223415018658801}

const regressionCount = 50

func regressionSeeds() []int64 {
	var seeds []int64
	for _, base := range regressionBases {
		for i := range int64(regressionCount) {
			seeds = append(seeds, base+i)
		}
	}
	return seeds
}

// TestChaos is the short chaos pass: the regression ranges plus 50 fresh
// seeded scenarios (FSR_CHAOS_COUNT overrides the fresh count and drops the
// regression ranges; -short trims to 8 fresh) against the real
// mem-transport stack. Regression and FSR_SEED subtests are named
// seed-<seed>; fresh ones are named fresh-<i>, so every run has the same
// subtest names (each logs its plan, seed first). Replay a failure with
// the FSR_SEED line it prints.
func TestChaos(t *testing.T) {
	base, pinned := seedBase(t)
	count := 50
	var seeds []int64
	if v := os.Getenv("FSR_CHAOS_COUNT"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("FSR_CHAOS_COUNT=%q", v)
		}
		count = n
	} else if testing.Short() {
		count = 8
	} else if !pinned {
		seeds = regressionSeeds()
	}
	if pinned {
		seeds, count = []int64{base}, 0
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			Run(t, seed, false)
		})
	}
	for i := range count {
		t.Run(fmt.Sprintf("fresh-%d", i), func(t *testing.T) {
			Run(t, base+int64(i), false)
		})
	}
	count += len(seeds)
	// Coverage guard for the hot-path batching: across a full scenario run
	// the stack must have exercised frames carrying more than one data
	// segment end to end (engine batching -> codec -> chaos injection ->
	// engine). A single pinned replay or a heavily trimmed run is exempt —
	// one scenario's traffic may legitimately never bunch.
	if !pinned && count >= 10 && multiSegFrames.Load() == 0 {
		t.Errorf("no multi-segment frame observed across %d scenarios: engine batching is not being exercised by chaos traffic", count)
	}
	// Coverage guard for reassembly: payloads run up to 1.5 × SegmentSize,
	// so about three messages in ten must have needed a second segment.
	extra := ExtraSegmentsPerMessage()
	t.Logf("%.2f extra segments per message", extra)
	if !pinned && count >= 10 && (extra < 0.15 || extra > 0.6) {
		t.Errorf("%.2f extra segments per message across %d scenarios, want about 0.3: chaos traffic no longer straddles the segment boundary as intended", extra, count)
	}
	// Coverage guard for eviction recovery (ledger row I): a member evicted
	// on false suspicion must have been restarted and held to the checks
	// as a live member somewhere in the run — the asym-partition seeds
	// evict routinely.
	if !pinned && count >= 10 && evictedRejoins.Load() == 0 {
		t.Errorf("no evicted member was restarted and live at quiescence across %d scenarios: eviction recovery escapes the checks", count)
	}
}

// pinnedSeeds are known-nasty schedules every run replays, on top of
// TestChaos's fresh ones. why names the ledger row (ROADMAP) or bug the
// seed reproduced, or the class it keeps covered; soak runs the seed at
// soak workload scale.
var pinnedSeeds = []struct {
	profile string
	seed    int64
	soak    bool
	why     string
}{
	// A durable member on a seeded fault-injecting filesystem — torn
	// writes, failing and lying fsyncs, ENOSPC, bit flips — under client
	// traffic, crashes and restarts, held to acked⇒durable.
	{"hostile-disk", 6, false, "coverage"},
	{"hostile-disk", 16, false, "coverage"},
	{"hostile-disk", 26, false, "coverage"},
	{"hostile-disk", 36, false, "coverage"},
	{"hostile-disk", 46, false, "coverage"},
	{"hostile-disk", 56, false, "coverage"},
	{"hostile-disk", 66, false, "row A"},
	{"hostile-disk", 76, false, "coverage"},
	// Row A: a lying fsync on a segment that is then rotated, and the
	// restart replayed over the hole ("agreement violated") until Open
	// learned to walk the segment chain.
	{"hostile-disk", 1790963375009748766, false, "row A"},
	{"hostile-disk", 1790452026961468556, false, "row A"},
	{"hostile-disk", 1790461552936404646, false, "row A"},
	{"hostile-disk", 1790488432652460126, false, "row A"},
	// One-way blackholes and flapping ring edges driving false suspicion,
	// eviction, restart and state-transfer rejoin.
	{"asym-partition", 7, false, "coverage"},
	{"asym-partition", 17, false, "coverage"},
	{"asym-partition", 27, false, "coverage"},
	// Row B: a member left behind in an old view ("receipt … never
	// resolved" with the others in a newer view) until the stale-view
	// fence.
	{"asym-partition", 1790963247781506137, false, "row B"},
	{"asym-partition", 1792164924857650437, false, "row B"},
	{"asym-partition", 1790488237000856887, false, "row B"},
	{"asym-partition", 1790448515376767927, false, "row B"},
	{"asym-partition", 1791126109252717397, false, "row B"},
	{"asym-partition", 1792164713762910507, false, "row B"},
	// The whole ring on a WAN-shaped geo latency matrix.
	{"wan-geo", 8, false, "coverage"},
	{"wan-geo", 18, false, "coverage"},
	// Bug #17: under continental ack latency a member's backpressure
	// dropped one client publish while accepting its successors, and the
	// client's sorted retry committed it BEHIND them — an interior hole in
	// the per-origin FIFO stream. Fixed by sessSrv's per-client gate (see
	// TestClientPubFIFOGate in the root package).
	{"wan-geo", 1786170100913705138, true, "bug #17"},
	// Every member restarted one at a time under traffic, its wire version
	// flipped old→new.
	{"rolling-upgrade", 9, false, "coverage"},
	{"rolling-upgrade", 19, false, "coverage"},
	{"rolling-upgrade", 29, false, "row C"},
	// Row C: a member left in an older two-member view, holding its lowest
	// ID, minted a view of its own under the group's epoch ("group never
	// quiesced" with two memberships at one epoch) until every exactly-half
	// proposal probed and waited. Row C's third seed also met row K: a
	// filtered duplicate publish moved the applied frontier of the members
	// that never restarted past what a restarted one rebuilds from its
	// log ("group never quiesced" with one member's applied ahead), until
	// the frontier was held by the log alone.
	{"rolling-upgrade", 1790461820054646509, false, "row C"},
	{"rolling-upgrade", 2000669, false, "row C"},
	{"rolling-upgrade", 1792161319937308799, false, "row C, row K"},
}

// TestChaosPinned replays the pinned table. Each row first checks that its
// seed still generates the profile it names. The name contains "Chaos" so
// CI's -run Chaos selects it.
func TestChaosPinned(t *testing.T) {
	if _, replay := seedBase(t); replay {
		t.Skip("FSR_SEED replay runs through TestChaos")
	}
	for _, p := range pinnedSeeds {
		t.Run(fmt.Sprintf("seed-%d", p.seed), func(t *testing.T) {
			if got := profileOf(p.seed).name; got != p.profile {
				t.Fatalf("seed %d (%s) generated profile %q, want %s", p.seed, p.why, got, p.profile)
			}
			Run(t, p.seed, p.soak)
		})
	}
}

// TestChaosSoak runs scenarios until the FSR_CHAOS_SOAK budget (a Go
// duration) is spent — the nightly unbounded mode. Failing seeds are also
// appended to FSR_CHAOS_LOG when set, so CI can upload them as artifacts.
// FSR_CHAOS_PROFILE restricts the sweep to one coverage class by name
// (e.g. asym-partition), for the nightly matrix. Between scenarios the
// soak also watches the post-GC heap watermark and fails on monotone
// growth — a leak across thousands of scenarios would otherwise pass
// every correctness check and still take the nightly host down.
func TestChaosSoak(t *testing.T) {
	budget := os.Getenv("FSR_CHAOS_SOAK")
	if budget == "" {
		t.Skip("set FSR_CHAOS_SOAK=<duration> (e.g. 30m) to run the soak")
	}
	d, err := time.ParseDuration(budget)
	if err != nil {
		t.Fatalf("FSR_CHAOS_SOAK=%q: %v", budget, err)
	}
	base, pinned := seedBase(t)
	wantProfile := os.Getenv("FSR_CHAOS_PROFILE")
	if wantProfile != "" && !slices.ContainsFunc(profiles[:], func(p profile) bool { return p.name == wantProfile }) {
		t.Fatalf("FSR_CHAOS_PROFILE=%q names no profile", wantProfile)
	}
	deadline := time.Now().Add(d)
	ran := 0
	var heap []uint64
	for i := int64(0); time.Now().Before(deadline); i++ {
		seed := base + i
		if wantProfile != "" && profileOf(seed).name != wantProfile {
			continue
		}
		ok := t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			Run(t, seed, true)
		})
		ran++
		heap = append(heap, heapWatermark())
		if n := len(heap); n >= 12 {
			// Steady state is reached quickly; after that the post-GC heap
			// must not keep climbing. Allow generous slack over the first
			// half's peak — scenario sizes vary — but monotone growth past
			// it is a leak.
			peak := slices.Max(heap[:n/2])
			limit := peak + peak/2 + 48<<20
			if heap[n-1] > limit {
				t.Errorf("soak heap watermark climbing: %d MiB after %d scenarios, limit %d MiB (history %v)",
					heap[n-1]>>20, ran, limit>>20, heap)
			}
		}
		if !ok {
			if path := os.Getenv("FSR_CHAOS_LOG"); path != "" {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
				if err == nil {
					fmt.Fprintf(f, "FSR_SEED=%d go test -race -run 'TestChaos/seed-%d' ./internal/harness\n", seed, seed)
					_ = f.Close()
				}
			}
		}
		if pinned {
			break // replaying one seed, not exploring
		}
	}
	t.Logf("soak: %d scenarios in %v (base seed %d)", ran, d, base)
}
