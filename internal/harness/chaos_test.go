package harness

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
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
// renders byte-for-byte identically across generations, and the chaos
// transport's injection schedule is likewise seed-pure (covered by
// transport/chaos tests). This is what makes the printed repro line honest.
func TestScenarioDeterminism(t *testing.T) {
	for seed := int64(-3); seed < 40; seed++ {
		a, b := Generate(seed, false).String(), Generate(seed, false).String()
		if a != b {
			t.Fatalf("seed %d generated two different scenarios:\n%s\n%s", seed, a, b)
		}
		if c := Generate(seed+1, false).String(); a == c {
			t.Fatalf("seeds %d and %d generated identical scenarios", seed, seed+1)
		}
		if soak := Generate(seed, true); soak.Messages <= Generate(seed, false).Messages {
			t.Fatalf("seed %d: soak scenario not scaled up", seed)
		}
	}
}

// TestScenarioCoverage: any window of `profiles` consecutive seeds covers
// every coverage class, so the default 50-scenario run always includes
// leader crashes, crash-restarts with catch-up and membership churn.
func TestScenarioCoverage(t *testing.T) {
	base := time.Now().UnixNano()
	classes := make(map[string]bool)
	for i := int64(0); i < profiles; i++ {
		classes[profileName(Generate(base+i, false))] = true
	}
	for _, want := range []string{"timing-only", "leader-crash+restart", "follower-crash+restart", "membership-churn", "client-sessions", "edge-replicas", "hostile-disk", "asym-partition", "wan-geo", "rolling-upgrade"} {
		if !classes[want] {
			t.Fatalf("class %q missing from %d consecutive seeds (base %d)", want, profiles, base)
		}
	}
}

// TestChaos is the short chaos pass: 50 seeded scenarios (FSR_CHAOS_COUNT
// overrides; -short trims) against the real mem-transport stack. Replay a
// failure with the FSR_SEED line it prints.
func TestChaos(t *testing.T) {
	base, pinned := seedBase(t)
	count := 50
	if v := os.Getenv("FSR_CHAOS_COUNT"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("FSR_CHAOS_COUNT=%q", v)
		}
		count = n
	} else if testing.Short() {
		count = 8
	}
	if pinned {
		count = 1
	}
	for i := range count {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			Run(t, seed, false)
		})
	}
	// Coverage guard for the hot-path batching: across a full scenario run
	// the stack must have exercised frames carrying more than one data
	// segment end to end (engine batching -> codec -> chaos injection ->
	// engine). A single pinned replay or a heavily trimmed run is exempt —
	// one scenario's traffic may legitimately never bunch.
	if !pinned && count >= 10 && MultiSegFramesObserved() == 0 {
		t.Errorf("no multi-segment frame observed across %d scenarios: engine batching is not being exercised by chaos traffic", count)
	}
	// Coverage guard for reassembly: payloads run up to 1.5 × SegmentSize,
	// so about three messages in ten must have needed a second segment.
	extra := ExtraSegmentsPerMessage()
	t.Logf("%.2f extra segments per message", extra)
	if !pinned && count >= 10 && (extra < 0.15 || extra > 0.6) {
		t.Errorf("%.2f extra segments per message across %d scenarios, want about 0.3: chaos traffic no longer straddles the segment boundary as intended", extra, count)
	}
}

// TestChaosHostileDiskPinned replays a fixed set of hostile-disk scenarios
// (seeds ≡ 6 mod profiles) every run: a durable member rides a seeded
// fault-injecting filesystem — torn writes, failing and lying fsyncs,
// ENOSPC, bit flips — under client traffic, crashes, and restarts, and the
// checker holds the cluster to acked⇒durable. Pinned seeds keep known-
// nasty schedules in every CI run; TestChaos layers fresh random ones on
// top. The name contains "Chaos" so CI's -run Chaos selects it.
func TestChaosHostileDiskPinned(t *testing.T) {
	if _, pinned := seedBase(t); pinned {
		t.Skip("FSR_SEED replay runs through TestChaos")
	}
	for _, seed := range []int64{6, 16, 26, 36, 46, 56, 66, 76,
		// Ledger row A (ROADMAP): a lying fsync on a segment that is then
		// rotated, and the restart replayed over the hole ("agreement
		// violated") until Open learned to walk the segment chain. 66 above
		// is one of them.
		1790963375009748766, 1790452026961468556, 1790461552936404646, 1790488432652460126,
	} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sc := Generate(seed, false)
			if got := profileName(sc); got != "hostile-disk" {
				t.Fatalf("seed %d generated profile %q, want hostile-disk", seed, got)
			}
			RunScenario(t, sc)
		})
	}
}

// TestChaosHostileNetPinned replays a fixed set of hostile-network
// scenarios every run: asymmetric partitions (seeds ≡ 7 mod profiles,
// one-way blackholes and flapping ring edges driving false suspicion,
// eviction and rejoin), WAN geo latency matrices (≡ 8), and version-skew
// rolling upgrades (≡ 9, every member restarted one at a time under
// traffic with the wire version flipped old→new). Pinned seeds keep
// known-nasty schedules in every CI run; TestChaos layers fresh random
// ones on top. The name contains "Chaos" so CI's -run Chaos selects it.
func TestChaosHostileNetPinned(t *testing.T) {
	if _, pinned := seedBase(t); pinned {
		t.Skip("FSR_SEED replay runs through TestChaos")
	}
	for _, tc := range []struct {
		profile string
		seeds   []int64
	}{
		{"asym-partition", []int64{7, 17, 27}},
		{"wan-geo", []int64{8, 18}},
		{"rolling-upgrade", []int64{9, 19, 29}},
	} {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
				sc := Generate(seed, false)
				if got := profileName(sc); got != tc.profile {
					t.Fatalf("seed %d generated profile %q, want %s", seed, got, tc.profile)
				}
				RunScenario(t, sc)
			})
		}
	}
}

// TestChaosWanGeoSoakPinned replays, at soak workload scale, the wan-geo
// scenario that exposed the client-publish FIFO gate bug (bug #17): under
// continental ack latency enough publishes stay in flight that a member's
// backpressure bounds drop one publish while accepting its successors —
// the client's sorted retry then committed the dropped one BEHIND them,
// an interior hole in the per-origin FIFO stream. Fixed by sessSrv's
// per-client gate (see TestClientPubFIFOGate in the root package); this
// seed is the end-to-end regression. The name contains "Chaos" so CI's
// -run Chaos selects it.
func TestChaosWanGeoSoakPinned(t *testing.T) {
	if _, pinned := seedBase(t); pinned {
		t.Skip("FSR_SEED replay runs through TestChaos/TestChaosSoak")
	}
	const seed = 1786170100913705138
	sc := Generate(seed, true)
	if got := profileName(sc); got != "wan-geo" {
		t.Fatalf("seed %d generated profile %q, want wan-geo", seed, got)
	}
	RunScenario(t, sc)
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
	deadline := time.Now().Add(d)
	ran := 0
	var heap []uint64
	for i := int64(0); time.Now().Before(deadline); i++ {
		seed := base + i
		if wantProfile != "" && profileName(Generate(seed, true)) != wantProfile {
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
