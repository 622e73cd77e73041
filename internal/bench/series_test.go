package bench

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	samples := []time.Duration{
		4 * time.Millisecond, 1 * time.Millisecond,
		3 * time.Millisecond, 2 * time.Millisecond,
	}
	s := Summarize(samples)
	if s.Count != 4 || s.Min != time.Millisecond || s.Max != 4*time.Millisecond {
		t.Fatalf("summary: %+v", s)
	}
	if s.Mean != 2500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 != 2*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	// Input must not be mutated (sorted copy).
	if samples[0] != 4*time.Millisecond {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Intn(1_000_000))
		}
		s := Summarize(samples)
		// Invariants: min <= p50 <= p95 <= p99 <= max, min <= mean <= max.
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Count == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := &Series{Name: "Figure 8", XLabel: "processes", YLabel: "Mb/s"}
	s.Add(2, 78.9, "n=2")
	s.Add(10, 79.2, "n=10")
	out := s.String()
	for _, want := range []string{"Figure 8", "processes", "Mb/s", "n=2", "78.90", "79.20"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered series missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesEmptyLabel(t *testing.T) {
	s := &Series{Name: "x", XLabel: "a", YLabel: "b"}
	s.Add(1, 2, "")
	if !strings.Contains(s.String(), "-") {
		t.Error("empty label not rendered as dash")
	}
}
