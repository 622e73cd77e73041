package main

import (
	"math"
	"testing"
	"time"

	"fsr"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.1, 1.4}, {0.9, 12.8}, {1, 16}} {
		if got := quantile([]float64{16, 1, 8, 2, 4}, c.p); !near(got, c.want) {
			t.Errorf("quantile %v of 1,2,4,8,16 = %v, want %v", c.p, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles of five = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); !near(got, (12-1.5)/4) {
		t.Errorf("spread = %v, want %v", got, (12-1.5)/4)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int64{1e6, 2e6, 3e6, 4e6, 5e6}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.875, 4.5}} {
		if got := percentileMs(sorted, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v ms, want %v", c.p, got, c.want)
		}
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestHistQuantileUsesTheDelta(t *testing.T) {
	var before, after fsr.LatencyHistogram
	// Old samples, all slow, must not count.
	for range 100 {
		before.Observe(time.Second)
	}
	after = before
	// 100 new samples spread evenly over the (250µs, 500µs] bucket's rank
	// range: the median interpolates to its middle.
	for range 100 {
		after.Observe(400 * time.Microsecond)
	}
	if got := histQuantileMs(before, after, 0.5); !near(got, 0.375) {
		t.Errorf("interpolated p50 = %v ms, want 0.375", got)
	}
	if got := histQuantileMs(after, after, 0.5); got != 0 {
		t.Errorf("p50 of an empty delta = %v, want 0", got)
	}
}

func TestWindows(t *testing.T) {
	w := windows{startNs: 1000, widthNs: 100, n: 5}
	for _, c := range []struct {
		ns   int64
		want int
	}{{999, -1}, {1000, 0}, {1099, 0}, {1100, 1}, {1499, 4}, {1500, -1}} {
		if got := w.index(c.ns); got != c.want {
			t.Errorf("index(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	if w.endNs() != 1500 {
		t.Errorf("endNs = %d", w.endNs())
	}
	s := newStream(w.n)
	s.add(-1, 10, 5) // warm-up: dropped
	s.add(0, 1000, 2e6)
	s.add(0, 1000, 4e6)
	s.add(3, 500, -1) // counted, but carries no latency
	if c, b := s.total(); c != 3 || b != 2500 {
		t.Errorf("total = %d msgs, %d bytes", c, b)
	}
	if got := s.quantilePerWindow(0.5); len(got) != 1 || !near(got[0], 3) {
		t.Errorf("p50 per window = %v, want [3]", got)
	}
	if got := s.mbpsPerWindow(1e9); !near(got[0], 0.016) || !near(got[3], 0.004) {
		t.Errorf("mbps per window = %v", got)
	}
}
