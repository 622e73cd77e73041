package main

import (
	"math"
	"slices"
	"time"

	"fsr"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks, 0 for an empty slice. It sorts a copy.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the rule
// the acceptance procedure for this benchmark is phrased in. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run (or window-to-window) noise figure every bound is judged
// against. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentileMs returns the p-quantile (0..1) of sorted nanosecond samples
// by linear interpolation between closest ranks, in milliseconds.
func percentileMs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	ns := float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
	return ns / 1e6
}

// histQuantileMs interpolates the q-quantile of the samples added between
// two snapshots of a cumulative fsr.LatencyHistogram, in milliseconds.
// Inside a bucket the samples are taken as evenly spread; the +Inf bucket
// reports its lower edge.
func histQuantileMs(before, after fsr.LatencyHistogram, q float64) float64 {
	total := after.Count - before.Count
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var prevCum float64
	var prevEdge time.Duration
	for i, edge := range fsr.LatencyBuckets {
		cum := float64(after.Buckets[i] - before.Buckets[i])
		if cum >= rank {
			in := cum - prevCum
			frac := 1.0
			if in > 0 {
				frac = (rank - prevCum) / in
			}
			return (float64(prevEdge) + frac*float64(edge-prevEdge)) / 1e6
		}
		prevCum, prevEdge = cum, edge
	}
	return float64(prevEdge) / 1e6
}

// windows cuts the measured part of a run into equal slices. Every rate and
// latency metric is taken per window and reported as quietQuantile of the
// per-window values.
type windows struct {
	startNs int64 // offset of the first window from the run's clock base
	widthNs int64
	n       int
}

// index returns the window a clock reading falls into, or -1 outside the
// measured part (warm-up before it, drain after it).
func (w windows) index(ns int64) int {
	if ns < w.startNs {
		return -1
	}
	i := int((ns - w.startNs) / w.widthNs)
	if i >= w.n {
		return -1
	}
	return i
}

func (w windows) endNs() int64 { return w.startNs + int64(w.n)*w.widthNs }

// stream accumulates one flow of completions (PUBACKs, or EVENTs at the
// subscriber) per window: how many, how many payload bytes, and each one's
// latency from its due time.
type stream struct {
	count []int64
	bytes []int64
	lat   [][]int64
}

func newStream(n int) *stream {
	return &stream{count: make([]int64, n), bytes: make([]int64, n), lat: make([][]int64, n)}
}

// add records one completion in window w; a negative latency marks a
// completion that carries no latency sample (a replayed message).
func (s *stream) add(w int, payloadBytes int, latNs int64) {
	if w < 0 {
		return
	}
	s.count[w]++
	s.bytes[w] += int64(payloadBytes)
	if latNs >= 0 {
		s.lat[w] = append(s.lat[w], latNs)
	}
}

func (s *stream) total() (count, bytes int64) {
	for i := range s.count {
		count += s.count[i]
		bytes += s.bytes[i]
	}
	return count, bytes
}

// mbpsPerWindow is payload megabits per second in each window.
func (s *stream) mbpsPerWindow(widthNs int64) []float64 {
	out := make([]float64, len(s.bytes))
	for i, b := range s.bytes {
		out[i] = float64(b) * 8 / (float64(widthNs) / 1e9) / 1e6
	}
	return out
}

// quantilePerWindow is the p-quantile latency (ms) of each window that has
// samples. It sorts the samples in place; nothing depends on their order.
func (s *stream) quantilePerWindow(p float64) []float64 {
	var out []float64
	for _, l := range s.lat {
		if len(l) == 0 {
			continue
		}
		slices.Sort(l)
		out = append(out, percentileMs(l, p))
	}
	return out
}

// samples is the number of latency samples over all windows.
func (s *stream) samples() int {
	n := 0
	for _, l := range s.lat {
		n += len(l)
	}
	return n
}
