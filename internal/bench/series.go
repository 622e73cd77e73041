package bench

// The small statistics toolkit the experiments report through: duration
// summaries and labeled (x, y) series rendered as text tables, mirroring
// the paper's figures.

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Summary condenses a sample of durations.
type Summary struct {
	Count          int
	Min, Max, Mean time.Duration
	P50, P95, P99  time.Duration
}

// Summarize computes a Summary. An empty sample yields a zero Summary.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	var total time.Duration
	for _, v := range s {
		total += v
	}
	return Summary{
		Count: len(s),
		Min:   s[0],
		Max:   s[len(s)-1],
		Mean:  total / time.Duration(len(s)),
		P50:   quantile(s, 0.50),
		P95:   quantile(s, 0.95),
		P99:   quantile(s, 0.99),
	}
}

// quantile returns the q-quantile of sorted samples (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Point is one (x, y) measurement, optionally labeled.
type Point struct {
	X     float64
	Y     float64
	Label string
}

// Series is one experiment's output: what a paper figure plots.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64, label string) {
	s.Points = append(s.Points, Point{X: x, Y: y, Label: label})
}

// String renders the series as an aligned text table.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	fmt.Fprintf(&b, "%-24s %14s %14s\n", "label", s.XLabel, s.YLabel)
	for _, p := range s.Points {
		label := p.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(&b, "%-24s %14.2f %14.2f\n", label, p.X, p.Y)
	}
	return b.String()
}
