// Benchmarks regenerating the paper's evaluation (DSN 2006, Section 5).
// One benchmark per table/figure; each reports the paper's metric through
// b.ReportMetric so `go test -bench` output reads like the figure:
//
//	BenchmarkTable1RawNetwork            tcp_mbps / udp_mbps
//	BenchmarkFigure6Latency              ms per point, n = 2..10
//	BenchmarkFigure7LatencyVsThroughput  latency at low load and past the knee
//	BenchmarkFigure8Throughput           Mb/s per n
//	BenchmarkFigure9Senders              Mb/s per k
//	BenchmarkRoundModelClasses           broadcasts/round per protocol class
//
// cmd/fsr-bench prints the full series.
//
// External test package: internal/bench itself imports fsr (the loopback
// TCP experiments run the real cluster), so these benchmarks must sit
// outside package fsr to avoid an import cycle.
package fsr_test

import (
	"fmt"
	"testing"

	"fsr/internal/bench"
)

func BenchmarkTable1RawNetwork(b *testing.B) {
	var tcp, udp float64
	for range b.N {
		s := bench.Table1()
		tcp, udp = s.Points[0].Y, s.Points[1].Y
	}
	b.ReportMetric(tcp, "tcp_mbps")
	b.ReportMetric(udp, "udp_mbps")
}

func BenchmarkFigure6Latency(b *testing.B) {
	ns := []int{2, 4, 6, 8, 10}
	var last map[int]float64
	for range b.N {
		s, err := bench.Figure6(ns)
		if err != nil {
			b.Fatal(err)
		}
		last = map[int]float64{}
		for _, p := range s.Points {
			last[int(p.X)] = p.Y
		}
	}
	for _, n := range ns {
		b.ReportMetric(last[n], fmt.Sprintf("ms_n%d", n))
	}
}

func BenchmarkFigure7LatencyVsThroughput(b *testing.B) {
	var low, over float64
	for range b.N {
		s, err := bench.Figure7([]float64{30, 95})
		if err != nil {
			b.Fatal(err)
		}
		low, over = s.Points[0].Y, s.Points[1].Y
	}
	b.ReportMetric(low, "ms_at_30mbps")
	b.ReportMetric(over, "ms_past_knee")
}

func BenchmarkFigure8Throughput(b *testing.B) {
	ns := []int{2, 5, 10}
	var last map[int]float64
	for range b.N {
		s, err := bench.Figure8(ns)
		if err != nil {
			b.Fatal(err)
		}
		last = map[int]float64{}
		for _, p := range s.Points {
			last[int(p.X)] = p.Y
		}
	}
	for _, n := range ns {
		b.ReportMetric(last[n], fmt.Sprintf("mbps_n%d", n))
	}
}

func BenchmarkFigure9Senders(b *testing.B) {
	ks := []int{1, 3, 5}
	var last map[int]float64
	for range b.N {
		s, err := bench.Figure9(ks)
		if err != nil {
			b.Fatal(err)
		}
		last = map[int]float64{}
		for _, p := range s.Points {
			last[int(p.X)] = p.Y
		}
	}
	for _, k := range ks {
		b.ReportMetric(last[k], fmt.Sprintf("mbps_k%d", k))
	}
}

func BenchmarkRoundModelClasses(b *testing.B) {
	var series map[string]float64
	for range b.N {
		s, err := bench.Classes(6, 3, 60)
		if err != nil {
			b.Fatal(err)
		}
		series = map[string]float64{}
		for _, p := range s.Points {
			series[p.Label] = p.Y
		}
	}
	for label, y := range series {
		b.ReportMetric(y, label+"_bpr")
	}
}

func BenchmarkPrivilegeTradeoff(b *testing.B) {
	var series map[string]float64
	for range b.N {
		s, err := bench.PrivilegeTradeoff(8, 100)
		if err != nil {
			b.Fatal(err)
		}
		series = map[string]float64{}
		for _, p := range s.Points {
			series[p.Label] = p.Y
		}
	}
	for label, y := range series {
		b.ReportMetric(y, label+"_bpr")
	}
}
