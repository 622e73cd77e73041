package bench

import (
	"testing"
	"time"
)

func TestTable1(t *testing.T) {
	s := Table1()
	if len(s.Points) != 2 {
		t.Fatalf("points: %v", s.Points)
	}
	tcp, udp := s.Points[0].Y, s.Points[1].Y
	if tcp < 92 || tcp > 96 {
		t.Errorf("TCP goodput %.1f, want ~94 (paper Table 1)", tcp)
	}
	if udp < 92 || udp > 97 {
		t.Errorf("UDP goodput %.1f, want ~93-96 (paper Table 1)", udp)
	}
}

func TestFigure6Linear(t *testing.T) {
	s, err := Figure6([]int{2, 4, 6, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Shape: strictly increasing, roughly constant increments (linear).
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y <= s.Points[i-1].Y {
			t.Fatalf("latency not increasing: %+v", s.Points)
		}
	}
	d0 := s.Points[1].Y - s.Points[0].Y
	for i := 2; i < len(s.Points); i++ {
		d := s.Points[i].Y - s.Points[i-1].Y
		if d > 2*d0 || d0 > 2*d {
			t.Fatalf("latency increments not linear: %+v", s.Points)
		}
	}
}

func TestFigure7Knee(t *testing.T) {
	s, err := Figure7([]float64{20, 60, 95})
	if err != nil {
		t.Fatal(err)
	}
	low, mid, over := s.Points[0], s.Points[1], s.Points[2]
	// Below saturation latency stays in the same ballpark; past the knee
	// it blows up (queueing) while achieved throughput caps near 79.
	if mid.Y > 4*low.Y {
		t.Errorf("latency not flat below saturation: %.2fms @%.0f vs %.2fms @%.0f",
			low.Y, low.X, mid.Y, mid.X)
	}
	if over.Y < 5*low.Y {
		t.Errorf("no queueing blow-up past saturation: %.2fms vs %.2fms", low.Y, over.Y)
	}
	if over.X < 70 || over.X > 86 {
		t.Errorf("achieved throughput past saturation = %.1f Mb/s, want ~79", over.X)
	}
}

// TestFigure7XSaturation guards the overhaul's headline: on the modern
// testbed model the batched zero-alloc stack must saturate at no less than
// twice the pre-overhaul 79 Mb/s ceiling recorded in
// docs/bench-history/BENCH_2026-07-27_pr3.json, with the same flat-then-blow-up shape.
func TestFigure7XSaturation(t *testing.T) {
	s, err := Figure7X([]float64{200, 800})
	if err != nil {
		t.Fatal(err)
	}
	low, over := s.Points[0], s.Points[1]
	if low.X < 190 || low.X > 210 {
		t.Errorf("below saturation achieved %.1f Mb/s for 200 offered", low.X)
	}
	if over.X < 2*79 {
		t.Errorf("saturation goodput %.1f Mb/s, want >= %.0f (2x the pre-overhaul ceiling)", over.X, 2*79.0)
	}
	if over.Y < 5*low.Y {
		t.Errorf("no queueing blow-up past saturation: %.2fms vs %.2fms", low.Y, over.Y)
	}
}

func TestFigure8Flat79(t *testing.T) {
	s, err := Figure8([]int{2, 5, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Y < 73 || p.Y > 85 {
			t.Errorf("%s: throughput %.1f Mb/s, want ~79 (paper Figure 8)", p.Label, p.Y)
		}
	}
	// Independence from n: spread bounded.
	lo, hi := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points {
		lo, hi = min(lo, p.Y), max(hi, p.Y)
	}
	if hi-lo > 8 {
		t.Errorf("throughput varies with n by %.1f Mb/s: %+v", hi-lo, s.Points)
	}
}

func TestFigure9FlatInSenders(t *testing.T) {
	s, err := Figure9([]int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points {
		if p.Y < 72 || p.Y > 86 {
			t.Errorf("%s: throughput %.1f Mb/s, want ~79 (paper Figure 9)", p.Label, p.Y)
		}
		lo, hi = min(lo, p.Y), max(hi, p.Y)
	}
	if hi-lo > 9 {
		t.Errorf("throughput varies with k by %.1f Mb/s: %+v", hi-lo, s.Points)
	}
}

func TestClassesFSRWins(t *testing.T) {
	s, err := Classes(6, 3, 80)
	if err != nil {
		t.Fatal(err)
	}
	var fsrY float64
	for _, p := range s.Points {
		if p.Label == "fsr" {
			fsrY = p.Y
		}
	}
	if fsrY < 0.9 {
		t.Fatalf("FSR round-model throughput %.3f, want ~1", fsrY)
	}
	for _, p := range s.Points {
		if p.Label != "fsr" && p.Y > fsrY*1.02 {
			t.Errorf("%s (%.3f) beats FSR (%.3f)", p.Label, p.Y, fsrY)
		}
	}
}

func TestPrivilegeTradeoffSeries(t *testing.T) {
	s, err := PrivilegeTradeoff(8, 120)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, p := range s.Points {
		byLabel[p.Label] = p.Y
	}
	if byLabel["privilege-fair(q=1)"] > 0.6 {
		t.Errorf("fair privilege should collapse: %.3f", byLabel["privilege-fair(q=1)"])
	}
	if byLabel["fsr"] < 0.95 {
		t.Errorf("FSR should stay at ~1: %.3f", byLabel["fsr"])
	}
}

func TestLatencyFormulaSeries(t *testing.T) {
	const n, tol = 6, 2
	s, err := LatencyFormula(n, tol)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Points {
		want := 2*n + tol - i - 1
		if i == 0 {
			want = n + tol - 1
		}
		if int(p.Y) != want {
			t.Errorf("L(%d) = %.0f rounds, want %d", i, p.Y, want)
		}
	}
}

func TestThrottledRunSanity(t *testing.T) {
	mbps, lat, err := throttledRun(5, 30e6, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mbps < 24 || mbps > 36 {
		t.Errorf("achieved %.1f Mb/s for 30 offered", mbps)
	}
	if lat <= 0 || lat > 500*time.Millisecond {
		t.Errorf("latency %v out of range", lat)
	}
}
