package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustRing(t *testing.T, n, tol int) *Ring {
	t.Helper()
	members := make([]ProcID, n)
	for i := range members {
		members[i] = ProcID(100 + i)
	}
	r, err := New(members, tol)
	if err != nil {
		t.Fatalf("New(n=%d,t=%d): %v", n, tol, err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := New([]ProcID{1, 2}, 2); err == nil {
		t.Error("t == n accepted")
	}
	if _, err := New([]ProcID{1, 2}, -1); err == nil {
		t.Error("negative t accepted")
	}
	if _, err := New([]ProcID{1, 2, 1}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := New([]ProcID{1}, 0); err != nil {
		t.Errorf("singleton ring rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid input")
		}
	}()
	MustNew(nil, 0)
}

func TestBasicAccessors(t *testing.T) {
	r := mustRing(t, 5, 2)
	if r.N() != 5 || r.T() != 2 {
		t.Fatalf("N=%d T=%d, want 5, 2", r.N(), r.T())
	}
	if r.Leader() != 100 {
		t.Errorf("Leader = %d, want 100", r.Leader())
	}
	if !r.Contains(103) || r.Contains(99) {
		t.Error("Contains wrong")
	}
	if p, ok := r.Position(102); !ok || p != 2 {
		t.Errorf("Position(102) = %d,%v want 2,true", p, ok)
	}
	if _, ok := r.Position(1); ok {
		t.Error("Position of non-member reported ok")
	}
	got := r.Members()
	got[0] = 9999 // must not alias internal state
	if r.Leader() != 100 {
		t.Error("Members() aliases internal slice")
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	r := mustRing(t, 4, 1)
	cases := []struct {
		id   ProcID
		succ ProcID
		pred ProcID
	}{
		{100, 101, 103},
		{101, 102, 100},
		{103, 100, 102},
	}
	for _, c := range cases {
		if s, ok := r.Successor(c.id); !ok || s != c.succ {
			t.Errorf("Successor(%d) = %d,%v want %d", c.id, s, ok, c.succ)
		}
		if p, ok := r.Predecessor(c.id); !ok || p != c.pred {
			t.Errorf("Predecessor(%d) = %d,%v want %d", c.id, p, ok, c.pred)
		}
	}
	if _, ok := r.Successor(55); ok {
		t.Error("Successor of non-member ok")
	}
	if _, ok := r.Predecessor(55); ok {
		t.Error("Predecessor of non-member ok")
	}
}

func TestAtModulo(t *testing.T) {
	r := mustRing(t, 3, 0)
	if r.At(3) != 100 || r.At(-1) != 102 || r.At(4) != 101 {
		t.Errorf("At modulo arithmetic wrong: At(3)=%d At(-1)=%d At(4)=%d",
			r.At(3), r.At(-1), r.At(4))
	}
}

func TestDistance(t *testing.T) {
	r := mustRing(t, 5, 1)
	if d := r.Distance(0, 0); d != 0 {
		t.Errorf("Distance(0,0)=%d", d)
	}
	if d := r.Distance(4, 0); d != 1 {
		t.Errorf("Distance(4,0)=%d want 1", d)
	}
	if d := r.Distance(1, 4); d != 3 {
		t.Errorf("Distance(1,4)=%d want 3", d)
	}
	if d := r.Distance(3, 2); d != 4 {
		t.Errorf("Distance(3,2)=%d want 4", d)
	}
}

func TestIsBackup(t *testing.T) {
	r := mustRing(t, 6, 2)
	want := map[int]bool{0: false, 1: true, 2: true, 3: false, 5: false}
	for j, w := range want {
		if got := r.IsBackup(j); got != w {
			t.Errorf("IsBackup(%d) = %v want %v", j, got, w)
		}
	}
}

func TestSeqStopPos(t *testing.T) {
	r := mustRing(t, 5, 1)
	// Sender at position s: pass B stops at s-1 mod n.
	for s := range 5 {
		want := (s - 1 + 5) % 5
		if got := r.SeqStopPos(s); got != want {
			t.Errorf("SeqStopPos(%d) = %d want %d", s, got, want)
		}
	}
}

// TestAckHopsPaperCases walks worked examples derived from the paper's
// Section 4.1 cases and checks both the hop budget and the
// stability flag at ack origination.
func TestAckHopsPaperCases(t *testing.T) {
	cases := []struct {
		n, tol, s  int
		hops       int
		startsStab bool
	}{
		{4, 1, 2, 3, true},  // standard sender: ack p1->p2,p3,p0
		{4, 2, 1, 5, false}, // backup sender: ack loops past pt
		{4, 1, 0, 1, true},  // leader: ack p3->p0
		{2, 1, 1, 2, false}, // minimal uniform pair
		{4, 0, 2, 2, true},  // t=0 standard sender
		{4, 0, 0, 0, true},  // t=0 leader: no ack at all
		{10, 3, 7, 6, true}, // larger ring
		{10, 3, 2, 11, false},
	}
	for _, c := range cases {
		members := make([]ProcID, c.n)
		for i := range members {
			members[i] = ProcID(i)
		}
		r := MustNew(members, c.tol)
		if got := r.AckHops(c.s); got != c.hops {
			t.Errorf("n=%d t=%d s=%d: AckHops=%d want %d", c.n, c.tol, c.s, got, c.hops)
		}
		if got := r.AckStartsStable(c.s); got != c.startsStab {
			t.Errorf("n=%d t=%d s=%d: AckStartsStable=%v want %v", c.n, c.tol, c.s, got, c.startsStab)
		}
	}
}

// TestLatencyFormula checks L(i) = 2n + t - i - 1 (and the leader case
// n + t - 1) for a sweep of ring shapes, and cross-checks it against the
// sum of the three pass lengths: pass A (n-s hops, 0 for the leader),
// pass B (distance p0 -> p(s-1)) and the ack hop budget.
func TestLatencyFormula(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for tol := 0; tol < n; tol++ {
			members := make([]ProcID, n)
			for i := range members {
				members[i] = ProcID(i * 7)
			}
			r := MustNew(members, tol)
			for s := 0; s < n; s++ {
				want := 2*n + tol - s - 1
				if s == 0 {
					want = n + tol - 1
				}
				if got := r.Latency(s); got != want {
					t.Fatalf("n=%d t=%d s=%d: Latency=%d want %d", n, tol, s, got, want)
				}
				if n == 1 {
					continue // degenerate: no passes at all
				}
				passA := 0
				if s != 0 {
					passA = r.Distance(s, 0)
				}
				passB := r.Distance(0, r.SeqStopPos(s))
				total := passA + passB + r.AckHops(s)
				if total != want {
					t.Fatalf("n=%d t=%d s=%d: passes sum %d+%d+%d=%d want %d",
						n, tol, s, passA, passB, r.AckHops(s), total, want)
				}
			}
		}
	}
}

// TestRingAlgebraQuick property-checks successor/predecessor inverses and
// distance additivity on random rings.
func TestRingAlgebraQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		members := make([]ProcID, n)
		used := map[ProcID]bool{}
		for i := range members {
			for {
				id := ProcID(rng.Intn(1000))
				if !used[id] {
					used[id] = true
					members[i] = id
					break
				}
			}
		}
		r := MustNew(members, rng.Intn(n))
		for _, id := range members {
			s, _ := r.Successor(id)
			back, _ := r.Predecessor(s)
			if back != id {
				return false
			}
		}
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		// Distance additivity modulo n.
		if (r.Distance(a, b)+r.Distance(b, c))%n != r.Distance(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
