package fd

import (
	"slices"
	"sync"
	"testing"
	"time"

	"fsr/internal/ring"
)

type recorder struct {
	mu        sync.Mutex
	sent      map[ring.ProcID]int
	suspected []ring.ProcID
}

func newRecorder() *recorder {
	return &recorder{sent: map[ring.ProcID]int{}}
}

func (r *recorder) send(to ring.ProcID, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent[to]++
}

func (r *recorder) suspect(p ring.ProcID, _ time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suspected = append(r.suspected, p)
}

func newDetector(t *testing.T, rec *recorder) *Detector {
	t.Helper()
	d, err := New(Config{
		Self:     0,
		Interval: 10 * time.Millisecond,
		Timeout:  35 * time.Millisecond,
		Send:     rec.send,
		Suspect:  rec.suspect,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	rec := newRecorder()
	if _, err := New(Config{Interval: 10, Timeout: 5, Send: rec.send, Suspect: rec.suspect}); err == nil {
		t.Error("timeout <= interval accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("missing callbacks accepted")
	}
	if _, err := New(Config{Timeout: 5, Send: rec.send, Suspect: rec.suspect}); err == nil {
		t.Error("zero interval accepted") // the node supplies both; fd has no defaults
	}
}

func TestHeartbeatsEmitted(t *testing.T) {
	rec := newRecorder()
	d := newDetector(t, rec)
	t0 := time.Unix(0, 0)
	d.SetPeers([]ring.ProcID{1, 2, 0}, t0) // self filtered out
	d.Tick(t0)
	d.Tick(t0.Add(time.Millisecond)) // below interval: no second beat
	d.Tick(t0.Add(12 * time.Millisecond))
	if rec.sent[1] != 2 || rec.sent[2] != 2 {
		t.Errorf("beats = %v, want 2 each", rec.sent)
	}
	if rec.sent[0] != 0 {
		t.Error("heartbeat sent to self")
	}
}

func TestSilentPeerSuspected(t *testing.T) {
	rec := newRecorder()
	d := newDetector(t, rec)
	t0 := time.Unix(100, 0)
	d.SetPeers([]ring.ProcID{1, 2}, t0)
	// Peer 1 keeps beating, peer 2 goes silent.
	for ms := 0; ms <= 60; ms += 5 {
		now := t0.Add(time.Duration(ms) * time.Millisecond)
		d.HandleHeartbeat(1, now)
		d.Tick(now)
	}
	if d.Suspected(1) {
		t.Error("live peer suspected (accuracy violated)")
	}
	if !d.Suspected(2) {
		t.Error("silent peer not suspected (completeness violated)")
	}
	if len(rec.suspected) != 1 || rec.suspected[0] != 2 {
		t.Errorf("suspect callbacks: %v", rec.suspected)
	}
}

func TestSuspicionIsPermanent(t *testing.T) {
	rec := newRecorder()
	d := newDetector(t, rec)
	t0 := time.Unix(0, 0)
	d.SetPeers([]ring.ProcID{1}, t0)
	d.Tick(t0.Add(50 * time.Millisecond))
	if !d.Suspected(1) {
		t.Fatal("not suspected")
	}
	// A late heartbeat must not resurrect it, and no duplicate callback.
	d.HandleHeartbeat(1, t0.Add(51*time.Millisecond))
	d.Tick(t0.Add(100 * time.Millisecond))
	if !d.Suspected(1) {
		t.Error("suspicion revised")
	}
	if len(rec.suspected) != 1 {
		t.Errorf("suspect callback fired %d times", len(rec.suspected))
	}
}

func TestSetPeersResetsGrace(t *testing.T) {
	rec := newRecorder()
	d := newDetector(t, rec)
	t0 := time.Unix(0, 0)
	d.SetPeers([]ring.ProcID{1}, t0)
	d.HandleHeartbeat(1, t0.Add(5*time.Millisecond))
	// New view adds peer 3 at t=30; it must not be instantly timed out.
	d.SetPeers([]ring.ProcID{1, 3}, t0.Add(30*time.Millisecond))
	d.Tick(t0.Add(40 * time.Millisecond))
	if d.Suspected(3) {
		t.Error("fresh peer suspected without a grace period")
	}
	// But existing silence history carries over for peer 1.
	d.Tick(t0.Add(45 * time.Millisecond))
	if !d.Suspected(1) {
		t.Error("stale peer not suspected after SetPeers")
	}
}

func TestHeartbeatFromUnmonitoredIgnored(t *testing.T) {
	rec := newRecorder()
	d := newDetector(t, rec)
	t0 := time.Unix(0, 0)
	d.SetPeers([]ring.ProcID{1}, t0)
	d.HandleHeartbeat(99, t0) // must not start monitoring 99
	d.Tick(t0.Add(time.Hour))
	for _, s := range rec.suspected {
		if s == 99 {
			t.Error("unmonitored peer suspected")
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	payload := Encode(1234)
	got, err := Decode(payload)
	if err != nil || got != 1234 {
		t.Fatalf("Decode = %d, %v", got, err)
	}
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	payload[0] = 0x7F
	if _, err := Decode(payload); err == nil {
		t.Error("wrong kind accepted")
	}
}

// TestTickWalksPeersInSetPeersOrder: heartbeats and suspicions leave in the
// order SetPeers was given, never in map order, so a member's sends are a
// function of its inputs.
func TestTickWalksPeersInSetPeersOrder(t *testing.T) {
	var beats, suspects []ring.ProcID
	d, err := New(Config{
		Self: 0, Interval: 10 * time.Millisecond, Timeout: 35 * time.Millisecond,
		Send:    func(to ring.ProcID, _ []byte) { beats = append(beats, to) },
		Suspect: func(p ring.ProcID, _ time.Time) { suspects = append(suspects, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	order := []ring.ProcID{7, 3, 9, 1, 5, 8, 2, 6, 4}
	t0 := time.Unix(0, 0)
	d.SetPeers(order, t0)
	d.Tick(t0)
	d.Tick(t0.Add(time.Second))
	want := append(slices.Clone(order), order...)
	if !slices.Equal(beats, want) {
		t.Errorf("heartbeats went to %v, want %v", beats, want)
	}
	if !slices.Equal(suspects, order) {
		t.Errorf("suspected %v, want %v", suspects, order)
	}
}
