package main

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// stubReceipt is a receipt the test sink resolves itself.
type stubReceipt struct {
	done chan struct{}
	seq  uint64
}

func (r *stubReceipt) Delivered() <-chan struct{} { return r.done }
func (r *stubReceipt) Err() error                 { return nil }
func (r *stubReceipt) Seq() uint64                { return r.seq }

// TestOpenLoopChargesLatencyFromDueTime is the coordinated-omission test: a
// sink that stalls once for 50 ms delays every message scheduled during the
// stall. Timed from when each was sent, only the one that hit the stall
// would look slow; timed from when each was due, all of them do.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const (
		rate    = 2000
		stall   = 50 * time.Millisecond
		stallAt = 100
	)
	e := &env{wl: workload{rate: rate, window: 256, payload: 64}, base: time.Now(), payload: make([]byte, 64)}
	win := windows{startNs: e.now(), widthNs: int64(60 * time.Millisecond), n: numWindows}
	p := newPublisher(e, win, nil)
	calls := uint64(0)
	p.publish = func(context.Context, []byte) (receipt, error) {
		calls++
		if calls == stallAt {
			time.Sleep(stall) // the system under test stops accepting for a while
		}
		r := &stubReceipt{done: make(chan struct{}), seq: calls}
		close(r.done)
		return r, nil
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.run(context.Background(), win.startNs) }()
	go func() { defer wg.Done(); p.drain() }()
	wg.Wait()

	want := int64(rate * numWindows * 60 / 1000)
	if got, _ := p.acks.total(); got < want-2 || got > want {
		t.Fatalf("committed %d messages, want the %d the schedule offers: a stall must not thin the load", got, want)
	}
	var lat []int64
	for _, l := range p.acks.lat {
		lat = append(lat, l...)
	}
	slices.Sort(lat)
	// The stall holds back rate × stall = 100 messages; their waits fall
	// evenly from 50 ms to 0, so about 60 of them waited over 20 ms.
	slow := 0
	for _, ns := range lat {
		if ns > int64(20*time.Millisecond) {
			slow++
		}
	}
	if slow < 40 {
		t.Errorf("%d messages took over 20 ms; want about 60 — latency is not charged from due time", slow)
	}
	if max := lat[len(lat)-1]; max < int64(stall)*9/10 {
		t.Errorf("slowest message took %v, want about %v", time.Duration(max), stall)
	}
	slices.Sort(p.lateNs)
	if late := percentileMs(p.lateNs, 0.99); late < 20 {
		t.Errorf("generator lateness p99 = %.1f ms; the stall must show there too", late)
	}
	if p.unresolved+p.ackErrors+p.pubErrors+int64(p.receipts.regressions) != 0 {
		t.Errorf("failures on a sink that never fails: %+v", p)
	}
}

// The pacer must hold a reader to its rate without drifting, let a reader
// that fell behind catch up, and leave a rate of 0 alone.
func TestPacerHoldsTheRate(t *testing.T) {
	p := pacer{rate: 100000}
	now := int64(5e9)
	var slept time.Duration
	for range 10 * paceChunk { // a reader that takes no time of its own
		d := p.wait(now)
		now += int64(d)
		slept += d
	}
	// The schedule starts at the first message: 2560 messages are due 25.6 ms
	// after it.
	if want := 10 * paceChunk * time.Second / 100000; slept != want {
		t.Errorf("slept %v over %d messages at 100000/s, want %v", slept, 10*paceChunk, want)
	}
	now += int64(time.Second) // a stall: the next chunks are overdue
	for range paceChunk {
		if d := p.wait(now); d != 0 {
			t.Fatalf("slept %v while behind schedule", d)
		}
	}
	free := pacer{}
	for range 3 * paceChunk {
		if d := free.wait(now); d != 0 {
			t.Fatalf("rate 0 slept %v", d)
		}
	}
}
