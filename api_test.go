package fsr_test

import (
	"context"
	"iter"
	"testing"
	"time"

	"fsr"
)

// TestSubscribeMultipleSubscribers: every in-process subscription sees
// every message, independently of the others.
func TestSubscribeMultipleSubscribers(t *testing.T) {
	c := newCluster(t, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	a := c.Node(1).Session().Subscribe(ctx, 1)
	b := c.Node(1).Session().Subscribe(ctx, 1)
	if _, err := c.Node(0).Session().Publish(ctx, []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []iter.Seq2[fsr.Offset, fsr.Message]{a, b} {
		if got := take(t, c.Node(1), stream, 1); string(got[0].Payload) != "fanout" {
			t.Fatalf("subscriber got %q", got[0].Payload)
		}
	}
}

// TestSubscriberSeesEndOfBurst: a subscriber idling at the frontier — in
// process or remote, paging or attached to the tail — gets the last
// message of a burst at once, not at the next commit or the one-second
// keepalive. (The waiters used to sample the frontier before taking the
// wake-up channel; a batch committed in between was slept through.)
func TestSubscriberSeesEndOfBurst(t *testing.T) {
	c := newCluster(t, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	remote, err := c.Dial(fsr.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	seen := map[string]chan fsr.Offset{}
	for name, stream := range map[string]iter.Seq2[fsr.Offset, fsr.Message]{
		"in-process": c.Node(1).Session().Subscribe(ctx, 1),
		"remote":     remote.Subscribe(ctx, 1),
	} {
		ch := make(chan fsr.Offset, 4096) // holds the whole run: the reader never blocks
		seen[name] = ch
		go func() {
			for off := range stream {
				ch <- off
			}
		}()
	}
	for i := range 200 {
		var last *fsr.Receipt
		for range 4 {
			if last, err = c.Node(i%3).Session().Publish(ctx, []byte("burst")); err != nil {
				t.Fatal(err)
			}
		}
		if err := last.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		for name, ch := range seen {
			deadline := time.After(500 * time.Millisecond)
			for off := fsr.Offset(0); off < last.Seq(); {
				select {
				case off = <-ch:
				case <-deadline:
					t.Fatalf("burst %d: %s subscriber still at offset %d, want %d", i, name, off, last.Seq())
				}
			}
		}
	}
}

// TestWaitViewDoesNotStealViews: WaitView and an application consumer of
// Views observe the same view change — WaitView no longer drains the
// channel out from under the application.
func TestWaitViewDoesNotStealViews(t *testing.T) {
	c := newCluster(t, 4, 1)
	seen := make(chan fsr.ViewInfo, 64)
	go func() {
		for v := range c.Node(0).Views() {
			seen <- v
		}
	}()
	c.Crash(3)
	if _, ok := c.WaitView(0, 3, 10*time.Second); !ok {
		t.Fatal("WaitView never observed the 3-member view")
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case v := <-seen:
			if len(v.Members) == 3 {
				return // the application consumer saw it too
			}
		case <-deadline:
			t.Fatal("application Views consumer never saw the 3-member view")
		}
	}
}

// TestCurrentViewTracksInstall: CurrentView starts at the initial view and
// follows view changes without consuming Views.
func TestCurrentViewTracksInstall(t *testing.T) {
	c := newCluster(t, 3, 2)
	v := c.Node(1).CurrentView()
	if len(v.Members) != 3 || v.ID != 1 {
		t.Fatalf("initial view: %+v", v)
	}
	c.Crash(2)
	if _, ok := c.WaitView(1, 2, 10*time.Second); !ok {
		t.Fatal("post-crash view never installed")
	}
	v = c.Node(1).CurrentView()
	if len(v.Members) != 2 || v.ID <= 1 {
		t.Fatalf("post-crash view: %+v", v)
	}
}

// TestRequestAcceptedBooleans: Join/Leave/RotateLeader report whether the
// event loop accepted the request — true on a live node with an empty
// request slot, false once the node has halted (the loop will never
// process the request, so pretending acceptance would strand the caller).
func TestRequestAcceptedBooleans(t *testing.T) {
	c := newCluster(t, 3, 1)
	live := c.Node(0)
	if !live.RotateLeader() {
		t.Error("live RotateLeader not accepted")
	}
	n := c.Node(2)
	n.Stop()
	if n.RotateLeader() {
		t.Error("RotateLeader accepted on stopped node")
	}
	if n.Leave() {
		t.Error("Leave accepted on stopped node")
	}
	if n.Join(c.IDs()) {
		t.Error("Join accepted on stopped node")
	}
}
