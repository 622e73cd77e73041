package fsr

import (
	"log/slog"
	"sync"
	"testing"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// catchupRig is the catch-up unit alone: member 0 of the view {0 1 2}, a
// send that records what it would put on the wire, an applied frontier the
// row sets, a pump hand-off nobody drains, and a clock only the row moves.
type catchupRig struct {
	t       *testing.T
	cu      *catchup
	to      []ProcID
	sent    []any // decoded catch-up messages, in send order
	applied uint64
	now     time.Time
}

func newCatchupRig(t *testing.T, wlog *wal.Log) *catchupRig {
	r := &catchupRig{t: t, now: time.Unix(1000, 0)}
	p := &pump{wlog: wlog}
	p.cond = sync.NewCond(&p.mu)
	r.cu = &catchup{
		self:    0,
		timeout: time.Second,
		wlog:    wlog,
		pump:    p,
		send: func(to ProcID, payload []byte) {
			msg, err := wire.DecodeCatchup(payload)
			if err != nil {
				t.Fatal(err)
			}
			r.to = append(r.to, to)
			r.sent = append(r.sent, msg)
		},
		applied: func() uint64 { return r.applied },
		settled: func() (uint64, bool) { return 0, false },
		log:     slog.New(slog.DiscardHandler),
	}
	return r
}

func (r *catchupRig) view() core.View {
	rg, err := ring.New([]ProcID{0, 1, 2}, 1)
	if err != nil {
		r.t.Fatal(err)
	}
	return core.View{ID: 2, Ring: rg}
}

// start installs a view whose sync base passed this member's cursor, so
// the seqs up to target are a hole to fetch.
func (r *catchupRig) start(target uint64) {
	r.cu.refresh(r.view(), &core.Sync{StartSeq: target + 1}, r.applied+1, r.now)
}

// lastReq returns the newest request sent and its addressee.
func (r *catchupRig) lastReq() (ProcID, *wire.CatchupReq) {
	r.t.Helper()
	if len(r.sent) == 0 {
		r.t.Fatal("no request sent")
	}
	req, ok := r.sent[len(r.sent)-1].(*wire.CatchupReq)
	if !ok {
		r.t.Fatalf("last send is %T, want a request", r.sent[len(r.sent)-1])
	}
	return r.to[len(r.to)-1], req
}

// expectSends fails unless exactly n messages have gone out so far.
func (r *catchupRig) expectSends(n int) {
	r.t.Helper()
	if len(r.sent) != n {
		r.t.Fatalf("%d sends, want %d", len(r.sent), n)
	}
}

// expectFinished checks that the transfer is over and the live stream
// released (finished), or that both are still on (!finished).
func (r *catchupRig) expectFinished(finished bool) {
	r.t.Helper()
	if r.cu.inFlight() == finished {
		r.t.Fatalf("transfer in flight = %v, want %v", r.cu.inFlight(), !finished)
	}
	r.cu.pump.mu.Lock()
	held := r.cu.pump.held
	r.cu.pump.mu.Unlock()
	if held == finished {
		r.t.Fatalf("live stream held = %v, want %v", held, !finished)
	}
}

// drain stands in for the pump applying everything handed over.
func (r *catchupRig) drain() {
	r.cu.pump.mu.Lock()
	r.cu.pump.recovered = nil
	r.cu.pump.mu.Unlock()
}

func entries(seqs ...uint64) []wire.ClientEventEntry {
	out := make([]wire.ClientEventEntry, len(seqs))
	for i, s := range seqs {
		out[i] = wire.ClientEventEntry{Seq: s, Origin: 1, Logical: s, Payload: []byte{byte(s)}}
	}
	return out
}

// TestCatchupUnit drives the KindCatchup client and server without a
// cluster or a transport, on a clock the test moves by hand.
func TestCatchupUnit(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, r *catchupRig)
	}{
		{"response from another peer is ignored", func(t *testing.T, r *catchupRig) {
			r.start(10)
			if to, req := r.lastReq(); to != 1 || req.After != 0 || req.UpTo != 10 {
				t.Fatalf("first request to %d %+v, want peer 1 for (0, 10]", to, req)
			}
			r.cu.receive(2, &wire.CatchupResp{UpTo: 10, Ceiling: 10, Entries: entries(1, 2, 3)}, r.now)
			r.expectSends(1)
			r.expectFinished(false)
			if n := r.cu.pump.backlog(); n != 0 {
				t.Fatalf("a stale page handed %d messages to the pump", n)
			}
		}},
		{"unavailable from every peer finishes with the gap", func(t *testing.T, r *catchupRig) {
			r.start(10)
			r.cu.receive(1, &wire.CatchupResp{Unavailable: true}, r.now)
			if to, _ := r.lastReq(); to != 2 {
				t.Fatalf("after peer 1 refused, asked %d, want 2", to)
			}
			r.expectFinished(false)
			r.cu.receive(2, &wire.CatchupResp{Unavailable: true}, r.now)
			r.expectSends(2)
			r.expectFinished(true)
			if r.cu.pump.catchingUp() {
				t.Fatal("still catching up after a transfer that handed nothing over")
			}
		}},
		{"more pauses at the backlog bound and the tick after the drain resumes", func(t *testing.T, r *catchupRig) {
			r.start(1000)
			r.cu.pump.recover(make([]catchItem, catchupMaxBacklog))
			r.cu.receive(1, &wire.CatchupResp{UpTo: 1000, Ceiling: 1000, More: true, Entries: entries(1, 2, 3)}, r.now)
			r.expectSends(1) // backpressure: no next page yet
			r.now = r.now.Add(time.Second)
			r.cu.tick(r.now)
			r.expectSends(1) // still backlogged
			r.drain()
			r.now = r.now.Add(time.Second / 2)
			r.cu.tick(r.now)
			if _, req := r.lastReq(); req.After != 3 || req.UpTo != 1000 {
				t.Fatalf("resumed with %+v, want (3, 1000]", req)
			}
			r.expectFinished(false)
		}},
		{"authoritative page covering the target finishes over dead seqs", func(t *testing.T, r *catchupRig) {
			r.start(10)
			r.cu.receive(1, &wire.CatchupResp{UpTo: 10, Ceiling: 10, Entries: entries(3, 7)}, r.now)
			r.expectSends(1)
			r.expectFinished(true)
			// Finished fetching, not finished catching up: the pump still
			// holds what the transfer handed over.
			if !r.cu.pump.catchingUp() {
				t.Fatal("caught up before the pump applied the transferred history")
			}
			r.drain()
			if r.cu.pump.catchingUp() {
				t.Fatal("still catching up after the pump applied everything")
			}
		}},
		{"a page answering an earlier shorter request does not finish", func(t *testing.T, r *catchupRig) {
			r.start(10)
			r.cu.extend(20, r.view(), r.now)
			if _, req := r.lastReq(); req.UpTo != 20 {
				t.Fatalf("extended request %+v, want UpTo 20", req)
			}
			r.cu.receive(1, &wire.CatchupResp{UpTo: 10, Ceiling: 20, Entries: entries(1, 2)}, r.now)
			r.expectSends(2)
			r.expectFinished(false)
		}},
		{"a tick after the change timeout rotates to the next peer", func(t *testing.T, r *catchupRig) {
			r.start(10)
			r.cu.tick(r.now.Add(time.Second - time.Nanosecond))
			r.expectSends(1)
			r.cu.tick(r.now.Add(time.Second))
			if to, req := r.lastReq(); to != 2 || req.After != 0 {
				t.Fatalf("retry to %d %+v, want peer 2 from 0", to, req)
			}
		}},
		{"server hands a requester below the snapshot the snapshot then entries, anyone else entries only", func(t *testing.T, r *catchupRig) {
			wlog := r.cu.wlog
			for s := uint64(1); s <= 10; s++ {
				if err := wlog.Append(wal.Entry{Seq: s, Origin: 1, LogicalID: s, Payload: []byte{byte(s)}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := wlog.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := wlog.WriteSnapshot(5, []byte("state@5")); err != nil {
				t.Fatal(err)
			}
			r.applied = 10
			ask := func(after uint64) (*wire.CatchupResp, []uint64) {
				t.Helper()
				if err := r.cu.serve(7, &wire.CatchupReq{After: after, UpTo: 10}); err != nil {
					t.Fatal(err)
				}
				resp, ok := r.sent[len(r.sent)-1].(*wire.CatchupResp)
				if !ok || r.to[len(r.to)-1] != 7 {
					t.Fatalf("answered %v with %T", r.to, r.sent[len(r.sent)-1])
				}
				var seqs []uint64
				for _, e := range resp.Entries {
					seqs = append(seqs, e.Seq)
				}
				return resp, seqs
			}
			below, seqs := ask(2)
			if !below.HasSnapshot || below.SnapSeq != 5 || string(below.Snapshot) != "state@5" {
				t.Fatalf("requester below the snapshot got snapshot=%v at %d", below.HasSnapshot, below.SnapSeq)
			}
			if len(seqs) != 5 || seqs[0] != 6 || seqs[4] != 10 {
				t.Fatalf("entries after the snapshot = %v, want 6..10", seqs)
			}
			above, seqs := ask(7)
			if above.HasSnapshot {
				t.Fatal("requester above the snapshot was handed the snapshot")
			}
			if len(seqs) != 3 || seqs[0] != 8 || seqs[2] != 10 {
				t.Fatalf("entries = %v, want 8..10", seqs)
			}
			// The ceiling vouches for the engine's cursor only while nothing
			// is queued, mid-persist or buffered in the engine.
			if above.Ceiling != 10 || above.UpTo != 10 || above.More {
				t.Fatalf("ceiling %d upTo %d more %v, want 10 10 false", above.Ceiling, above.UpTo, above.More)
			}
			r.cu.settled = func() (uint64, bool) { return 12, true }
			if c := r.cu.ceiling(); c != 12 {
				t.Fatalf("drained and settled ceiling = %d, want the engine's cursor 12", c)
			}
			r.cu.pump.recover([]catchItem{{msg: Message{Seq: 11}}})
			if c := r.cu.ceiling(); c != 10 {
				t.Fatalf("ceiling with history queued = %d, want applied 10", c)
			}
		}},
		{"server without a WAL answers unavailable", func(t *testing.T, r *catchupRig) {
			r.cu.wlog = nil
			if err := r.cu.serve(5, &wire.CatchupReq{After: 0, UpTo: 10}); err != nil {
				t.Fatal(err)
			}
			if resp, ok := r.sent[0].(*wire.CatchupResp); !ok || !resp.Unavailable || r.to[0] != 5 {
				t.Fatalf("answered %d with %+v, want Unavailable", r.to[0], r.sent[0])
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			wlog, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = wlog.Close() })
			row.run(t, newCatchupRig(t, wlog))
		})
	}
}
