package fsr_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"fsr"
	"fsr/internal/sim"
	"fsr/transport"
)

// The lockstep schedule: three ephemeral members, lsPublishes publishes
// spread over them round robin every lsSpacing, member lsCrashed crashing at
// lsCrashAt while they still flow, and the run ending at lsEnd.
const (
	lsMembers   = 3
	lsPublishes = 300
	lsSpacing   = 2 * time.Millisecond
	lsCrashed   = 2
	lsCrashAt   = 400 * time.Millisecond
	lsEnd       = 3 * time.Second
	lsLatency   = 50 * time.Microsecond
)

// lsWorld runs every member's core and pump on one goroutine over a FIFO
// queue transport, with internal/sim's virtual clock: one schedule, so one
// outcome.
type lsWorld struct {
	t       *testing.T
	loop    sim.Loop
	base    time.Time
	nodes   [lsMembers]*fsr.Node
	down    [lsMembers]bool
	trace   [lsMembers]hash.Hash64 // views, applied entries and sends, in order
	applied [lsMembers][]string
	view    [lsMembers]uint64
	queue   [lsMembers][]string // publishes waiting for the gate
	retry   [lsMembers]bool
}

// lsEndpoint is a member's transport: a send is one delivery event on the
// virtual clock, lsLatency later, so each link is FIFO.
type lsEndpoint struct {
	w    *lsWorld
	self fsr.ProcID
}

func (e lsEndpoint) Self() transport.ProcID       { return e.self }
func (e lsEndpoint) SetHandler(transport.Handler) {} // the world delivers through StepPayload
func (e lsEndpoint) Close() error                 { return nil }

func (e lsEndpoint) Send(to transport.ProcID, payload []byte) error {
	w, from := e.w, int(e.self)
	if int(to) >= lsMembers {
		return transport.ErrUnknownPeer
	}
	h := w.trace[from]
	fmt.Fprintf(h, "send %d %d:", to, len(payload))
	h.Write(payload)
	p := bytes.Clone(payload)
	w.loop.After(lsLatency, func() {
		if !w.down[from] {
			w.step(int(to), func(n *fsr.Node, now time.Time) { n.StepPayload(now, e.self, p) })
		}
	})
	return nil
}

func (e lsEndpoint) SendBatch(to transport.ProcID, payloads [][]byte) error {
	for _, p := range payloads {
		if err := e.Send(to, p); err != nil {
			return err
		}
	}
	return nil
}

// lsSM records member i's applied entries into its trace.
type lsSM struct {
	w *lsWorld
	i int
}

func (s lsSM) Apply(m fsr.Message) {
	var ph [8]byte
	binary.LittleEndian.PutUint64(ph[:], fnvSum(m.Payload))
	fmt.Fprintf(s.w.trace[s.i], "apply %d %d %d %x\n", m.Seq, m.Origin, m.LogicalID, ph)
	s.w.applied[s.i] = append(s.w.applied[s.i], fmt.Sprintf("%d/%d/%s", m.Seq, m.Origin, m.Payload))
}
func (lsSM) Snapshot() ([]byte, error) { return nil, nil }
func (lsSM) Restore([]byte) error      { return nil }

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (w *lsWorld) now() time.Time { return w.base.Add(w.loop.Now()) }

// step runs one input through member i's core, then what the loop does
// after a drain: flush until no frame goes out, and the pump until idle.
func (w *lsWorld) step(i int, in func(n *fsr.Node, now time.Time)) {
	if w.down[i] {
		return // a crashed member's queues are dropped
	}
	n, now := w.nodes[i], w.now()
	in(n, now)
	for n.StepFlush(now) {
	}
	for {
		idle, err := n.StepPump()
		if err != nil {
			w.t.Fatalf("member %d pump: %v", i, err)
		}
		if idle {
			break
		}
	}
	if err := n.Err(); err != nil {
		w.t.Fatalf("member %d failed: %v", i, err)
	}
	if v := n.CurrentView(); v.ID != w.view[i] {
		w.view[i] = v.ID
		fmt.Fprintf(w.trace[i], "view %d %v\n", v.ID, v.Members)
	}
}

// publish hands member i's waiting publishes to its core while the gate is
// open, and retries a millisecond later while it is shut.
func (w *lsWorld) publish(i int) {
	for len(w.queue[i]) > 0 && !w.down[i] {
		var taken bool
		w.step(i, func(n *fsr.Node, now time.Time) {
			var err error
			if taken, err = n.StepPublish(now, []byte(w.queue[i][0])); err != nil {
				w.t.Fatalf("member %d publish: %v", i, err)
			}
		})
		if !taken {
			if !w.retry[i] {
				w.retry[i] = true
				w.loop.After(time.Millisecond, func() { w.retry[i] = false; w.publish(i) })
			}
			return
		}
		w.queue[i] = w.queue[i][1:]
	}
}

// runLockstep runs the schedule once and returns each member's trace hash.
func runLockstep(t *testing.T) [lsMembers]uint64 {
	w := &lsWorld{t: t, base: time.Unix(1_700_000_000, 0)}
	ids := []fsr.ProcID{0, 1, 2}
	cfg := fastConfig()
	cfg.Members = ids
	for i := range w.nodes {
		w.trace[i] = fnv.New64a()
		c := cfg
		c.Self = fsr.ProcID(i)
		c.StateMachine = lsSM{w, i}
		n, err := fsr.NewSteppedNode(c, lsEndpoint{w, fsr.ProcID(i)}, w.base)
		if err != nil {
			t.Fatal(err)
		}
		w.nodes[i] = n
		t.Cleanup(n.Stop)
		var tick func()
		tick = func() {
			w.step(i, (*fsr.Node).StepTick)
			w.loop.After(cfg.HeartbeatInterval/2, tick)
		}
		w.loop.After(cfg.HeartbeatInterval/2, tick)
	}
	var want []string // survivors' publishes: every one must be applied
	for j := range lsPublishes {
		i := j % lsMembers
		payload := fmt.Sprintf("m%d-p%d", i, j)
		if i != lsCrashed {
			want = append(want, payload)
		}
		w.loop.At(time.Duration(j)*lsSpacing, func() {
			w.queue[i] = append(w.queue[i], payload)
			w.publish(i)
		})
	}
	w.loop.At(lsCrashAt, func() { w.down[lsCrashed] = true })
	w.loop.Run(lsEnd)

	for i := range lsMembers {
		if i == lsCrashed {
			continue
		}
		if v := w.nodes[i].CurrentView(); !slices.Equal(v.Members, []fsr.ProcID{0, 1}) {
			t.Fatalf("member %d ended in view %d%v, want [0 1]", i, v.ID, v.Members)
		}
	}
	ref := w.applied[0]
	if !slices.Equal(w.applied[1], ref) {
		t.Fatalf("survivors applied different orders: %d and %d entries", len(ref), len(w.applied[1]))
	}
	if crashed := w.applied[lsCrashed]; !slices.Equal(crashed, ref[:min(len(crashed), len(ref))]) || len(crashed) > len(ref) {
		t.Fatalf("crashed member's %d entries are not a prefix of the survivors' order", len(crashed))
	}
	got := map[string]int{}
	for _, e := range ref {
		var seq, origin int
		var payload string
		fmt.Sscanf(e, "%d/%d/%s", &seq, &origin, &payload)
		got[payload]++
	}
	for _, p := range want {
		if got[p] != 1 {
			t.Fatalf("publish %s applied %d times", p, got[p])
		}
	}
	var sums [lsMembers]uint64
	for i := range sums {
		sums[i] = w.trace[i].Sum64()
	}
	return sums
}

// TestLockstepReplay steps three members on one goroutine through the same
// schedule twice: publishes, then a crash the survivors recover from. A
// member's step is a function of its inputs, so each member's trace —
// views, applied entries and sends, in order — hashes the same both times.
// A clock read or a map-order walk on the member's path shows up here as a
// differing hash.
func TestLockstepReplay(t *testing.T) {
	first := runLockstep(t)
	second := runLockstep(t)
	if first != second {
		t.Fatalf("member traces differ between two runs of one schedule:\n%x\n%x", first, second)
	}
}
