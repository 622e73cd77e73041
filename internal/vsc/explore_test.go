package vsc

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
)

// Explorer v0: a bounded depth-first search over the view-change protocol
// of three or four Managers, with state hashing. It checks the protocol
// itself, with no node, engine or transport in the way, and needs no hook
// in the Manager: each Manager's Send feeds a FIFO queue per directed link,
// and Install and Evicted are recorded.
//
// Choices at every state:
//   - deliver the head of any non-empty link;
//   - OnSuspect(p) at q, true or false, wherever q's failure detector would
//     report it: q missed p's heartbeat at the last clock step and p sends
//     it none now, because p is down, is a joiner not yet admitted, or has
//     installed a view that leaves q out;
//   - OnSuspect(p) at q while p still heartbeats q, under a budget: a
//     detector that is wrong about a live peer, as an overloaded host or a
//     cut longer than a detector timeout makes it;
//   - crash a member: its queues, in and out, are lost;
//   - restart a down (crashed or evicted) member as a fresh Joiner Manager
//     with a higher incarnation, which calls RequestJoin (its Tick repeats
//     the request every ChangeTimeout until admitted);
//   - cut one directed link: what is queued on it is lost and so is what is
//     sent on it until the next clock step, which heals it;
//   - once every link is empty, advance the logical clock by half a
//     ChangeTimeout: exchange heartbeats (a cut one is lost), heal every cut
//     and Tick every live member.
//
// So a message that is not lost arrives within a clock step, a detector
// times out after one step of silence, and a new peer gets one step of
// grace, as fd.Detector.SetPeers gives it.
//
// A state's hash covers every Manager field (times relative to the clock),
// the link queues, cuts and heartbeats, the remaining budgets and the
// epoch→members install record. A state is expanded again only if it is
// reached with more depth left than before.
//
// Properties:
//   - view agreement, at every state: no epoch is ever installed with two
//     memberships;
//   - no wedge, at the end of each branch: heal every link, restart the
//     crashed members, then run fair delivery, every suspicion the
//     detectors would raise, and ticks for up to settleSteps clock steps.
//     Every live member must end in the newest view, or have halted.
//
// The bounds are the start states, depths and budgets of exploreCases;
// FSR_EXPLORE_DEPTH adds to every depth for a deeper pass (see
// TestExploreViewChanges). The exactly-half rule's stated residual is
// outside them: an even split whose halves both falsely suspect each other
// takes three false suspicions at n = 3 and four at n = 4, more than any
// case's budget, and cuts that outlast both waits, while a cut here heals
// before a detector times out.

// exploreCase is one bounded search: a start state and its budgets.
type exploreCase struct {
	name string
	// order is the start view in ring order; down lists IDs that start
	// crashed (restartable). IDs run from 0 to n-1.
	order []ring.ProcID
	down  []ring.ProcID
	n     int
	// depth bounds the moves on one branch; the rest are fault budgets,
	// falses for suspicions of a peer that still heartbeats.
	depth, crashes, restarts, cuts, falses int
}

// settleSteps bounds the fair run that checks a branch for a wedge.
const settleSteps = 16

const exTimeout = 100 * time.Millisecond

var exEpoch = time.Unix(1000, 0)

type exMember struct {
	m      *Manager // nil while crashed
	inc    uint64
	halted bool // evicted: fail-stopped until restarted
	// peers is the membership the detector watches: the installed view's,
	// nil before the first install.
	peers []ring.ProcID
}

func (x *exMember) live() bool { return x.m != nil && !x.halted }

type exMove struct {
	kind byte // 'd' deliver a→b, 's' a suspects b, 'f' a falsely suspects b, 'c' crash a, 'r' restart a, 'x' cut a→b, 't' clock
	a, b int
}

// exWorld is one explored state.
type exWorld struct {
	n   int
	mem []exMember
	// owned marks the Managers this world has its own copy of; a clone
	// shares the rest with its parent until a move touches them.
	owned []bool
	links [][][]byte // n*n FIFO queues, index from*n+to
	cut   []bool
	// heard[p*n+q] records whether q had p's heartbeat at the last clock
	// step.
	heard []bool
	clock int
	// Remaining fault budgets.
	crashes, restarts, cuts, falses int
	installs                        map[uint64][]ring.ProcID
	fork                            string
	// dropFence withholds every Fence payload: the explorer's own switch
	// for the stale-view fence, with nothing in the Manager.
	dropFence bool
}

func (w *exWorld) now() time.Time {
	return exEpoch.Add(time.Duration(w.clock) * exTimeout / 2)
}

func (w *exWorld) callbacks(i int) Callbacks {
	return Callbacks{
		Send:     func(to ring.ProcID, p []byte) { w.send(i, int(to), p) },
		Snapshot: func() core.RecoveryState { return core.RecoveryState{NextDeliver: 1} },
		Install: func(v core.View, _ *core.Sync, _ []core.PendingMsg, _ time.Time) {
			members := v.Ring.Members()
			if prev, ok := w.installs[v.ID]; ok && !slices.Equal(prev, members) {
				if w.fork == "" {
					w.fork = fmt.Sprintf("epoch %d installed as %v and as %v (by %d)", v.ID, prev, members, i)
				}
				return
			}
			w.installs[v.ID] = members
			// A node re-points its detector at the new view, and a peer new to
			// it gets a full timeout of grace (fd.Detector.SetPeers).
			for _, p := range members {
				if !slices.Contains(w.mem[i].peers, p) {
					w.heard[int(p)*w.n+i] = true
				}
			}
			w.mem[i].peers = members
		},
		Evicted: func() { w.mem[i].halted = true },
	}
}

func (w *exWorld) send(from, to int, p []byte) {
	if to < 0 || to >= w.n || !w.mem[to].live() || w.cut[from*w.n+to] {
		return
	}
	if w.dropFence && len(p) > 1 && p[1] == msgFence {
		return
	}
	w.links[from*w.n+to] = append(w.links[from*w.n+to], p)
}

func newManagerFor(w *exWorld, i int, v core.View, joiner bool, inc uint64) *Manager {
	m, err := NewManager(Config{
		Self: ring.ProcID(i), T: 1, ChangeTimeout: exTimeout,
		Joiner: joiner, Incarnation: inc, Callbacks: w.callbacks(i),
	}, v)
	if err != nil {
		panic(err)
	}
	return m
}

func newWorld(c exploreCase, dropFence bool) *exWorld {
	w := &exWorld{
		n: c.n, mem: make([]exMember, c.n), owned: make([]bool, c.n), links: make([][][]byte, c.n*c.n),
		cut: make([]bool, c.n*c.n), heard: make([]bool, c.n*c.n),
		crashes: c.crashes, restarts: c.restarts, cuts: c.cuts, falses: c.falses,
		installs: map[uint64][]ring.ProcID{}, dropFence: dropFence,
	}
	v := core.View{ID: 1, Ring: ring.MustNew(c.order, min(1, len(c.order)-1))}
	w.installs[v.ID] = v.Ring.Members()
	for _, id := range c.order {
		w.mem[id] = exMember{m: newManagerFor(w, int(id), v, false, 1), inc: 1, peers: v.Ring.Members()}
	}
	for _, id := range c.down {
		w.mem[id] = exMember{inc: 1}
	}
	w.heartbeats()
	return w
}

// cloneManager copies m into another world. Views, proposals, snapshots
// and collected states are never written after they are built, so only
// the maps are copied.
func cloneManager(m *Manager, cb Callbacks) *Manager {
	c := *m
	c.cfg.Callbacks = cb
	c.alive = maps.Clone(m.alive)
	c.joiners = maps.Clone(m.joiners)
	c.leavers = maps.Clone(m.leavers)
	c.incarnations = maps.Clone(m.incarnations)
	c.collected = maps.Clone(m.collected)
	return &c
}

func (w *exWorld) clone() *exWorld {
	c := *w
	c.mem = slices.Clone(w.mem)
	c.owned = make([]bool, w.n)
	c.links = make([][][]byte, len(w.links))
	for k, q := range w.links {
		c.links[k] = q[:len(q):len(q)] // an append copies
	}
	c.cut = slices.Clone(w.cut)
	c.heard = slices.Clone(w.heard)
	c.installs = maps.Clone(w.installs)
	return &c
}

// own gives this world its own copy of member i's Manager before a move
// changes it.
func (w *exWorld) own(i int) *Manager {
	if m := w.mem[i].m; m != nil && !w.owned[i] {
		w.mem[i].m = cloneManager(m, w.callbacks(i))
	}
	w.owned[i] = true
	return w.mem[i].m
}

// beats reports whether p heartbeats q: p is up, admitted, and q is in
// its view (a node points its detector at its installed view).
func (w *exWorld) beats(p, q int) bool {
	x := &w.mem[p]
	return x.live() && x.m.installed && x.m.view.Ring.Contains(ring.ProcID(q))
}

// heartbeats is the clock step's round of heartbeats; a cut link loses its
// one.
func (w *exWorld) heartbeats() {
	for k := range w.heard {
		w.heard[k] = w.beats(k/w.n, k%w.n) && !w.cut[k]
	}
}

// suspectable reports whether q's detector may report p: q missed p's
// heartbeat at the last clock step and p still sends it none. A cut heals
// at the step after the one it cost, so it never lasts a detector timeout.
func (w *exWorld) suspectable(p, q int) bool {
	x := &w.mem[q]
	return p != q && x.live() && x.m.installed && x.m.alive[ring.ProcID(p)] &&
		!w.heard[p*w.n+q] && !w.beats(p, q)
}

// falselySuspectable reports whether q's detector may report p although p
// still heartbeats it, a false suspicion the budget allows.
func (w *exWorld) falselySuspectable(p, q int) bool {
	x := &w.mem[q]
	return w.falses > 0 && p != q && x.live() && x.m.installed && x.m.alive[ring.ProcID(p)] && w.beats(p, q)
}

func (w *exWorld) quiet() bool {
	for _, q := range w.links {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

func (w *exWorld) moves() []exMove {
	var mv []exMove
	for k, q := range w.links {
		if len(q) > 0 {
			mv = append(mv, exMove{'d', k / w.n, k % w.n})
		}
	}
	for q := range w.n {
		for p := range w.n {
			if w.suspectable(p, q) {
				mv = append(mv, exMove{'s', q, p})
			}
			if w.falselySuspectable(p, q) {
				mv = append(mv, exMove{'f', q, p})
			}
		}
	}
	for i := range w.n {
		if w.crashes > 0 && w.mem[i].live() {
			mv = append(mv, exMove{'c', i, 0})
		}
		if w.restarts > 0 && !w.mem[i].live() {
			mv = append(mv, exMove{'r', i, 0})
		}
	}
	if w.cuts > 0 {
		for a := range w.n {
			for b := range w.n {
				if a != b && !w.cut[a*w.n+b] && w.mem[a].live() && w.mem[b].live() {
					mv = append(mv, exMove{'x', a, b})
				}
			}
		}
	}
	if w.quiet() {
		mv = append(mv, exMove{'t', 0, 0})
	}
	return mv
}

func (w *exWorld) apply(mv exMove) {
	switch mv.kind {
	case 'd':
		k := mv.a*w.n + mv.b
		p := w.links[k][0]
		w.links[k] = w.links[k][1:]
		if len(w.links[k]) == 0 {
			w.links[k] = nil
		}
		if err := w.own(mv.b).HandlePayload(ring.ProcID(mv.a), p, w.now()); err != nil {
			panic(err)
		}
		if w.mem[mv.b].halted {
			w.dropQueues(mv.b)
		}
	case 's':
		w.own(mv.a).OnSuspect(ring.ProcID(mv.b), w.now())
	case 'f':
		w.falses--
		w.own(mv.a).OnSuspect(ring.ProcID(mv.b), w.now())
	case 'c':
		w.crashes--
		w.mem[mv.a].m = nil
		w.dropQueues(mv.a)
	case 'r':
		w.restarts--
		w.restart(mv.a)
	case 'x':
		w.cuts--
		k := mv.a*w.n + mv.b
		w.cut[k] = true
		w.links[k] = nil
	case 't':
		w.tick()
	}
}

func (w *exWorld) dropQueues(i int) {
	for j := range w.n {
		w.links[i*w.n+j] = nil
		w.links[j*w.n+i] = nil
	}
}

func (w *exWorld) restart(i int) {
	x := &w.mem[i]
	x.inc++
	x.halted = false
	x.peers = nil
	x.m = newManagerFor(w, i, core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{ring.ProcID(i)}, 0)}, true, x.inc)
	w.owned[i] = true
	w.dropQueues(i)
	var contacts []ring.ProcID
	for j := range w.n {
		if j != i {
			contacts = append(contacts, ring.ProcID(j))
		}
	}
	w.own(i).RequestJoin(contacts, w.now())
}

func (w *exWorld) tick() {
	w.heartbeats()
	clear(w.cut)
	w.clock++
	now := w.now()
	for i := range w.mem {
		x := &w.mem[i]
		if !x.live() {
			continue
		}
		w.own(i).Tick(now)
	}
}

// settle is the no-wedge check run at the end of a branch: it heals every
// link, restarts the crashed members, and runs fair delivery, the
// detectors' suspicions and ticks. It returns what is wrong, or "".
func (w *exWorld) settle() string {
	clear(w.cut)
	for i := range w.mem {
		if w.mem[i].m == nil {
			w.restart(i)
		}
	}
	for range settleSteps {
		if w.settled() {
			break
		}
		w.drain()
		w.tick()
		for q := range w.n {
			for p := range w.n {
				if w.suspectable(p, q) {
					w.own(q).OnSuspect(ring.ProcID(p), w.now())
				}
			}
		}
	}
	w.drain()
	if w.fork != "" {
		return w.fork
	}
	newest := w.newest()
	nv := fmt.Sprintf("%d%v", newest, w.installs[newest])
	for i := range w.mem {
		x := &w.mem[i]
		switch {
		case !x.live() || x.m.installed && x.m.view.ID == newest:
		case !x.m.installed:
			return fmt.Sprintf("member %d never admitted; newest view %s", i, nv)
		case slices.Contains(w.installs[newest], ring.ProcID(i)):
			return fmt.Sprintf("member %d missed view %s, which holds it, and sits in %d%v",
				i, nv, x.m.view.ID, x.m.view.Ring.Members())
		default:
			return fmt.Sprintf("member %d left behind in view %d%v; newest view %s leaves it out",
				i, x.m.view.ID, x.m.view.Ring.Members(), nv)
		}
	}
	return ""
}

func (w *exWorld) newest() uint64 { return slices.Max(slices.Collect(maps.Keys(w.installs))) }

// settled reports a world no further step changes: nothing is queued, and
// every live member is admitted, idle and in the newest view, with nothing
// left to suspect.
func (w *exWorld) settled() bool {
	if !w.quiet() {
		return false
	}
	newest := w.newest()
	for q := range w.mem {
		x := &w.mem[q]
		if !x.live() {
			continue
		}
		if !x.m.installed || x.m.view.ID != newest || x.m.changing || !x.m.suspFwdDue.IsZero() {
			return false
		}
		for p := range w.n {
			if w.suspectable(p, q) {
				return false
			}
		}
	}
	return true
}

// drain delivers every queued message, one per link in turn.
func (w *exWorld) drain() {
	for range 10000 {
		moved := false
		for k := range w.links {
			if len(w.links[k]) > 0 && w.fork == "" {
				w.apply(exMove{'d', k / w.n, k % w.n})
				moved = true
			}
		}
		if !moved {
			return
		}
	}
	panic("explorer: control traffic never quiesced")
}

// hash covers every Manager field, the links, cuts, heartbeats, budgets
// and installs.
func (w *exWorld) hash(seed maphash.Seed, buf []byte) ([]byte, uint64) {
	b := buf[:0]
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	flag := func(f bool) {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	ids := func(ps []ring.ProcID) {
		u(uint64(len(ps)))
		for _, p := range ps {
			u(uint64(p))
		}
	}
	view := func(v core.View) {
		u(v.ID)
		u(uint64(v.Ring.N()))
		for j := range v.Ring.N() {
			u(uint64(v.Ring.At(j)))
		}
		u(uint64(v.Ring.T()))
	}
	set := func(s map[ring.ProcID]bool) {
		var bits uint64
		for p, ok := range s {
			if ok {
				bits |= 1 << p
			}
		}
		u(bits)
	}
	now := w.now()
	rel := func(t time.Time) {
		if t.IsZero() {
			u(1 << 63)
		} else {
			u(uint64(t.Sub(now)))
		}
	}
	for i := range w.mem {
		x := &w.mem[i]
		u(x.inc)
		flag(x.halted)
		m := x.m
		flag(m != nil)
		if m == nil {
			continue
		}
		flag(m.cfg.Joiner)
		u(m.cfg.Incarnation)
		view(m.view)
		set(m.alive)
		set(m.joiners)
		set(m.leavers)
		flag(m.rotate)
		for p := range w.n {
			u(m.incarnations[ring.ProcID(p)])
		}
		u(m.hiEpoch)
		flag(m.snapshot != nil)
		flag(m.changing)
		rel(m.changeDue)
		flag(m.halfDeferred)
		rel(m.suspFwdDue)
		ids(m.contacts)
		rel(m.joinDue)
		u(m.myEpoch)
		ids(m.proposed)
		u(uint64(m.proposedT))
		flag(m.collected != nil)
		for p := range w.n {
			st := m.collected[ring.ProcID(p)]
			flag(st != nil)
			if st != nil {
				flag(st.Joiner)
				u(st.Epoch)
			}
		}
		flag(m.installed)
	}
	for k, q := range w.links {
		u(uint64(k))
		for _, p := range q {
			u(uint64(len(p)))
			b = append(b, p...)
		}
	}
	for k := range w.cut {
		flag(w.cut[k])
		flag(w.heard[k])
	}
	u(uint64(w.crashes))
	u(uint64(w.restarts))
	u(uint64(w.cuts))
	u(uint64(w.falses))
	for _, e := range slices.Sorted(maps.Keys(w.installs)) {
		u(e)
		ids(w.installs[e])
	}
	return b, maphash.Bytes(seed, b)
}

// managerFields is the number of Manager fields hash was written against.
// It reads all of them but log and cfg's callbacks, which are wiring.
const managerFields = 21

// exStep is one move on the current branch, with the payload a delivery
// carried.
type exStep struct {
	mv exMove
	p  []byte
}

func (st exStep) String() string {
	mv := st.mv
	switch mv.kind {
	case 'd':
		return fmt.Sprintf("deliver %d→%d %s", mv.a, mv.b, describePayload(st.p))
	case 's':
		return fmt.Sprintf("%d suspects %d", mv.a, mv.b)
	case 'f':
		return fmt.Sprintf("%d falsely suspects %d", mv.a, mv.b)
	case 'c':
		return fmt.Sprintf("crash %d", mv.a)
	case 'r':
		return fmt.Sprintf("restart %d", mv.a)
	case 'x':
		return fmt.Sprintf("cut %d→%d", mv.a, mv.b)
	}
	return "clock +½T"
}

func describePayload(p []byte) string {
	msg, err := Decode(p)
	if err != nil {
		return err.Error()
	}
	switch v := msg.(type) {
	case *Prepare:
		return fmt.Sprintf("PREPARE(%d %v)", v.Epoch, v.Members)
	case *State:
		return fmt.Sprintf("STATE(%d)", v.Epoch)
	case *NewView:
		return fmt.Sprintf("NEWVIEW(%d %v)", v.Epoch, v.Members)
	case *JoinReq:
		return fmt.Sprintf("JOIN(inc %d)", v.Incarnation)
	case *LeaveReq:
		return fmt.Sprintf("LEAVE(%d)", v.ID)
	case *Suspicion:
		return fmt.Sprintf("SUSPECT(%d)", v.ID)
	case *EpochSuspicion:
		return fmt.Sprintf("SUSPECT(%d at %d)", v.ID, v.Epoch)
	case *Fence:
		return fmt.Sprintf("FENCE(%d %v)", v.Epoch, v.Members)
	}
	return fmt.Sprintf("%T", msg)
}

// explorer runs one bounded search and keeps the first counterexample
// whose message contains want. A positive budget caps the states it visits.
type explorer struct {
	want   string
	seed   maphash.Seed
	buf    []byte
	seen   map[uint64]int
	states int
	budget int
	path   []exStep
	found  string
}

func explore(c exploreCase, dropFence bool, want string, budget int) *explorer {
	e := &explorer{want: want, seed: maphash.MakeSeed(), seen: map[uint64]int{}, budget: budget}
	e.dfs(newWorld(c, dropFence), c.depth)
	return e
}

// spent reports a search stopped by its state budget.
func (e *explorer) spent() bool { return e.budget > 0 && e.states >= e.budget }

func (e *explorer) bad(msg string) bool {
	if msg != "" && strings.Contains(msg, e.want) {
		e.found = msg
	}
	return msg != ""
}

func (e *explorer) dfs(w *exWorld, left int) {
	if e.bad(w.fork) || e.spent() {
		return
	}
	var h uint64
	e.buf, h = w.hash(e.seed, e.buf)
	if prev, ok := e.seen[h]; ok && prev >= left {
		return
	}
	e.seen[h] = left
	e.states++
	if left == 0 {
		e.bad(w.clone().settle())
		return
	}
	for _, mv := range w.moves() {
		c := w.clone()
		st := exStep{mv: mv}
		if mv.kind == 'd' {
			st.p = w.links[mv.a*w.n+mv.b][0]
		}
		e.path = append(e.path, st)
		c.apply(mv)
		e.dfs(c, left-1)
		if e.found != "" {
			return
		}
		e.path = e.path[:len(e.path)-1]
	}
}

func (e *explorer) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nschedule (%d moves):", e.found, len(e.path))
	for _, st := range e.path {
		fmt.Fprintf(&b, "\n  %s", st)
	}
	return b.String()
}

// exploreCases are the bounds the view-change protocol is checked within.
// The first start state of each size is the whole group in one view. The
// second is ledger row C's shape: a two-member view whose lowest ID is not
// its coordinator, with the other IDs down and free to restart and join.
// The third is the whole group again, with two false suspicions and no
// crash. Beyond these bounds false suspicions reach two open ledger rows:
// one false suspicion and a restart reach row L (a restarted member counted
// toward a quorum it no longer remembers) in the n=3 group bounds, and
// n=3 false four moves deeper reaches row M (a member answering a PREPARE
// from a coordinator its own view has excluded). Under the race detector
// every depth is cut by exploreRaceCut.
var exploreCases = []exploreCase{
	{name: "n=3 group", n: 3, order: []ring.ProcID{0, 1, 2}, depth: 16, crashes: 1, restarts: 1, cuts: 2},
	{name: "n=3 row C", n: 3, order: []ring.ProcID{2, 0}, down: []ring.ProcID{1}, depth: 22, restarts: 2, cuts: 3},
	{name: "n=3 false", n: 3, order: []ring.ProcID{0, 1, 2}, depth: 18, cuts: 2, falses: 2},
	{name: "n=4 group", n: 4, order: []ring.ProcID{0, 1, 2, 3}, depth: 10, crashes: 1, restarts: 1, cuts: 1},
	{name: "n=4 row C", n: 4, order: []ring.ProcID{2, 0}, down: []ring.ProcID{1, 3}, depth: 22, restarts: 1, cuts: 3},
	{name: "n=4 false", n: 4, order: []ring.ProcID{0, 1, 2, 3}, depth: 12, cuts: 1, falses: 2},
}

// exploreEnv reads a non-negative integer setting of the deep pass; unset
// is 0.
func exploreEnv(t *testing.T, name string) int {
	s := os.Getenv(name)
	if s == "" {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		t.Fatalf("%s=%q: want a non-negative integer", name, s)
	}
	return v
}

// TestExploreViewChanges runs the explorer over every case and fails with
// the first counterexample's schedule. The nightly deep pass sets
// FSR_EXPLORE_DEPTH, moves added to every case's depth, and
// FSR_EXPLORE_STATES, the states one case may visit before it stops; unset,
// both are 0 and the cases run as written.
func TestExploreViewChanges(t *testing.T) {
	if got := reflect.TypeFor[Manager]().NumField(); got != managerFields {
		t.Fatalf("Manager has %d fields, the explorer's hash was written for %d: hash the new one", got, managerFields)
	}
	deeper, budget := exploreEnv(t, "FSR_EXPLORE_DEPTH"), exploreEnv(t, "FSR_EXPLORE_STATES")
	for _, c := range exploreCases {
		c.depth += deeper - exploreRaceCut
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			e := explore(c, false, "", budget)
			t.Logf("%d states, depth %d, budgets crash %d restart %d cut %d false %d, %v",
				e.states, c.depth, c.crashes, c.restarts, c.cuts, c.falses, time.Since(start).Round(time.Millisecond))
			if e.spent() {
				t.Logf("state budget of %d spent before the depth was covered", budget)
			}
			if e.found != "" {
				t.Fatal(e.report())
			}
		})
	}
}

// TestExploreFindsRowBWithoutFence checks the explorer's reach against a
// bug it must know. With every Fence withheld by the explorer itself (the
// Manager is unchanged), the n=3 group bounds hold ledger row B: a member
// the group excluded, whose NEWVIEW a cut ate, left behind in its old view.
// With Fences delivered, TestExploreViewChanges finds nothing in these
// bounds, and two moves deeper.
func TestExploreFindsRowBWithoutFence(t *testing.T) {
	c := exploreCases[0]
	c.depth = 14
	e := explore(c, true, "left behind", 0)
	if e.found == "" {
		t.Fatalf("no member left behind in %d states with every Fence withheld", e.states)
	}
	t.Logf("%d states: %s", e.states, e.report())
}

// TestExploreDuelingCoordinators replays a schedule the explorer found at
// n = 4 with one false suspicion, a crash and a restart. Member 1 falsely
// suspects 0 and coordinates; 0, which still coordinates by its own view,
// starts a change of its own for 2's restarted incarnation. Each holds
// answers the other needs, and 1 refuses 0's equal-epoch PREPAREs. If both
// restarted after the same ChangeTimeout they would collide at each next
// epoch forever; the earlier coordinator restarts first and wins.
func TestExploreDuelingCoordinators(t *testing.T) {
	w := newWorld(exploreCase{n: 4, order: []ring.ProcID{0, 1, 2, 3}, crashes: 1, restarts: 1, cuts: 1, falses: 1}, false)
	for _, mv := range []exMove{
		{'f', 1, 0}, {'d', 1, 2}, {'d', 1, 3}, {'d', 2, 1}, {'c', 2, 0},
		{'r', 2, 0}, {'d', 2, 0}, {'d', 0, 1}, {'d', 2, 1}, {'x', 1, 2},
	} {
		w.apply(mv)
	}
	if msg := w.settle(); msg != "" {
		t.Fatal(msg)
	}
}
