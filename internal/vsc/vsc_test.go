package vsc

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
	"fsr/internal/wire"
)

// harness wires a set of Managers through a synchronous in-memory router
// with crash injection. Callbacks record installs; snapshots are canned.
type harness struct {
	t        *testing.T
	managers map[ring.ProcID]*Manager
	inboxes  map[ring.ProcID][][2]any // {from, payload}
	crashed  map[ring.ProcID]bool
	installs map[ring.ProcID][]core.View
	snaps    map[ring.ProcID]core.RecoveryState
	rebro    map[ring.ProcID][]core.PendingMsg
	evicted  map[ring.ProcID]bool
	now      time.Time
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:        t,
		managers: map[ring.ProcID]*Manager{},
		inboxes:  map[ring.ProcID][][2]any{},
		crashed:  map[ring.ProcID]bool{},
		installs: map[ring.ProcID][]core.View{},
		snaps:    map[ring.ProcID]core.RecoveryState{},
		rebro:    map[ring.ProcID][]core.PendingMsg{},
		evicted:  map[ring.ProcID]bool{},
		now:      time.Unix(1000, 0),
	}
}

func (h *harness) add(id ring.ProcID, initial core.View, joiner bool) *Manager {
	return h.addInc(id, initial, joiner, 1)
}

// addInc is add with an explicit incarnation number, for restart tests.
func (h *harness) addInc(id ring.ProcID, initial core.View, joiner bool, inc uint64) *Manager {
	h.t.Helper()
	h.snaps[id] = core.RecoveryState{NextDeliver: 1}
	cfg := Config{
		Self:          id,
		T:             2,
		ChangeTimeout: 100 * time.Millisecond,
		Joiner:        joiner,
		Incarnation:   inc,
		Callbacks: Callbacks{
			Send: func(to ring.ProcID, payload []byte) {
				if !h.crashed[to] && !h.crashed[id] {
					h.inboxes[to] = append(h.inboxes[to], [2]any{id, payload})
				}
			},
			Snapshot: func() core.RecoveryState { return h.snaps[id] },
			Install: func(v core.View, sync *core.Sync, rb []core.PendingMsg, _ time.Time) {
				h.installs[id] = append(h.installs[id], v)
				h.rebro[id] = append(h.rebro[id], rb...)
			},
			Evicted: func() { h.evicted[id] = true },
		},
	}
	m, err := NewManager(cfg, initial)
	if err != nil {
		h.t.Fatal(err)
	}
	h.managers[id] = m
	return m
}

// pump delivers queued control messages until quiescence.
func (h *harness) pump() {
	for range 10000 {
		moved := false
		for id, mgr := range h.managers {
			if h.crashed[id] || len(h.inboxes[id]) == 0 {
				continue
			}
			msg := h.inboxes[id][0]
			h.inboxes[id] = h.inboxes[id][1:]
			if err := mgr.HandlePayload(msg[0].(ring.ProcID), msg[1].([]byte), h.now); err != nil {
				h.t.Fatalf("HandlePayload at %d: %v", id, err)
			}
			moved = true
		}
		if !moved {
			return
		}
	}
	h.t.Fatal("control traffic never quiesced")
}

func (h *harness) crash(id ring.ProcID) {
	h.crashed[id] = true
	h.inboxes[id] = nil
}

func (h *harness) suspectEverywhere(dead ring.ProcID) {
	for id, mgr := range h.managers {
		if !h.crashed[id] {
			mgr.OnSuspect(dead, h.now)
		}
	}
}

func (h *harness) lastView(id ring.ProcID) core.View {
	vs := h.installs[id]
	if len(vs) == 0 {
		h.t.Fatalf("node %d installed no view", id)
	}
	return vs[len(vs)-1]
}

func groupView(t *testing.T, ids []ring.ProcID, tol int) core.View {
	t.Helper()
	return core.View{ID: 1, Ring: ring.MustNew(ids, tol)}
}

func bootstrap(t *testing.T, h *harness, ids []ring.ProcID) {
	t.Helper()
	v := groupView(t, ids, min(2, len(ids)-1))
	for _, id := range ids {
		h.add(id, v, false)
	}
}

func TestCrashOfStandardMember(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{10, 11, 12, 13, 14}
	bootstrap(t, h, ids)
	h.crash(13)
	h.suspectEverywhere(13)
	h.pump()
	want := []ring.ProcID{10, 11, 12, 14}
	for _, id := range want {
		v := h.lastView(id)
		if !reflect.DeepEqual(v.Ring.Members(), want) {
			t.Fatalf("node %d view members %v, want %v", id, v.Ring.Members(), want)
		}
		if v.ID <= 1 {
			t.Fatalf("node %d epoch not advanced: %d", id, v.ID)
		}
	}
	// All survivors agree on the epoch.
	e := h.lastView(10).ID
	for _, id := range want {
		if h.lastView(id).ID != e {
			t.Fatalf("epoch disagreement: %d vs %d", h.lastView(id).ID, e)
		}
	}
}

func TestCrashOfLeaderPromotesNext(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{10, 11, 12, 13}
	bootstrap(t, h, ids)
	h.crash(10)
	h.suspectEverywhere(10)
	h.pump()
	for _, id := range []ring.ProcID{11, 12, 13} {
		v := h.lastView(id)
		if v.Ring.Leader() != 11 {
			t.Fatalf("node %d: leader %d, want 11", id, v.Ring.Leader())
		}
	}
}

func TestJoin(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{20, 21, 22}
	bootstrap(t, h, ids)
	solo := core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{25}, 0)}
	j := h.add(25, solo, true)
	j.RequestJoin([]ring.ProcID{20, 21, 22}, h.now)
	h.pump()
	want := []ring.ProcID{20, 21, 22, 25}
	for _, id := range want {
		if got := h.lastView(id).Ring.Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d members %v, want %v", id, got, want)
		}
	}
	// The joiner contributed no recovery state: sync must not regress.
	if len(h.rebro[25]) != 0 {
		t.Errorf("joiner asked to rebroadcast %v", h.rebro[25])
	}
}

// TestJoinRetriedByTick: a joiner whose JoinReq was lost asks again once
// a ChangeTimeout has passed, and stops asking once a view admits it.
func TestJoinRetriedByTick(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{20, 21, 22}
	bootstrap(t, h, ids)
	j := h.add(25, core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{25}, 0)}, true)
	j.RequestJoin(ids, h.now)
	for _, id := range ids {
		h.inboxes[id] = nil // every JoinReq lost
	}
	h.now = h.now.Add(50 * time.Millisecond)
	j.Tick(h.now)
	if h.pump(); len(h.installs[25]) != 0 {
		t.Fatal("admitted without a JoinReq")
	}
	h.now = h.now.Add(50 * time.Millisecond)
	j.Tick(h.now) // one ChangeTimeout after the request
	h.pump()
	if got := h.lastView(25).Ring.Members(); !slices.Contains(got, 25) {
		t.Fatalf("joiner not admitted by the retry: %v", got)
	}
	h.now = h.now.Add(time.Second)
	j.Tick(h.now)
	for _, id := range ids {
		if len(h.inboxes[id]) != 0 {
			t.Fatalf("admitted joiner still sends to %d", id)
		}
	}
}

// TestStaleSuspicionRelayDropped is ledger row N: a suspicion relayed while
// its suspect was down reached the coordinator only after a later view had
// readmitted the suspect, and the coordinator evicted it again ("upgraded
// member 3 never rejoined", rolling-upgrade seed 1792421723069954599). A
// relay now carries the reporter's epoch, and one from an older view is
// dropped.
func TestStaleSuspicionRelayDropped(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{1, 2, 3}
	bootstrap(t, h, ids)
	h.crash(3)
	h.managers[2].OnSuspect(3, h.now) // relayed to coordinator 1 ...
	late := h.inboxes[1]
	h.inboxes[1] = nil // ... and held up on the way
	if len(late) != 1 {
		t.Fatalf("want one relay queued at the coordinator, got %d", len(late))
	}
	h.managers[1].OnSuspect(3, h.now)
	h.pump()
	if got := h.lastView(1).Ring.Members(); slices.Contains(got, 3) {
		t.Fatalf("3 not evicted: %v", got)
	}
	// 3 restarts and is readmitted.
	h.crashed[3] = false
	h.addInc(3, core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{3}, 0)}, true, 2).
		RequestJoin([]ring.ProcID{1, 2}, h.now)
	h.pump()
	readmitted := h.lastView(1)
	if !slices.Equal(readmitted.Ring.Members(), ids) {
		t.Fatalf("3 not readmitted: %s", viewString(readmitted))
	}
	h.inboxes[1] = late // the relay from epoch 1 arrives
	h.pump()
	if v := h.lastView(1); v.ID != readmitted.ID || h.evicted[3] {
		t.Fatalf("a relay from epoch 1 evicted readmitted 3: %s, then %s", viewString(readmitted), viewString(v))
	}
}

func TestLeave(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{30, 31, 32, 33}
	bootstrap(t, h, ids)
	h.managers[32].RequestLeave(h.now)
	h.pump()
	want := []ring.ProcID{30, 31, 33}
	for _, id := range want {
		if got := h.lastView(id).Ring.Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d members %v, want %v", id, got, want)
		}
	}
	if !h.evicted[32] {
		t.Error("leaver not notified of eviction")
	}
}

func TestLeaderLeaveIsRotation(t *testing.T) {
	// The paper's leader-rotation device: the leader executes a leave
	// followed by a join. Here we use RotateLeader directly.
	h := newHarness(t)
	ids := []ring.ProcID{40, 41, 42}
	bootstrap(t, h, ids)
	h.managers[40].RotateLeader(h.now)
	h.pump()
	want := []ring.ProcID{41, 42, 40}
	for _, id := range ids {
		if got := h.lastView(id).Ring.Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d members %v, want %v", id, got, want)
		}
	}
	if h.lastView(41).Ring.Leader() != 41 {
		t.Error("rotation did not promote the successor")
	}
}

func TestRotateIgnoredFromNonCoordinator(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{50, 51, 52}
	bootstrap(t, h, ids)
	h.managers[51].RotateLeader(h.now)
	h.pump()
	for _, id := range ids {
		if len(h.installs[id]) != 0 {
			t.Fatalf("non-coordinator rotation installed a view at %d", id)
		}
	}
}

func TestCoordinatorCrashMidChangeRecoversByTimeout(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{60, 61, 62, 63}
	bootstrap(t, h, ids)
	// 63 crashes; coordinator 60 starts a change (its PREPARE for epoch 2
	// lands in 61/62's inboxes) and then crashes itself before collecting
	// any STATE. 61 takes over, but keeps exactly half of the view without
	// its lowest ID, so it probes and waits two timeouts while 62 freezes
	// toward the dead coordinator's PREPARE: only the change timeout can
	// recover the group.
	h.crash(63)
	h.suspectEverywhere(63) // 60 starts change epoch 2; 61/62 defer to it
	h.crash(60)
	h.suspectEverywhere(60) // 61 starts its own epoch-2 change
	h.pump()
	if !h.managers[62].Changing() || h.managers[61].installed && len(h.installs[61]) > 0 {
		t.Fatal("expected the group to stall on the dead coordinator's prepare")
	}
	// Fire the change timeout at the survivors: 61 restarts with epoch 3.
	h.now = h.now.Add(time.Second)
	for _, id := range []ring.ProcID{61, 62} {
		h.managers[id].Tick(h.now)
	}
	h.pump()
	want := []ring.ProcID{61, 62}
	for _, id := range want {
		v := h.lastView(id)
		if !reflect.DeepEqual(v.Ring.Members(), want) {
			t.Fatalf("node %d members %v, want %v", id, v.Ring.Members(), want)
		}
		if h.managers[id].Changing() {
			t.Fatalf("node %d still changing", id)
		}
	}
}

func TestStalePrepareIgnored(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{70, 71}
	bootstrap(t, h, ids)
	p := &Prepare{Epoch: 1, Coord: 71, Members: ids, T: 1} // epoch == view.ID: stale
	if err := h.managers[70].HandlePayload(71, EncodePrepare(p), h.now); err != nil {
		t.Fatal(err)
	}
	if h.managers[70].Changing() {
		t.Error("stale prepare froze the member")
	}
}

// TestEqualEpochTieBreak checks the promise rule: a member answers at most
// one PREPARE per epoch. Its STATE goes to the coordinator it answered
// first, and a later PREPARE at the same epoch gets nothing, even from a
// coordinator earlier in view order.
func TestEqualEpochTieBreak(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{80, 81, 82}
	bootstrap(t, h, ids)
	m := h.managers[82]
	first := &Prepare{Epoch: 5, Coord: 81, Members: []ring.ProcID{81, 82}, T: 1}
	second := &Prepare{Epoch: 5, Coord: 80, Members: []ring.ProcID{80, 82}, T: 1}
	if err := m.HandlePayload(81, EncodePrepare(first), h.now); err != nil {
		t.Fatal(err)
	}
	if err := m.HandlePayload(80, EncodePrepare(second), h.now); err != nil {
		t.Fatal(err)
	}
	if msgs := h.inboxes[80]; len(msgs) != 0 {
		t.Fatalf("the second equal-epoch PREPARE was answered: %d messages to 80", len(msgs))
	}
	msgs := h.inboxes[81]
	if len(msgs) != 1 {
		t.Fatalf("the first PREPARE got %d answers, want 1", len(msgs))
	}
	dec, err := Decode(msgs[0][1].([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := dec.(*State); !ok || st.From != 82 || st.Epoch != 5 {
		t.Fatalf("the first coordinator got %T %+v", dec, dec)
	}
}

// fork reports the first epoch two members installed with different
// memberships, or "".
func (h *harness) fork() string {
	seen := map[uint64][]ring.ProcID{}
	for _, id := range slices.Sorted(maps.Keys(h.installs)) {
		for _, v := range h.installs[id] {
			members := v.Ring.Members()
			if prev, ok := seen[v.ID]; ok && !slices.Equal(prev, members) {
				return fmt.Sprintf("epoch %d installed as %v and as %v (by %d)", v.ID, prev, members, id)
			}
			seen[v.ID] = members
		}
	}
	return ""
}

// TestOnePreparePerEpochRowJ is ledger row J's schedule. In the view
// [0 2 1], member 2 falsely suspects 0, and its PREPARE(2, [2 1]) reaches
// member 1, which answers. Then 0 falsely suspects 2 and sends
// PREPARE(2, [0 1]). A positional tie-break let 1 answer that one too,
// because 0 sits earlier in the view, and both coordinators minted epoch 2,
// each with its own membership. Under the promise rule 1 answers only the
// first: 2 and 1 install [2 1], and 0 learns it was excluded.
func TestOnePreparePerEpochRowJ(t *testing.T) {
	h := newHarness(t)
	bootstrap(t, h, []ring.ProcID{0, 2, 1})
	h.managers[2].OnSuspect(0, h.now)
	msg := h.inboxes[1][0]
	h.inboxes[1] = h.inboxes[1][1:]
	if err := h.managers[1].HandlePayload(msg[0].(ring.ProcID), msg[1].([]byte), h.now); err != nil {
		t.Fatal(err)
	}
	h.managers[0].OnSuspect(2, h.now)
	h.pump()
	if fork := h.fork(); fork != "" {
		t.Fatal(fork)
	}
	want := []ring.ProcID{2, 1}
	for _, id := range want {
		if v := h.lastView(id); v.ID != 2 || !slices.Equal(v.Ring.Members(), want) {
			t.Fatalf("node %d installed %d%v, want 2%v", id, v.ID, v.Ring.Members(), want)
		}
	}
	if !h.evicted[0] {
		t.Error("the losing coordinator was not told it was excluded")
	}
}

func TestRebroadcastComputedFromSnapshot(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{90, 91, 92}
	bootstrap(t, h, ids)
	// 91 has an own pending segment that no sync will preserve.
	h.snaps[91] = core.RecoveryState{
		NextDeliver: 1,
		OwnPending: []core.PendingMsg{
			{ID: wire.MsgID{Origin: 91, Local: 7}, Parts: 1, Body: []byte("mine")},
		},
	}
	h.crash(92)
	h.suspectEverywhere(92)
	h.pump()
	if len(h.rebro[91]) != 1 || h.rebro[91][0].ID.Local != 7 {
		t.Fatalf("rebroadcast at 91 = %v", h.rebro[91])
	}
	if len(h.rebro[90]) != 0 {
		t.Errorf("unexpected rebroadcast at 90: %v", h.rebro[90])
	}
}

func TestManagerConfigValidation(t *testing.T) {
	v := groupView(t, []ring.ProcID{1}, 0)
	if _, err := NewManager(Config{Self: 1}, v); err == nil {
		t.Error("missing callbacks accepted")
	}
}

func TestCodecRoundTrips(t *testing.T) {
	prep := &Prepare{Epoch: 9, Coord: 3, Members: []ring.ProcID{3, 4, 5}, T: 2}
	got, err := Decode(EncodePrepare(prep))
	if err != nil || !reflect.DeepEqual(got, prep) {
		t.Fatalf("prepare: %+v, %v", got, err)
	}
	st := &State{
		Epoch: 4, From: 8, Joiner: true,
		Recovery: core.RecoveryState{
			NextDeliver: 11,
			Sequenced: []core.SequencedMsg{
				{ID: wire.MsgID{Origin: 1, Local: 2}, Seq: 11, Part: 0, Parts: 2, Body: []byte("abc")},
			},
			OwnPending: []core.PendingMsg{
				{ID: wire.MsgID{Origin: 8, Local: 3}, Part: 1, Parts: 2, Body: []byte("xy")},
			},
		},
	}
	got, err = Decode(EncodeState(st))
	if err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("state: %+v, %v", got, err)
	}
	nv := &NewView{
		Epoch: 12, Coord: 1, Members: []ring.ProcID{1, 2}, T: 1,
		Sync: core.Sync{StartSeq: 5, Sequenced: []core.SequencedMsg{
			{ID: wire.MsgID{Origin: 2, Local: 0}, Seq: 5, Parts: 1, Body: []byte("b")},
		}},
	}
	got, err = Decode(EncodeNewView(nv))
	if err != nil || !reflect.DeepEqual(got, nv) {
		t.Fatalf("newview: %+v, %v", got, err)
	}
	jr := &JoinReq{ID: 77}
	got, err = Decode(EncodeJoinReq(jr))
	if err != nil || !reflect.DeepEqual(got, jr) {
		t.Fatalf("join: %+v, %v", got, err)
	}
	lr := &LeaveReq{ID: 78}
	got, err = Decode(EncodeLeaveReq(lr))
	if err != nil || !reflect.DeepEqual(got, lr) {
		t.Fatalf("leave: %+v, %v", got, err)
	}
	su := &Suspicion{ID: 79} // an older build's; this one no longer sends it
	got, err = Decode([]byte{wire.KindVSC, msgSuspicion, 79, 0, 0, 0})
	if err != nil || !reflect.DeepEqual(got, su) {
		t.Fatalf("suspicion: %+v, %v", got, err)
	}
	es := &EpochSuspicion{Epoch: 8, ID: 80}
	got, err = Decode(EncodeEpochSuspicion(es))
	if err != nil || !reflect.DeepEqual(got, es) {
		t.Fatalf("epoch suspicion: %+v, %v", got, err)
	}
	fe := &Fence{Epoch: 6, Members: []ring.ProcID{2, 3, 0}}
	got, err = Decode(EncodeFence(fe))
	if err != nil || !reflect.DeepEqual(got, fe) {
		t.Fatalf("fence: %+v, %v", got, err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Decode([]byte{wire.KindVSC, 99}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := Decode([]byte{wire.KindFSR, msgPrepare}); err == nil {
		t.Error("wrong kind accepted")
	}
	buf := EncodePrepare(&Prepare{Epoch: 1, Coord: 2, Members: []ring.ProcID{1, 2, 3}})
	for i := range buf {
		if _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("truncated prefix %d accepted", i)
		}
	}
}

// TestRestartedMemberResync: a member that crashes and restarts so fast
// that no survivor ever suspects it (its new incarnation's heartbeats keep
// the ID alive) rejoins by sending a JoinReq with a higher incarnation.
// The coordinator must answer with a membership-preserving view change so
// the new incarnation resynchronizes; without it the group wedges, the
// restarted engine discarding all ring traffic as stale.
func TestRestartedMemberResync(t *testing.T) {
	h := newHarness(t)
	ids := []ring.ProcID{1, 2, 3}
	bootstrap(t, h, ids)
	// Let the group settle in its initial view (no change yet).
	h.pump()

	// Node 2 "restarts": its manager is replaced by a fresh joiner in the
	// solo bootstrap view, with a bumped incarnation. No survivor ever
	// suspected it.
	solo := core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{2}, 0)}
	restarted := h.addInc(2, solo, true, 2)
	restarted.RequestJoin([]ring.ProcID{1, 3}, h.now)
	h.pump()

	// Everyone — including the restarted incarnation — must have installed
	// a new epoch with the same three members.
	for _, id := range ids {
		v := h.lastView(id)
		if !reflect.DeepEqual(v.Ring.Members(), ids) {
			t.Fatalf("node %d members %v after resync, want %v", id, v.Ring.Members(), ids)
		}
		if v.ID <= 1 {
			t.Fatalf("node %d still in epoch %d; no resynchronizing change ran", id, v.ID)
		}
	}
	epoch := h.lastView(1).ID
	installs := len(h.installs[1])

	// A duplicate JoinReq from the same incarnation must NOT churn views.
	restarted.RequestJoin([]ring.ProcID{1, 3}, h.now)
	h.pump()
	if got := len(h.installs[1]); got != installs {
		t.Fatalf("duplicate JoinReq produced %d extra view changes", got-installs)
	}

	// A second restart (higher incarnation still) must resync again.
	solo2 := core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{2}, 0)}
	again := h.addInc(2, solo2, true, 3)
	again.RequestJoin([]ring.ProcID{1, 3}, h.now)
	h.pump()
	if got := h.lastView(1).ID; got <= epoch {
		t.Fatalf("second restart left epoch at %d (was %d)", got, epoch)
	}
}

// TestSymmetricFalseSuspicionNoSplitBrain: when two live factions each
// falsely suspect the other (the overload case the perfect-FD model
// excludes), only a faction holding a primary component of the current
// view may propose; the minority installs nothing of its own and halts
// when the majority's NEWVIEW evicts it — so two disjoint views can never
// carry the same epoch. Found by the chaos harness (seed
// 1785168074707084626).
func TestSymmetricFalseSuspicionNoSplitBrain(t *testing.T) {
	ids := []ring.ProcID{0, 1, 2, 3, 4}
	v := groupView(t, ids, 2)
	h := newHarness(t)
	for _, id := range ids {
		h.add(id, v, false)
	}
	// Factions {0,1,2} and {3,4} suspect each other. Node 3 only becomes
	// coordinator of its faction once it has suspected 0, 1 and 2 — at
	// which point its candidate view {3,4} holds 2 of 5 members: no
	// primary component, so it must propose nothing at all.
	for _, b := range []ring.ProcID{3, 4} {
		for _, a := range []ring.ProcID{0, 1, 2} {
			h.managers[b].OnSuspect(a, h.now)
		}
	}
	for _, a := range []ring.ProcID{0, 1, 2} {
		for _, b := range []ring.ProcID{3, 4} {
			h.managers[a].OnSuspect(b, h.now)
		}
	}
	h.pump()
	// The majority faction installs the next view without 3 and 4.
	for _, a := range []ring.ProcID{0, 1, 2} {
		got := h.lastView(a)
		if got.ID <= v.ID {
			t.Fatalf("majority member %d stuck in view %d", a, got.ID)
		}
		if want := []ring.ProcID{0, 1, 2}; !reflect.DeepEqual(got.Ring.Members(), want) {
			t.Fatalf("majority member %d installed %v, want %v", a, got.Ring.Members(), want)
		}
	}
	// The minority proposed nothing (no install of its own) and was
	// evicted by the majority's best-effort NEWVIEW instead of diverging.
	for _, b := range []ring.ProcID{3, 4} {
		for _, inst := range h.installs[b] {
			if !inst.Ring.Contains(0) {
				t.Fatalf("minority member %d installed a rump view %v", b, inst.Ring.Members())
			}
		}
		if !h.evicted[b] {
			t.Fatalf("minority member %d never evicted itself", b)
		}
	}
}

// TestMinoritySurvivorBlocks: a strict minority of the current view (one
// survivor of three here) holds no primary component and must not found a
// rump view, no matter how long its timeouts fire; exactly half (one
// survivor of two) remains a supported recovery.
func TestMinoritySurvivorBlocks(t *testing.T) {
	ids := []ring.ProcID{7, 8, 9}
	v := groupView(t, ids, 1)
	h := newHarness(t)
	for _, id := range ids {
		h.add(id, v, false)
	}
	// 7 and 8 really are down: were they alive, 9's relayed suspicion
	// would let them form the legitimate majority view without 9.
	h.crash(7)
	h.crash(8)
	h.managers[9].OnSuspect(7, h.now)
	h.managers[9].OnSuspect(8, h.now)
	h.pump()
	h.now = h.now.Add(time.Second)
	h.managers[9].Tick(h.now)
	h.pump()
	if len(h.installs[9]) != 0 {
		t.Fatalf("minority survivor installed %v", h.installs[9])
	}

	// Exactly half: a 2-member group evicting its crashed second member.
	ids2 := []ring.ProcID{7, 9}
	v2 := groupView(t, ids2, 1)
	h2 := newHarness(t)
	h2.add(7, v2, false)
	h2.add(9, v2, false)
	h2.crash(9)
	h2.managers[7].OnSuspect(9, h2.now)
	h2.pump()
	if len(h2.installs[7]) != 0 {
		t.Fatalf("exactly half installed %v before its wait", h2.installs[7])
	}
	// Exactly half probes, then mints after one ChangeTimeout of silence.
	h2.now = h2.now.Add(time.Second)
	h2.managers[7].Tick(h2.now)
	h2.pump()
	got := h2.lastView(7)
	if want := []ring.ProcID{7}; !reflect.DeepEqual(got.Ring.Members(), want) {
		t.Fatalf("survivor installed %v, want %v", got.Ring.Members(), want)
	}
}

// TestJoinersNeverCoordinate: two pre-admission joiners that learn of each
// other (restart storms cross-send JoinReqs to every known contact) must
// not assemble a private view among themselves; admission only ever comes
// from a real member's coordinator.
func TestJoinersNeverCoordinate(t *testing.T) {
	h := newHarness(t)
	a := h.add(20, core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{20}, 0)}, true)
	b := h.add(21, core.View{ID: 0, Ring: ring.MustNew([]ring.ProcID{21}, 0)}, true)
	a.RequestJoin([]ring.ProcID{21}, h.now)
	b.RequestJoin([]ring.ProcID{20}, h.now)
	h.pump()
	if len(h.installs[20]) != 0 || len(h.installs[21]) != 0 {
		t.Fatalf("joiners installed views among themselves: %v / %v",
			h.installs[20], h.installs[21])
	}
	// A change-timeout tick on a frozen joiner must not mint a view either.
	h.now = h.now.Add(time.Second)
	a.Tick(h.now)
	b.Tick(h.now)
	h.pump()
	if len(h.installs[20]) != 0 || len(h.installs[21]) != 0 {
		t.Fatalf("joiner tick minted a view: %v / %v", h.installs[20], h.installs[21])
	}
}

// TestLeaveOverlappingCrashStillCompletes: a graceful leaver counts as
// quorum support (it is live and cooperating), so a leave announced just
// before a tolerated crash must not push the retained count below half
// and wedge the group — the coordinator still installs the shrunken view
// and the leaver still learns of its departure.
func TestLeaveOverlappingCrashStillCompletes(t *testing.T) {
	ids := []ring.ProcID{0, 1, 2}
	h := newHarness(t)
	bootstrap(t, h, ids)
	// Member 1 asks to leave; its request reaches coordinator 0 but member
	// 2 crashes before the change completes.
	h.managers[1].RequestLeave(h.now)
	h.crash(2)
	h.suspectEverywhere(2)
	h.pump()
	h.now = h.now.Add(time.Second)
	for _, id := range []ring.ProcID{0, 1} {
		if !h.crashed[id] {
			h.managers[id].Tick(h.now)
		}
	}
	h.pump()
	got := h.lastView(0)
	if want := []ring.ProcID{0}; !reflect.DeepEqual(got.Ring.Members(), want) {
		t.Fatalf("survivor installed %v, want %v", got.Ring.Members(), want)
	}
	if !h.evicted[1] {
		t.Fatal("leaver never learned its departure completed")
	}
}

// TestSymmetricEvenSplitTieBreak: a perfectly even split under MUTUAL
// false suspicion — the residual split-brain hole left by the half-quorum
// guard. Both halves retain exactly half the view and would, without the
// tie-break, mint colliding same-epoch views. Both halves probe and wait;
// the half retaining the lowest-ID current-view member waits one
// ChangeTimeout and the other two, so the other half receives the favored
// half's NEWVIEW within its wait and evicts itself instead of diverging.
// The favored coordinator's collection for {10,11,13}, started before its
// suspicion of 13, is dropped by the deferral and never completes.
func TestSymmetricEvenSplitTieBreak(t *testing.T) {
	ids := []ring.ProcID{10, 11, 12, 13}
	v := groupView(t, ids, 2)
	h := newHarness(t)
	for _, id := range ids {
		h.add(id, v, false)
	}
	// Halves {10,11} and {12,13} suspect each other. Feed the unfavored
	// half first so its coordinator (12) reaches the exactly-half state
	// and must decide before any traffic from the favored half arrives.
	for _, b := range []ring.ProcID{12, 13} {
		for _, a := range []ring.ProcID{10, 11} {
			h.managers[b].OnSuspect(a, h.now)
		}
	}
	for _, a := range []ring.ProcID{10, 11} {
		for _, b := range []ring.ProcID{12, 13} {
			h.managers[a].OnSuspect(b, h.now)
		}
	}
	h.pump()
	// Past the favored half's wait, short of the other half's.
	h.now = h.now.Add(150 * time.Millisecond)
	for _, id := range ids {
		h.managers[id].Tick(h.now)
	}
	h.pump()
	// The half with the lowest-ID member (10) installs the next view.
	for _, a := range []ring.ProcID{10, 11} {
		got := h.lastView(a)
		if got.ID <= v.ID {
			t.Fatalf("favored member %d stuck in view %d", a, got.ID)
		}
		if want := []ring.ProcID{10, 11}; !reflect.DeepEqual(got.Ring.Members(), want) {
			t.Fatalf("favored member %d installed %v, want %v", a, got.Ring.Members(), want)
		}
	}
	// The unfavored half deferred its proposal, never installed a rump
	// view, and fail-stopped on the favored half's NEWVIEW.
	for _, b := range []ring.ProcID{12, 13} {
		if len(h.installs[b]) != 0 {
			t.Fatalf("unfavored member %d installed %v, want nothing", b, h.installs[b])
		}
		if !h.evicted[b] {
			t.Fatalf("unfavored member %d never evicted itself", b)
		}
	}
}

// TestEvenSplitWithoutLowestRecoversByTimeout: the liveness side of the
// tie-break. When the half holding the lowest-ID member genuinely crashed,
// the surviving (unfavored) half must not wedge forever: it defers one
// ChangeTimeout, hears nothing, and then completes the change itself.
func TestEvenSplitWithoutLowestRecoversByTimeout(t *testing.T) {
	ids := []ring.ProcID{10, 11, 12, 13}
	v := groupView(t, ids, 2)
	h := newHarness(t)
	for _, id := range ids {
		h.add(id, v, false)
	}
	h.crash(10)
	h.crash(11)
	h.suspectEverywhere(10)
	h.suspectEverywhere(11)
	h.pump()
	// Deferral window: the survivors hold back (no lowest-ID member).
	for _, b := range []ring.ProcID{12, 13} {
		if len(h.installs[b]) != 0 {
			t.Fatalf("survivor %d proposed during the deferral window: %v", b, h.installs[b])
		}
	}
	h.now = h.now.Add(time.Second)
	for _, b := range []ring.ProcID{12, 13} {
		h.managers[b].Tick(h.now)
	}
	h.pump()
	for _, b := range []ring.ProcID{12, 13} {
		got := h.lastView(b)
		if want := []ring.ProcID{12, 13}; !reflect.DeepEqual(got.Ring.Members(), want) {
			t.Fatalf("survivor %d installed %v, want %v", b, got.Ring.Members(), want)
		}
	}
}

// TestFenceEvictsMemberLeftBehind is ledger row B without the harness: the
// group excludes a live member, and the NEWVIEW telling it so dies in a
// one-way cut. Afterwards no ring frame, heartbeat or prepare of the group
// reaches it, so before the fence it sat in its old view for good. Once its
// own detector has given up on everyone it stalls — as a minority
// coordinator whose change cannot proceed, or as a member re-forwarding
// suspicions — and its next timeout's Fence probe draws the group's newer
// view, which leaves it out: it fail-stops. Where its suspicions leave it
// holding exactly half of its view, the probe that proposal sends draws the
// eviction at once, before any stall. Its forwarded suspicions of current
// members, sent from outside their view, must not evict anyone.
//
// The row C case is ledger row C's shape, built directly: member 0 sits in
// 4[2 0] and answered view 5's PREPARE but missed its NEWVIEW, and the
// group has moved on to 6[1 2]. Holding the lowest ID of a view it has
// lost half of, 0 used to mint 6[0] on the spot.
func TestFenceEvictsMemberLeftBehind(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ids     []ring.ProcID
		behind  ring.ProcID
		suspect []ring.ProcID // what the member left behind suspects, in order
		probed  bool          // evicted by its exactly-half probe, before any stall
		rowC    bool          // start in row C's shape instead of cutting
	}{
		// It suspects the coordinator first, takes the role over, and its
		// change stalls: the others are past its epoch, then gone by its books.
		{"n=3 stalled coordinator", []ring.ProcID{0, 1, 2}, 1, []ring.ProcID{0, 2}, false, false},
		// The same, until its second suspicion leaves it exactly half.
		{"n=4 stalled coordinator", []ring.ProcID{0, 1, 2, 3}, 1, []ring.ProcID{0, 2, 3}, true, false},
		// It keeps the coordinator alive by its books and forwards suspicions
		// of the others to it.
		{"n=4 forwarding member", []ring.ProcID{0, 1, 2, 3}, 3, []ring.ProcID{2, 1}, false, false},
		{"row C", []ring.ProcID{0, 1, 2}, 0, []ring.ProcID{2}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			var rest []ring.ProcID
			for _, id := range tc.ids {
				if id != tc.behind {
					rest = append(rest, id)
				}
			}
			if tc.rowC {
				h.add(0, core.View{ID: 4, Ring: ring.MustNew([]ring.ProcID{2, 0}, 1)}, false)
				for _, id := range rest {
					h.add(id, core.View{ID: 6, Ring: ring.MustNew(rest, 1)}, false)
				}
				prep := &Prepare{Epoch: 5, Coord: 2, Members: []ring.ProcID{2, 0, 1}, T: 1}
				if err := h.managers[0].HandlePayload(2, EncodePrepare(prep), h.now); err != nil {
					t.Fatal(err)
				}
				h.inboxes[2] = nil // its STATE: view 5 is long installed
			} else {
				bootstrap(t, h, tc.ids)
				// The cut: nothing reaches the member left behind while the
				// rest exclude it (crashed drops its traffic both ways; it
				// sends none).
				h.crashed[tc.behind] = true
				for _, id := range rest {
					h.managers[id].OnSuspect(tc.behind, h.now)
				}
				h.pump()
				h.crashed[tc.behind] = false // healed, too late for the NEWVIEW
				if got := h.lastView(rest[0]).Ring.Members(); !reflect.DeepEqual(got, rest) {
					t.Fatalf("group installed %v, want %v", got, rest)
				}
			}
			group := h.managers[rest[0]].View()

			left := h.managers[tc.behind]
			for _, p := range tc.suspect {
				left.OnSuspect(p, h.now)
			}
			h.pump()
			if n := len(h.installs[tc.behind]); n != 0 {
				t.Fatalf("installed %s, group at %s", viewString(h.installs[tc.behind][n-1]), viewString(group))
			}
			if tc.probed {
				if !h.evicted[tc.behind] {
					t.Fatalf("member %d still in view %s after its exactly-half probe; the group is at %s",
						tc.behind, viewString(left.View()), viewString(group))
				}
			} else {
				if h.evicted[tc.behind] {
					t.Fatal("evicted before any stall; the test no longer reaches the fence")
				}
				h.now = h.now.Add(time.Second)
				left.Tick(h.now)
				h.pump()
				if !h.evicted[tc.behind] {
					t.Fatalf("member %d still in view %d after a stalled timeout; the group is at view %d",
						tc.behind, left.View().ID, group.ID)
				}
			}
			if len(h.installs[tc.behind]) != 0 {
				t.Fatalf("member left behind installed %v", h.installs[tc.behind])
			}
			for _, id := range rest {
				if got := h.managers[id].View(); got.ID != group.ID {
					t.Fatalf("member %d moved to view %d %v: a suspicion from outside the view was acted on",
						id, got.ID, got.Ring.Members())
				}
			}
		})
	}
}

func viewString(v core.View) string { return fmt.Sprintf("%d%v", v.ID, v.Ring.Members()) }
