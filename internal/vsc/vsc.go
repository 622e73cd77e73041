// Package vsc implements the virtually synchronous communication layer the
// paper builds FSR on (Birman & Joseph [6]; paper §3 and §4.2.1): group
// membership organized as a sequence of views, with a coordinator-driven
// view-change protocol that flushes protocol state so that TO-broadcast
// uniformity holds across membership changes.
//
// Protocol (one view change):
//
//  1. A trigger — failure-detector suspicion, join request, leave request,
//     or leader rotation — reaches the coordinator: the first live member
//     in the current view order.
//  2. The coordinator proposes epoch e (strictly above anything seen) with
//     PREPARE(e, members). Every proposed member freezes its engine and
//     replies STATE(e, recovery snapshot).
//  3. When all proposed members answered, the coordinator merges the
//     snapshots (core.MergeRecovery) and broadcasts NEWVIEW(e, members,
//     sync). Members install the view, re-broadcast their pending own
//     messages that the sync dropped, and resume.
//
// Fault tolerance during the change itself: any stall (coordinator crash,
// lost STATE) is healed by a timeout that restarts the change with a higher
// epoch and the shrunken live set; with a perfect failure detector and
// fail-stop crashes this terminates. Competing PREPAREs are ordered by
// epoch alone, under the promise rule of Paxos's phase 1: a member answers
// at most one PREPARE per epoch, so no two coordinators collect the same
// member's STATE at one epoch, and an epoch is installed with one
// membership. A coordinator that loses gets no STATE and retries at a
// higher epoch when its change times out. It restarts its own change after
// one ChangeTimeout per view position it holds, plus one, so two
// coordinators (one falsely suspecting the other) do not collide at each
// next epoch forever.
//
// Quorum: a proposal keeps at least half of the current view. A strict
// minority never proposes. Exactly half probes the rest of the view with a
// Fence and waits — one ChangeTimeout for the half holding the view's
// lowest ID, two for the other — before it mints; a member left in an older
// view learns of the newer one from that probe and fail-stops. See
// startChange for the residual.
//
// The Manager is a pure state machine: the owning node serializes calls and
// supplies time through Tick.
package vsc

import (
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
)

// DefaultChangeTimeout is how long a member waits for an in-flight view
// change to finish before the (possibly new) coordinator restarts it.
const DefaultChangeTimeout = time.Second

// Callbacks connect the Manager to the node runtime.
type Callbacks struct {
	// Send transmits one control payload to a peer (best effort).
	Send func(to ring.ProcID, payload []byte)
	// Snapshot freezes the engine (the node stops draining its outbound
	// queue) and returns its recovery state.
	Snapshot func() core.RecoveryState
	// Install applies an agreed view: the node installs it into the
	// engine, re-broadcasts the dropped own segments, points the failure
	// detector at the new membership, and resumes the engine, at now.
	Install func(v core.View, sync *core.Sync, rebroadcast []core.PendingMsg, now time.Time)
	// Evicted tells a node it was excluded from the group (its leave was
	// honored, or it was wrongly suspected — impossible under a perfect
	// FD, but surfaced rather than hidden).
	Evicted func()
}

// Config parameterizes a Manager.
type Config struct {
	// Self is this process's ID.
	Self ring.ProcID
	// T is the target fault tolerance; each view uses min(T, n-1).
	T int
	// ChangeTimeout restarts a stalled view change. Defaults to
	// DefaultChangeTimeout.
	ChangeTimeout time.Duration
	// Joiner marks a process that starts outside the group and must not
	// contribute recovery state to the first merge.
	Joiner bool
	// Incarnation distinguishes successive lives of the same process ID
	// across crash-restarts (a durable node passes its log generation, an
	// ephemeral one a boot timestamp). It rides on JoinReq so the
	// coordinator can tell a restarted member from a duplicate join
	// request: a JoinReq from an ID that is still in the view with a
	// HIGHER incarnation proves the old process is dead (fail-stop) even
	// though the failure detector has not noticed — the new incarnation's
	// heartbeats keep the ID alive — and triggers the resynchronizing
	// view change the new incarnation needs.
	Incarnation uint64
	// Callbacks wire the manager to the runtime. All required.
	Callbacks Callbacks
	// Logger receives structured membership events (change proposals,
	// evictions). Nil discards them.
	Logger *slog.Logger
}

// Manager runs the view-change protocol for one process.
type Manager struct {
	cfg  Config
	log  *slog.Logger
	view core.View

	alive        map[ring.ProcID]bool   // current-view members not suspected
	joiners      map[ring.ProcID]bool   // pending admissions (coordinator)
	leavers      map[ring.ProcID]bool   // pending exclusions (coordinator)
	rotate       bool                   // pending leader rotation (coordinator)
	incarnations map[ring.ProcID]uint64 // highest incarnation seen per joiner

	// Member-side prepare bookkeeping.
	hiEpoch   uint64 // the promise: no PREPARE at or below it is answered
	snapshot  *core.RecoveryState
	changing  bool
	changeDue time.Time
	// halfDeferred marks an exactly-half proposal waiting out its probe
	// (see startChange); it is minted once changeDue has passed.
	halfDeferred bool
	// suspFwdDue schedules the next re-forward of pending suspicions to the
	// coordinator (see OnSuspect): forwards are best-effort sends, so a
	// non-coordinator repeats them until some view change settles the
	// membership.
	suspFwdDue time.Time
	// contacts and joinDue drive a joiner's JoinReq retry (RequestJoin).
	contacts []ring.ProcID
	joinDue  time.Time

	// Coordinator-side collection state.
	myEpoch   uint64
	proposed  []ring.ProcID
	proposedT int
	collected map[ring.ProcID]*State

	installed bool // at least one real view installed (joiners start false)
}

// NewManager builds a manager for an initial view. A joiner passes its
// solo bootstrap view and Joiner: true; it acquires a real view via the
// coordinator's next change.
func NewManager(cfg Config, initial core.View) (*Manager, error) {
	if cfg.ChangeTimeout <= 0 {
		cfg.ChangeTimeout = DefaultChangeTimeout
	}
	cb := cfg.Callbacks
	if cb.Send == nil || cb.Snapshot == nil || cb.Install == nil {
		return nil, fmt.Errorf("vsc: Send, Snapshot and Install callbacks are required")
	}
	m := &Manager{
		cfg:          cfg,
		log:          cfg.Logger,
		view:         initial,
		alive:        make(map[ring.ProcID]bool),
		joiners:      make(map[ring.ProcID]bool),
		leavers:      make(map[ring.ProcID]bool),
		incarnations: make(map[ring.ProcID]uint64),
	}
	if m.log == nil {
		m.log = slog.New(slog.DiscardHandler)
	}
	for _, p := range initial.Ring.Members() {
		m.alive[p] = true
	}
	m.hiEpoch = initial.ID
	m.installed = !cfg.Joiner
	return m, nil
}

// View returns the current view.
func (m *Manager) View() core.View { return m.view }

// Changing reports whether a view change is in flight (engine frozen).
func (m *Manager) Changing() bool { return m.changing }

// coordinator returns the first live member in current view order and
// whether that is self.
func (m *Manager) coordinator() (ring.ProcID, bool) {
	for _, p := range m.view.Ring.Members() {
		if m.alive[p] {
			return p, p == m.cfg.Self
		}
	}
	return m.cfg.Self, true // everyone else gone: we are it
}

// OnSuspect feeds a failure-detector suspicion (local, or relayed by a
// Suspicion message). Only the coordinator can act on one; a
// non-coordinator forwards it to whoever it believes coordinates, so that
// an asymmetric fault — the suspect silent toward us but audible to the
// coordinator — still reaches the one process that can fix the ring
// (bug #16). A suspicion that starts no change — a forward, or a minority
// that may not propose — is revisited by Tick every ChangeTimeout until a
// view change resolves it. Safety does not rest on the reporter being
// right: the quorum rule in startChange still applies, and a falsely
// evicted live member fail-stops on the NEWVIEW and rejoins.
func (m *Manager) OnSuspect(p ring.ProcID, now time.Time) {
	if p == m.cfg.Self || !m.alive[p] {
		return
	}
	m.alive[p] = false
	delete(m.joiners, p)
	if coord, isCoord := m.coordinator(); isCoord {
		m.startChange(now)
	} else {
		m.cfg.Callbacks.Send(coord, EncodeEpochSuspicion(&EpochSuspicion{Epoch: m.view.ID, ID: p}))
	}
	if !m.changing {
		m.suspFwdDue = now.Add(m.cfg.ChangeTimeout)
	}
}

// RequestJoin is called by a joiner to ask admission; contact is any known
// member (typically all of them, so a crashed contact cannot block entry).
// Until a view admits it, Tick repeats the request every ChangeTimeout to
// the latest contacts given.
func (m *Manager) RequestJoin(contact []ring.ProcID, now time.Time) {
	m.contacts, m.joinDue = contact, now.Add(m.cfg.ChangeTimeout)
	req := EncodeJoinReq(&JoinReq{ID: m.cfg.Self, Incarnation: m.cfg.Incarnation})
	for _, c := range contact {
		if c != m.cfg.Self {
			m.cfg.Callbacks.Send(c, req)
		}
	}
}

// RequestLeave announces this process's graceful departure.
func (m *Manager) RequestLeave(now time.Time) {
	if !m.installed {
		// Not admitted yet: there is no membership to leave. Fail-stop
		// directly, matching Leave's contract that the node halts.
		if m.cfg.Callbacks.Evicted != nil {
			m.cfg.Callbacks.Evicted()
		}
		return
	}
	req := EncodeLeaveReq(&LeaveReq{ID: m.cfg.Self})
	if coord, isSelf := m.coordinator(); !isSelf {
		m.cfg.Callbacks.Send(coord, req)
		return
	}
	m.leavers[m.cfg.Self] = true
	m.startChange(now)
}

// RequestEvict asks the group to exclude target — the operator-driven
// membership op behind `fsr-admin evict`, for removing a partitioned-but-
// alive member without waiting for suspicion. Routed like a LeaveReq on
// target's behalf: handled directly when self coordinates, forwarded to
// the coordinator otherwise. Evicting self degenerates to a graceful
// leave. Returns false when target is not a current member (nothing to
// evict).
func (m *Manager) RequestEvict(target ring.ProcID, now time.Time) bool {
	if !m.installed || !m.view.Ring.Contains(target) {
		return false
	}
	if target == m.cfg.Self {
		m.RequestLeave(now)
		return true
	}
	m.log.Info("evict requested", "target", uint32(target))
	if coord, isSelf := m.coordinator(); !isSelf {
		m.cfg.Callbacks.Send(coord, EncodeLeaveReq(&LeaveReq{ID: target}))
		return true
	}
	m.leavers[target] = true
	m.startChange(now)
	return true
}

// RotateLeader triggers a view change whose only effect is shifting the
// member order by one — the paper's §4.3.1 latency-balancing device ("the
// role of the leader can be periodically moved to the next process").
// Only the coordinator honors it.
func (m *Manager) RotateLeader(now time.Time) {
	if _, isSelf := m.coordinator(); !isSelf {
		return
	}
	m.rotate = true
	m.startChange(now)
}

// Tick drives timeouts: a member stuck in a change asks the coordinator
// role to restart it (it may BE the new coordinator), a non-coordinator
// with unresolved suspicions re-forwards them (the forward is a
// best-effort send that the fault being reported may itself have eaten),
// and a joiner not yet admitted repeats its JoinReq.
//
// Both stalls also probe the rest of the view with a Fence: the group may
// have installed a view without us whose NEWVIEW the fault ate, and then
// nothing else would ever tell us (see handleFence). So does a minority
// coordinator, which may not propose, and an exactly-half wait re-probes
// on every tick.
func (m *Manager) Tick(now time.Time) {
	if !m.installed && m.contacts != nil && !now.Before(m.joinDue) {
		m.RequestJoin(m.contacts, now)
	}
	if m.changing && now.After(m.changeDue) {
		m.probe()
		if _, isSelf := m.coordinator(); isSelf {
			m.startChange(now)
		}
		if !now.Before(m.changeDue) {
			// Not restarted — we do not coordinate, or we are a minority
			// that must not propose: wait (and probe) another timeout.
			m.changeDue = now.Add(m.cfg.ChangeTimeout)
		}
	} else if m.halfDeferred {
		// An exactly-half wait probes on every tick, so a cut that ate the
		// first probe's answer cannot let us mint past a newer view.
		m.probe()
	}
	if !m.changing && m.installed && !m.suspFwdDue.IsZero() && now.After(m.suspFwdDue) {
		m.suspFwdDue = time.Time{}
		coord, isCoord := m.coordinator()
		if isCoord {
			// Deaths since the last tick made us coordinator: act directly.
			m.startChange(now)
			if m.changing {
				return
			}
		}
		// Still suspecting someone, and no change under way: re-forward to
		// the coordinator, or, as a minority that may not propose, keep
		// probing until a newer view evicts us.
		suspects := false
		for _, p := range m.view.Ring.Members() {
			if !m.alive[p] && p != m.cfg.Self {
				suspects = true
				if !isCoord {
					m.cfg.Callbacks.Send(coord, EncodeEpochSuspicion(&EpochSuspicion{Epoch: m.view.ID, ID: p}))
				}
			}
		}
		if suspects {
			m.probe()
			m.suspFwdDue = now.Add(m.cfg.ChangeTimeout)
		}
	}
}

// probe sends our installed view to every other member of it (see
// handleFence). A pre-admission joiner has no view to fence with.
func (m *Manager) probe() {
	if !m.installed {
		return
	}
	payload := EncodeFence(&Fence{Epoch: m.view.ID, Members: m.view.Ring.Members()})
	for _, p := range m.view.Ring.Members() {
		if p != m.cfg.Self {
			m.cfg.Callbacks.Send(p, payload)
		}
	}
}

// nextMembers computes the proposed membership: live current members in
// view order (rotated if requested), minus leavers, plus joiners in ID
// order.
func (m *Manager) nextMembers() []ring.ProcID {
	var out []ring.ProcID
	members := m.view.Ring.Members()
	if m.rotate && len(members) > 1 {
		members = append(members[1:], members[0])
	}
	for _, p := range members {
		if m.alive[p] && !m.leavers[p] {
			out = append(out, p)
		}
	}
	var js []ring.ProcID
	for j := range m.joiners {
		if !slices.Contains(out, j) {
			js = append(js, j)
		}
	}
	slices.Sort(js)
	return append(out, js...)
}

// keptOfCurrent counts current-view members the proposal retains.
func (m *Manager) keptOfCurrent(proposed []ring.ProcID) int {
	kept := 0
	for _, p := range m.view.Ring.Members() {
		// A registered graceful leaver counts as support: it is a live,
		// cooperating member that asked to be excluded — unlike a
		// suspected member, it cannot be the other side of a partition
		// (it evicts itself on the NEWVIEW). Without this, a leave
		// overlapping a tolerated crash would push the retained count
		// below half and wedge the change forever.
		if slices.Contains(proposed, p) || m.leavers[p] {
			kept++
		}
	}
	return kept
}

// startChange (re)starts a view change with a fresh epoch, self as
// coordinator.
func (m *Manager) startChange(now time.Time) {
	if !m.installed {
		// A pre-admission joiner never coordinates. Its bootstrap view
		// makes it "coordinator" of a group of one, so every trigger that
		// reaches a joiner — a JoinReq from a fellow restarted member, a
		// change-timeout Tick while frozen on a real prepare — would
		// otherwise let two restarted processes mint a rump view of their
		// own, colliding with (and diverging from) the real group's next
		// epoch. Found by the chaos harness (seed 1785168074707084626:
		// two crash-restarted members installed a private two-member view
		// carrying the same epoch as the survivors' view). Admission is
		// always driven by a real member's coordinator.
		return
	}
	members := m.nextMembers()
	if len(members) == 0 {
		return
	}
	// The quorum rule. A proposal must keep at least half of the current
	// view. This guards against what the perfect-failure-detector model
	// excludes but an overloaded host manufactures: a small live faction
	// that falsely suspects the rest would mint a rump view carrying the
	// same epoch as the majority's next view (chaos seed
	// 1785168074707084626). A strict minority never proposes; the
	// majority's NEWVIEW or Fence evicts it, or it rejoins the majority's
	// next view.
	cur := m.view.Ring.Members()
	kept := m.keptOfCurrent(members)
	if 2*kept < len(cur) {
		return
	}
	if 2*kept == len(cur) && !(m.halfDeferred && now.After(m.changeDue)) {
		// Exactly half. Half the view really can die at once (the old
		// coordinator and another member crashing mid-change), and the
		// survivors cannot tell that from a newer view that left us behind
		// (ledger row C) or from the other half of an even split doing the
		// same. So every exactly-half proposal probes the rest of the view
		// and waits, re-probing on every tick: a newer view answers and
		// evicts us (handleFence), and only silence for the whole wait lets
		// us mint. The half holding the view's lowest ID waits one
		// ChangeTimeout, the other half two, so the favoured half's NEWVIEW
		// reaches the other first. A collection already in flight is
		// dropped: it was started for a membership this suspicion has
		// outdated, like any collection a new proposal replaces. Residual:
		// an even split whose halves both falsely suspect each other still
		// forks if its links stay cut through both waits, or if the waits
		// end together and the two NEWVIEWs cross.
		if !m.halfDeferred {
			wait := m.cfg.ChangeTimeout
			if lowest := slices.Min(cur); !slices.Contains(members, lowest) && !m.leavers[lowest] {
				wait *= 2
			}
			m.halfDeferred = true
			m.changing = true
			m.changeDue = now.Add(wait)
			m.collected = nil
			m.probe()
			m.log.Info("view change deferred: even split", "kept", kept, "view_n", len(cur), "wait", wait)
		}
		return
	}
	m.halfDeferred = false
	m.myEpoch = max(m.hiEpoch, m.myEpoch) + 1
	m.proposed = members
	m.proposedT = min(m.cfg.T, len(members)-1)
	m.collected = make(map[ring.ProcID]*State)
	m.log.Info("view change start",
		"epoch", m.myEpoch, "coordinator", uint32(m.cfg.Self),
		"members", len(members), "t", m.proposedT)
	prep := &Prepare{Epoch: m.myEpoch, Coord: m.cfg.Self, Members: members, T: m.proposedT}
	payload := EncodePrepare(prep)
	for _, p := range members {
		if p != m.cfg.Self {
			m.cfg.Callbacks.Send(p, payload)
		}
	}
	// Handle our own prepare directly.
	m.handlePrepare(prep, now)
}

// HandlePayload decodes and dispatches one KindVSC payload.
func (m *Manager) HandlePayload(from ring.ProcID, payload []byte, now time.Time) error {
	msg, err := Decode(payload)
	if err != nil {
		return err
	}
	switch v := msg.(type) {
	case *Prepare:
		m.handlePrepare(v, now)
	case *State:
		m.handleState(v, now)
	case *NewView:
		m.handleNewView(v, now)
	case *JoinReq:
		m.handleJoinReq(v, now)
	case *LeaveReq:
		m.handleLeaveReq(v, now)
	case *Suspicion:
		m.handleSuspicion(from, v.ID, now)
	case *EpochSuspicion:
		if v.Epoch >= m.view.ID {
			m.handleSuspicion(from, v.ID, now)
		}
	case *Fence:
		m.handleFence(from, v)
	default:
		return fmt.Errorf("vsc: unhandled control message %T", msg)
	}
	return nil
}

// handleSuspicion folds a relayed suspicion in as if the local detector
// had raised it. A report about self is ignored — we cannot fail-stop on
// hearsay; if the group agrees, its NEWVIEW will exclude us and THAT is
// the eviction signal. So is a report from outside our view: a member the
// group left behind suspects everyone who stopped heartbeating it, and
// must not get them evicted. So is one raised in an older view, which may
// have readmitted the suspect since (ledger row N; HandlePayload drops it).
// OnSuspect's own routing then applies: act if we coordinate, forward
// along if someone earlier in the view is still alive by our books (the
// report may race our own detector's view of the coordinator).
func (m *Manager) handleSuspicion(from, suspect ring.ProcID, now time.Time) {
	if suspect == m.cfg.Self || !m.view.Ring.Contains(suspect) || !m.view.Ring.Contains(from) {
		return
	}
	m.log.Info("suspicion relayed", "suspect", uint32(suspect))
	m.OnSuspect(suspect, now)
}

// handlePrepare answers a PREPARE above every epoch this member has
// promised, and promises its epoch: a member answers at most one PREPARE
// per epoch, the first to arrive. hiEpoch is set at every install, so the
// installed view's epoch counts as promised.
func (m *Manager) handlePrepare(p *Prepare, now time.Time) {
	if !slices.Contains(p.Members, m.cfg.Self) {
		return // not part of that future; ignore
	}
	if p.Epoch <= m.hiEpoch {
		return
	}
	m.hiEpoch = p.Epoch
	m.changing = true
	m.changeDue = now.Add(m.cfg.ChangeTimeout)
	if p.Coord == m.cfg.Self {
		// Of two coordinators (one falsely suspecting the other), the one
		// earlier in the view restarts first, above the other's promise,
		// instead of both colliding at each next epoch (package doc).
		pos, _ := m.view.Ring.Position(m.cfg.Self)
		m.changeDue = now.Add(time.Duration(pos+1) * m.cfg.ChangeTimeout)
	}
	// Freeze once per change: the snapshot taken for the highest prepare
	// is the one that counts; a restarted change snapshots again (the
	// engine is frozen, so the state is unchanged since the last one).
	snap := m.cfg.Callbacks.Snapshot()
	m.snapshot = &snap
	st := &State{Epoch: p.Epoch, From: m.cfg.Self, Joiner: !m.installed, Recovery: snap}
	if p.Coord == m.cfg.Self {
		m.handleState(st, now)
		return
	}
	m.cfg.Callbacks.Send(p.Coord, EncodeState(st))
}

func (m *Manager) handleState(s *State, now time.Time) {
	if s.Epoch != m.myEpoch || m.collected == nil {
		return // stale or not coordinating
	}
	if !slices.Contains(m.proposed, s.From) {
		return
	}
	m.collected[s.From] = s
	if len(m.collected) < len(m.proposed) {
		return
	}
	// Everyone answered: merge non-joiner states and finalize.
	var states []core.RecoveryState
	for _, p := range m.proposed {
		if st := m.collected[p]; !st.Joiner {
			states = append(states, st.Recovery)
		}
	}
	if len(states) == 0 {
		// A brand-new group (all joiners, e.g. bootstrap): empty history.
		states = append(states, core.RecoveryState{NextDeliver: 1})
	}
	sync, err := core.MergeRecovery(states)
	if err != nil {
		// Impossible under the protocol; treat as fatal for this change
		// and let the timeout retry with fresh snapshots.
		m.collected = nil
		return
	}
	nv := &NewView{
		Epoch:   m.myEpoch,
		Coord:   m.cfg.Self,
		Members: m.proposed,
		T:       m.proposedT,
		Sync:    *sync,
	}
	payload := EncodeNewView(nv)
	for _, p := range m.proposed {
		if p != m.cfg.Self {
			m.cfg.Callbacks.Send(p, payload)
		}
	}
	// Graceful leavers are outside the new membership but still deserve to
	// learn the change went through (they evict themselves on receipt).
	for _, p := range slices.Sorted(maps.Keys(m.leavers)) {
		if p != m.cfg.Self && !slices.Contains(m.proposed, p) {
			m.cfg.Callbacks.Send(p, payload)
		}
	}
	// Best-effort notification to every other excluded old-view member.
	// Under a perfect failure detector they are dead and the send costs
	// nothing; if one is actually alive (suspicion provoked by overload —
	// a model violation), receiving the NEWVIEW makes it evict itself and
	// fail-stop. Without this, a live evictee never learns the group moved
	// on: it keeps its stale view, its failure detector eventually
	// "suspects" the silent majority, and it drifts into a rump group that
	// can absorb rejoining members — a partition that P promises cannot
	// form but an overloaded host can still manufacture.
	for _, p := range m.view.Ring.Members() {
		if p != m.cfg.Self && !slices.Contains(m.proposed, p) && !m.leavers[p] {
			m.cfg.Callbacks.Send(p, payload)
		}
	}
	m.handleNewView(nv, now)
}

func (m *Manager) handleNewView(nv *NewView, now time.Time) {
	if nv.Epoch <= m.view.ID {
		return // stale
	}
	if !slices.Contains(nv.Members, m.cfg.Self) {
		m.excluded(nv.Epoch, nv.Members)
		return
	}
	r, err := ring.New(nv.Members, min(nv.T, len(nv.Members)-1))
	if err != nil {
		return // malformed; timeout will retry
	}
	v := core.View{ID: nv.Epoch, Ring: r}
	var rebroadcast []core.PendingMsg
	if m.snapshot != nil && m.installed {
		rebroadcast = m.snapshot.Rebroadcast(&nv.Sync)
	}
	m.view = v
	m.alive = make(map[ring.ProcID]bool, len(nv.Members))
	for _, p := range nv.Members {
		m.alive[p] = true
	}
	m.joiners = make(map[ring.ProcID]bool)
	m.leavers = make(map[ring.ProcID]bool)
	m.rotate = false
	m.changing = false
	m.halfDeferred = false
	m.suspFwdDue = time.Time{}
	m.snapshot = nil
	m.collected = nil
	m.hiEpoch = nv.Epoch
	m.installed = true
	m.contacts, m.joinDue = nil, time.Time{}
	m.cfg.Callbacks.Install(v, &nv.Sync, rebroadcast, now)
}

// excluded handles an agreed view newer than ours that leaves us out.
func (m *Manager) excluded(epoch uint64, members []ring.ProcID) {
	if !m.installed {
		// A joiner awaiting admission can see the view that evicted its
		// crashed previous incarnation (the coordinator notifies excluded
		// old-view members best-effort, and the restarted process answers
		// on the same transport identity). It was never a member of that
		// view, so this is not its eviction.
		return
	}
	// Excluded: graceful leave honored (or false suspicion — cannot happen
	// with P, but do not silently diverge).
	m.changing = false
	m.halfDeferred = false
	m.log.Warn("excluded from view", "epoch", epoch, "members", len(members))
	if m.cfg.Callbacks.Evicted != nil {
		m.cfg.Callbacks.Evicted()
	}
}

// handleFence is the stale-view fence. The coordinator tells excluded
// members about a new view once, best effort; a one-way cut can eat that
// NEWVIEW, and afterwards nothing reaches the member left behind: ring
// frames of its old view are dropped, heartbeats stop, and prepares with
// old epochs are ignored. It stalls in its old view, probing with a Fence
// (see Tick). A member holding a newer view answers with its own Fence,
// and a newer view that leaves us out is exactly the exclusion its NEWVIEW
// would have delivered: we fail-stop, and the restart rejoins. A newer view
// that includes us means its NEWVIEW was lost on the way to us. We cannot
// install it without the sync, and nothing else would move us: the group
// counts us in, and our heartbeats keep its detectors quiet. So we
// fail-stop on that one too, and the group's detectors then exclude us.
func (m *Manager) handleFence(from ring.ProcID, f *Fence) {
	if !m.installed {
		return
	}
	switch {
	case f.Epoch > m.view.ID:
		m.excluded(f.Epoch, f.Members)
	case f.Epoch < m.view.ID:
		m.cfg.Callbacks.Send(from, EncodeFence(&Fence{Epoch: m.view.ID, Members: m.view.Ring.Members()}))
	}
}

func (m *Manager) handleJoinReq(j *JoinReq, now time.Time) {
	if _, isSelf := m.coordinator(); !isSelf {
		return // joiner contacts everyone; only the coordinator acts
	}
	if m.alive[j.ID] && m.view.Ring.Contains(j.ID) {
		// A JoinReq from a current member is a restarted incarnation: the
		// old process died and came back (fail-stop, possibly before the
		// failure detector reacted — the new incarnation's heartbeats keep
		// the ID looking alive). The new incarnation's engine sits in its
		// bootstrap view, discarding ring traffic as stale, so without
		// intervention the group would wedge. A membership-preserving view
		// change resynchronizes it: the flush treats it as a joiner (its
		// Manager reports Joiner state until it installs a view) and
		// re-bases its engine on the survivors' merged recovery state.
		// Incarnation numbers deduplicate retransmitted requests from the
		// same life, which would otherwise churn views forever.
		if j.Incarnation <= m.incarnations[j.ID] {
			return
		}
		m.incarnations[j.ID] = j.Incarnation
		m.startChange(now)
		return
	}
	if m.joiners[j.ID] {
		return
	}
	m.joiners[j.ID] = true
	if j.Incarnation > m.incarnations[j.ID] {
		m.incarnations[j.ID] = j.Incarnation
	}
	m.startChange(now)
}

func (m *Manager) handleLeaveReq(l *LeaveReq, now time.Time) {
	if _, isSelf := m.coordinator(); !isSelf {
		return
	}
	if !m.view.Ring.Contains(l.ID) {
		return
	}
	m.leavers[l.ID] = true
	m.startChange(now)
}
