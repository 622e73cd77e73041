package harness

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fsr"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// A cluster member is in exactly one of three states in the runner's
// books: up (in alive), down (on the restart queue, crashed), or departed
// (left gracefully; in neither). down and revive are the only moves
// between the first two. A member that halts on its own stays booked up
// until the next reap notices it.

// halted reports whether n stopped on its own: fail-stopped on a fault
// (Err set) or evicted from the group, which halts a node without an error
// — Ready then reports ErrStopped.
func halted(n *fsr.Node) bool {
	return n.Err() != nil || errors.Is(n.Ready(), fsr.ErrStopped)
}

// driveEvents fires the scenario's fault plan on schedule. Before each
// event it reaps, so every event sees members that halted on their own as
// down.
func (r *runner) driveEvents(stop <-chan struct{}) {
	start := time.Now()
	for _, ev := range r.sc.Events {
		if wait := time.Until(start.Add(ev.At)); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-stop:
				// Workload already over: fire the remaining plan immediately
				// (restarts especially must still happen so the checker sees
				// the catch-up).
				timer.Stop()
			}
		}
		r.reap()
		kinds[ev.Kind].fire(r, ev)
	}
}

// reap books every cluster member that halted on its own as down, so a
// restart can bring it back. A poisoned member must not report ready on
// its way down: that is the WAL's fail-stop contract.
func (r *runner) reap() {
	for idx, id := range r.cluster.IDs() {
		n := r.nodeFor(id)
		if n == nil || !halted(n) {
			continue
		}
		if errors.Is(n.Err(), wal.ErrPoisoned) && n.Ready() == nil {
			failf(r.t, r.sc.Seed, "poisoned member %d still reports ready", id)
		}
		r.log.Info("chaos: reaping halted member", "node", uint32(id), "err", n.Err())
		if n.Err() == nil {
			r.mu.Lock()
			r.evicted[id] = true
			r.mu.Unlock()
		}
		r.down(idx)
	}
}

// down books member idx down — out of alive, onto the restart queue — and
// crashes it. For a process that already halted itself, Crash severs its
// transport endpoint so peers observe clean silence. It reports whether
// the member was up.
func (r *runner) down(idx int) bool {
	id := r.cluster.IDs()[idx]
	r.mu.Lock()
	_, up := r.alive[id]
	if up {
		delete(r.alive, id)
		r.crashed = append(r.crashed, idx)
	}
	r.mu.Unlock()
	if up {
		if r.diskFS != nil && idx == r.sc.DiskNode {
			n := r.cluster.Node(idx).Metrics().WAL.Recycled
			r.mu.Lock()
			r.recycled += n
			r.mu.Unlock()
		}
		r.cluster.Crash(idx)
	}
	return up
}

// diskRecycled reports how many segment files the hostile-disk member has
// reused across its incarnations: those banked as each went down, plus the
// running one's.
func (r *runner) diskRecycled() uint64 {
	r.mu.Lock()
	n := r.recycled
	r.mu.Unlock()
	if !r.isDown(r.sc.DiskNode) {
		n += r.cluster.Node(r.sc.DiskNode).Metrics().WAL.Recycled
	}
	return n
}

// revive takes member idx off the restart queue, restarts it from its
// durable directory and books it up; it returns the new incarnation, or
// nil if the member was not down or did not restart. The hostile-disk
// member's injected open faults may abort a few attempts (retried), and a
// corrupt log must NOT be served from: it is wiped and the member re-joins
// via state transfer. Any other member failing to restart is a bug.
func (r *runner) revive(idx int) *fsr.Node {
	r.mu.Lock()
	pos := slices.Index(r.crashed, idx)
	if pos >= 0 {
		r.crashed = slices.Delete(r.crashed, pos, pos+1)
	}
	r.mu.Unlock()
	if pos < 0 {
		return nil
	}
	hostile := r.diskFS != nil && idx == r.sc.DiskNode
	for attempt := 0; ; attempt++ {
		node, err := r.cluster.Restart(idx)
		if err == nil {
			r.mu.Lock()
			r.alive[node.Self()] = node
			r.mu.Unlock()
			return node
		}
		if !hostile || attempt >= 4 {
			failf(r.t, r.sc.Seed, "restart of member %d: %v", idx, err)
			return nil
		}
		if errors.Is(err, wal.ErrCorrupt) {
			r.log.Info("hostile disk: corrupt log on restart, wiping for state transfer",
				"node", idx, "err", err)
			r.wipeDisk(idx)
			continue
		}
		r.log.Info("hostile disk: restart attempt failed, retrying",
			"node", idx, "attempt", attempt, "err", err)
	}
}

// longestDown returns the member down longest, or -1.
func (r *runner) longestDown() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.crashed) == 0 {
		return -1
	}
	return r.crashed[0]
}

func (r *runner) isDown(idx int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Contains(r.crashed, idx)
}

// reviveForChecks runs while the group quiesces after the workload. The
// hostile-disk member, if down, comes back so the checker can hold it to
// prefix agreement and uniformity: its disk takes a final power cut first,
// then calm weather, so recovery is judged on what was honestly durable
// and not hampered by fresh faults. Under ReviveAll every other member
// down comes back too.
func (r *runner) reviveForChecks() {
	r.reap()
	if r.diskFS != nil && r.isDown(r.sc.DiskNode) {
		_ = r.diskFS.Crash()
		r.diskFS.Disarm()
		r.revive(r.sc.DiskNode)
	}
	for idx := r.longestDown(); r.sc.ReviveAll && idx >= 0; idx = r.longestDown() {
		r.revive(idx)
	}
}

// crash fail-stops the leader or a follower, respecting the concurrent
// crash budget T.
func (r *runner) crash(leader bool) {
	ldr := r.leader()
	target := -1
	r.mu.Lock()
	if len(r.crashed) < r.sc.T {
		for i, id := range r.cluster.IDs() {
			if n, ok := r.alive[id]; ok && (n == ldr) == leader {
				target = i
				break
			}
		}
	}
	r.mu.Unlock()
	if target >= 0 {
		r.down(target)
	}
}

// crashDisk is the scheduled power cut of the hostile-disk member: the
// process fail-stops (unless it already halted) and the fault-layer disk
// drops every byte not honestly fsynced — the moment a lying fsync's
// durability claim is put to the test. With the crash budget spent, a
// running member is left running, its disk intact.
func (r *runner) crashDisk() {
	if r.diskFS == nil {
		return
	}
	r.mu.Lock()
	spent := len(r.crashed) >= r.sc.T
	r.mu.Unlock()
	if spent && !r.isDown(r.sc.DiskNode) {
		return
	}
	r.down(r.sc.DiskNode)
	if err := r.diskFS.Crash(); err != nil {
		r.log.Info("hostile disk: power-cut truncation", "err", err)
	}
}

// wipeDisk discards the hostile-disk member's log and snapshots (keeping
// the gen incarnation file, so the member still re-joins as a fresh
// incarnation of itself). Removal goes through the fault layer so its
// per-file tracking stays consistent with the directory contents.
func (r *runner) wipeDisk(idx int) {
	dir := filepath.Join(r.durBase, fmt.Sprintf("node-%d", r.cluster.IDs()[idx]))
	names, err := r.diskFS.ReadDir(dir)
	if err != nil {
		failf(r.t, r.sc.Seed, "wiping hostile disk %d: %v", idx, err)
		return
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".snap") {
			if err := r.diskFS.Remove(filepath.Join(dir, name)); err != nil {
				failf(r.t, r.sc.Seed, "wiping hostile disk %d: %v", idx, err)
			}
		}
	}
}

// upgradeMember is one EvUpgrade step: fail-stop the member, flip its wire
// version to the current build's, restart it from its durable state. If an
// earlier fault already took the member down it is simply restarted
// upgraded.
func (r *runner) upgradeMember(idx int) {
	if !r.down(idx) && !r.isDown(idx) {
		return // departed membership; nothing to upgrade
	}
	id := r.cluster.IDs()[idx]
	r.mu.Lock()
	r.upgraded[id] = true
	r.mu.Unlock()
	r.log.Info("rolling upgrade: restarting member on current wire version",
		"node", uint32(id))
	// A beat of downtime, as a real binary swap has; the rest of the ring
	// keeps serving around the hole.
	time.Sleep(250 * time.Millisecond)
	n := r.revive(idx)
	if n == nil {
		return // restart failed; revive already reported
	}
	// One at a time means one at a time: wait for the member to be
	// readmitted and serving before the plan may take down the next one.
	// Crashing member k+1 while member k is still an unadmitted joiner
	// shrinks the installed group below recovery, and a full rolling pass
	// done that way strands the whole ring as singleton joiners with no
	// group left to admit them.
	r.await(20*time.Second, func() string {
		if n.Ready() == nil && len(n.CurrentView().Members) > 1 {
			return ""
		}
		return fmt.Sprintf("upgraded member %d never rejoined", idx)
	})
}

// wireVersion is the cluster's WireVersion callback under Scenario.Rolling:
// the previous release until EvUpgrade flips the member — the version shim
// a real deployment flips by installing a new binary. Restart consults it.
func (r *runner) wireVersion(id fsr.ProcID) byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.upgraded[id] {
		return wire.CurrentVersion
	}
	return wire.PrevVersion
}

// join admits a brand-new durable member mid-run.
func (r *runner) join() {
	r.mu.Lock()
	if r.nextID == 0 {
		r.nextID = r.cluster.IDs()[len(r.cluster.IDs())-1] + 1
	}
	id := r.nextID
	r.nextID++
	var contacts []fsr.ProcID
	for cid := range r.alive {
		contacts = append(contacts, cid)
	}
	r.mu.Unlock()
	if len(contacts) == 0 {
		return
	}
	ep, err := r.ct.Join(id)
	if err != nil {
		failf(r.t, r.sc.Seed, "join transport endpoint for %d: %v", id, err)
		return
	}
	cfg := r.nodeCfg
	cfg.Self = id
	cfg.Joiner = true
	cfg.Members = contacts
	cfg = cfg.WithDurableDir(fmt.Sprintf("%s/node-%d", r.base, id)).
		WithStateMachine(r.reg.factory(id))
	node, err := fsr.NewNode(cfg, ep)
	if err != nil {
		failf(r.t, r.sc.Seed, "join node %d: %v", id, err)
		return
	}
	node.Join(contacts)
	r.mu.Lock()
	r.alive[id] = node
	r.mu.Unlock()
}

// leave departs a live non-leader veteran gracefully.
func (r *runner) leave() {
	ldr := r.leader()
	r.mu.Lock()
	var node *fsr.Node
	for _, id := range r.cluster.IDs() {
		if n, ok := r.alive[id]; ok && n != ldr {
			node = n
			break
		}
	}
	if node == nil || len(r.alive) <= 2 {
		r.mu.Unlock()
		return // keep a workable group
	}
	delete(r.alive, node.Self())
	r.mu.Unlock()
	node.Leave()
}

// leader returns the live node currently coordinating the group.
func (r *runner) leader() *fsr.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.alive {
		v := n.CurrentView()
		if len(v.Members) > 0 {
			if ldr, ok := r.alive[v.Members[0]]; ok {
				return ldr
			}
		}
	}
	return nil
}

// ringEdge returns the directed ring edge from member idx to its
// successor in the initial membership.
func (r *runner) ringEdge(idx int) (from, to fsr.ProcID) {
	ids := r.cluster.IDs()
	return ids[idx], ids[(idx+1)%len(ids)]
}
