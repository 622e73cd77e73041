// Package ring provides the ring-topology arithmetic used by the FSR
// protocol: member positions relative to the leader, successor/predecessor
// lookup, clockwise distances, and the acknowledgment hop budget derived in
// the paper's Section 4.
//
// A Ring is an immutable ordered list of process IDs. Position 0 is the
// leader (the fixed sequencer); positions 1..T are the backup processes;
// the rest are standard processes. All protocol traffic flows "clockwise",
// i.e. from position j to position (j+1) mod n.
package ring

import (
	"fmt"
	"slices"
)

// ProcID uniquely identifies a process in the group.
type ProcID uint32

// Ring is an immutable ring of processes. The zero value is an empty ring.
type Ring struct {
	members []ProcID
	pos     map[ProcID]int
	t       int // number of backup processes (tolerated failures)
}

// New builds a ring from an ordered member list. members[0] is the leader.
// t is the number of tolerated failures (and therefore backups); it must
// satisfy 0 <= t < len(members). The slice is copied.
func New(members []ProcID, t int) (*Ring, error) {
	n := len(members)
	if n == 0 {
		return nil, fmt.Errorf("ring: empty member list")
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("ring: t=%d out of range [0,%d)", t, n)
	}
	pos := make(map[ProcID]int, n)
	for i, id := range members {
		if _, dup := pos[id]; dup {
			return nil, fmt.Errorf("ring: duplicate member %d", id)
		}
		pos[id] = i
	}
	return &Ring{members: slices.Clone(members), pos: pos, t: t}, nil
}

// MustNew is New but panics on invalid input. For tests and literals.
func MustNew(members []ProcID, t int) *Ring {
	r, err := New(members, t)
	if err != nil {
		panic(err)
	}
	return r
}

// N returns the number of processes in the ring.
func (r *Ring) N() int { return len(r.members) }

// T returns the number of tolerated failures (backup processes).
func (r *Ring) T() int { return r.t }

// Members returns a copy of the ordered member list.
func (r *Ring) Members() []ProcID { return slices.Clone(r.members) }

// Leader returns the fixed sequencer (position 0).
func (r *Ring) Leader() ProcID { return r.members[0] }

// Contains reports whether id is a member of the ring.
func (r *Ring) Contains(id ProcID) bool {
	_, ok := r.pos[id]
	return ok
}

// Position returns the ring position of id relative to the leader
// (leader = 0). The second result is false if id is not a member.
func (r *Ring) Position(id ProcID) (int, bool) {
	p, ok := r.pos[id]
	return p, ok
}

// At returns the process at ring position j (taken modulo n, negatives
// allowed).
func (r *Ring) At(j int) ProcID {
	n := len(r.members)
	j %= n
	if j < 0 {
		j += n
	}
	return r.members[j]
}

// Successor returns the clockwise neighbor of id, i.e. the only process id
// ever sends protocol messages to.
func (r *Ring) Successor(id ProcID) (ProcID, bool) {
	p, ok := r.pos[id]
	if !ok {
		return 0, false
	}
	return r.At(p + 1), true
}

// Predecessor returns the counter-clockwise neighbor of id.
func (r *Ring) Predecessor(id ProcID) (ProcID, bool) {
	p, ok := r.pos[id]
	if !ok {
		return 0, false
	}
	return r.At(p - 1), true
}

// Distance returns the number of clockwise hops needed to travel from
// position `from` to position `to` (both modulo n). Distance(x, x) == 0.
func (r *Ring) Distance(from, to int) int {
	n := len(r.members)
	d := (to - from) % n
	if d < 0 {
		d += n
	}
	return d
}

// IsBackup reports whether position j (0-based from the leader) denotes one
// of the t backup processes. The leader itself is not a backup.
func (r *Ring) IsBackup(j int) bool { return j >= 1 && j <= r.t }

// SeqStopPos returns the ring position at which pass B (the sequenced
// message emitted by the leader) stops for a broadcast originated at
// position s: the sender's predecessor. For a leader broadcast (s = 0) this
// is position n-1, i.e. pass B travels the whole ring.
func (r *Ring) SeqStopPos(s int) int {
	return r.Distance(0, s-1+len(r.members))
}

// AckHops returns the ack hop budget — the number of ack *receptions* that
// occur after the pass-B endpoint originates the acknowledgment — for a
// broadcast whose sender sits at position s. Derived from the two cases of
// the paper's Section 4.1 so that the ack terminates at p(t-1) after having
// passed pt, reproducing L(i) = 2n + t - i - 1 (and n + t - 1 for the
// leader):
//
//	s == 0: hops = t
//	s >= 1: hops = n + t - s
func (r *Ring) AckHops(s int) int {
	if s == 0 {
		return r.t
	}
	return len(r.members) + r.t - s
}

// AckStartsStable reports whether the ack for a broadcast from position s is
// already "stable" when originated at the pass-B endpoint p(s-1): true iff
// that endpoint's position is >= t, meaning the sequenced message has
// already transited the leader and all t backups.
func (r *Ring) AckStartsStable(s int) bool {
	return r.SeqStopPos(s) >= r.t
}

// Latency returns the analytical number of rounds from TO-broadcast at
// position s until the last process TO-delivers, in a contention-free run:
// the paper's L(i) = 2n + t - i - 1 for i in [1, n-1], and n + t - 1 for the
// leader (the paper's formula evaluated at i = n).
func (r *Ring) Latency(s int) int {
	n := len(r.members)
	if s == 0 {
		return n + r.t - 1
	}
	return 2*n + r.t - s - 1
}
