package harness

import (
	"encoding/json"
	"hash/fnv"
	"maps"
	"sync"

	"fsr"
)

// Rec is one applied message as a replica saw it — the unit every checker
// invariant is phrased over. Payloads are kept as a 64-bit FNV-1a hash plus
// length, so a scenario's whole history stays cheap to snapshot and
// transfer.
type Rec struct {
	Seq     uint64     `json:"s"`
	Origin  fsr.ProcID `json:"o"`
	Logical uint64     `json:"l"`
	Hash    uint64     `json:"h"`
	Len     int        `json:"n"`
}

func recOf(m fsr.Message) Rec {
	return Rec{Seq: m.Seq, Origin: m.Origin, Logical: m.LogicalID,
		Hash: hashPayload(m.Payload), Len: len(m.Payload)}
}

func hashPayload(p []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(p)
	return h.Sum64()
}

// Recorder is the harness's replicated state machine: it records the exact
// applied sequence and carries it inside snapshots, so a replica rebuilt
// via state transfer still exposes its full history to the checker.
type Recorder struct {
	mu  sync.Mutex
	log []Rec
}

func (r *Recorder) Apply(m fsr.Message) {
	rec := recOf(m)
	r.mu.Lock()
	r.log = append(r.log, rec)
	r.mu.Unlock()
}

func (r *Recorder) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Marshal(r.log)
}

func (r *Recorder) Restore(data []byte) error {
	var log []Rec
	if err := json.Unmarshal(data, &log); err != nil {
		return err
	}
	r.mu.Lock()
	r.log = log
	r.mu.Unlock()
	return nil
}

// Log returns a copy of the applied history.
func (r *Recorder) Log() []Rec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Rec(nil), r.log...)
}

// registry tracks the latest Recorder incarnation per member (a restart
// builds a fresh instance that rebuilds its log from snapshot + WAL).
type registry struct {
	mu  sync.Mutex
	sms map[fsr.ProcID]*Recorder
}

func (g *registry) factory(id fsr.ProcID) fsr.StateMachine {
	sm := &Recorder{}
	g.mu.Lock()
	g.sms[id] = sm
	g.mu.Unlock()
	return sm
}

// logs snapshots every member's applied history (latest incarnation per
// member, including crashed and departed ones — their prefixes are checked
// too).
func (g *registry) logs() map[fsr.ProcID][]Rec {
	g.mu.Lock()
	sms := maps.Clone(g.sms)
	g.mu.Unlock()
	logs := make(map[fsr.ProcID][]Rec, len(sms))
	for id, sm := range sms {
		logs[id] = sm.Log()
	}
	return logs
}

// check enforces the paper's correctness claims over the recorded applied
// histories after quiescence:
//
//   - Agreement / prefix consistency: every member's applied history —
//     including crashed and departed members' — is an exact prefix of one
//     reference history (no gap, no duplicate, no reorder anywhere).
//   - Uniformity across ≤ t crashes: any message applied by ANY member
//     (even one that crashed right after) is applied by every member live
//     at the end; live members end with identical full histories.
//   - Total order sanity: sequence numbers strictly increase and no
//     (origin, logical ID) pair is ever applied twice, across views,
//     leader failures and identity-preserving rebroadcasts.
//   - FIFO per sender: one origin's messages appear in logical-ID order
//     (incarnation banding keeps this monotone across restarts).
//   - Receipt consistency: a receipt that resolved Delivered names a
//     sequence number at which every live member applied exactly the
//     broadcast's payload; a failed receipt carries a definite error (the
//     liveness half — every receipt resolves — is enforced by the runner).
//   - Crash-restart state equality: restarted members rebuilt from
//     snapshot + WAL + catch-up are bit-identical to replicas that never
//     crashed (subsumed by live-history equality, since the Recorder's
//     state IS its applied history).
//
// note ends the closing log line: the hostile-disk member's injected-fault
// counts, so a run shows which faults it survived.
func check(t TB, sc Scenario, logs map[fsr.ProcID][]Rec, live []fsr.ProcID, sents []sent, note string) {
	t.Helper()
	seed := sc.Seed

	// Reference: the longest applied history anywhere.
	var ref []Rec
	var refID fsr.ProcID
	for id, log := range logs {
		if len(log) > len(ref) {
			ref, refID = log, id
		}
	}

	// Per-log internal sanity: strictly increasing seqs, no duplicate
	// logical identity, FIFO per origin.
	for id, log := range logs {
		var prevSeq uint64
		seen := make(map[[2]uint64]int, len(log))
		lastLogical := make(map[fsr.ProcID]uint64)
		for i, rec := range log {
			if rec.Seq <= prevSeq {
				failf(t, seed, "node %d: seq not strictly increasing at %d: %d after %d (reorder or duplicate delivery)",
					id, i, rec.Seq, prevSeq)
				return
			}
			prevSeq = rec.Seq
			key := [2]uint64{uint64(rec.Origin), rec.Logical}
			if j, dup := seen[key]; dup {
				failf(t, seed, "node %d: message origin=%d logical=%d applied twice (positions %d and %d)",
					id, rec.Origin, rec.Logical, j, i)
				return
			}
			seen[key] = i
			if last, ok := lastLogical[rec.Origin]; ok && rec.Logical <= last {
				failf(t, seed, "node %d: FIFO violation for origin %d at %d: logical %d after %d",
					id, rec.Origin, i, rec.Logical, last)
				return
			}
			lastLogical[rec.Origin] = rec.Logical
		}
	}

	// Agreement: every history is an exact prefix of the reference.
	for id, log := range logs {
		if len(log) > len(ref) {
			continue // impossible by construction
		}
		for i, rec := range log {
			if rec != ref[i] {
				failf(t, seed, "agreement violated: node %d position %d has %+v, node %d has %+v",
					id, i, rec, refID, ref[i])
				return
			}
		}
	}

	// Uniformity: members live at the end hold the full reference history —
	// anything any member ever applied, the survivors all applied.
	for _, id := range live {
		log, ok := logs[id]
		if !ok {
			failf(t, seed, "live member %d recorded no history", id)
			return
		}
		if len(log) != len(ref) {
			failf(t, seed, "uniformity violated: live member %d applied %d messages, member %d applied %d",
				id, len(log), refID, len(ref))
			return
		}
	}

	// Receipt consistency against the reference order.
	bySeq := make(map[uint64]Rec, len(ref))
	for _, rec := range ref {
		bySeq[rec.Seq] = rec
	}
	delivered := 0
	for i, s := range sents {
		if err := s.receipt.Err(); err != nil {
			if s.mustDeliver {
				// Session publishes survive member crashes by failover —
				// exactly-once means exactly once, not at-most-once.
				failf(t, seed, "client publish %d (origin %d, %d bytes) failed instead of committing: %v",
					i, s.origin, s.length, err)
				return
			}
			continue // member broadcast on a crashed node; may or may not appear
		}
		delivered++
		seq := s.receipt.Seq()
		rec, ok := bySeq[seq]
		if !ok {
			failf(t, seed, "receipt %d resolved Delivered at seq %d but no member applied that seq", i, seq)
			return
		}
		if rec.Origin != s.origin || rec.Hash != s.hash || rec.Len != s.length {
			failf(t, seed, "receipt %d (origin %d, %d bytes, hash %x) disagrees with applied record at seq %d: %+v",
				i, s.origin, s.length, s.hash, seq, rec)
			return
		}
	}
	if len(sents) > 0 && delivered == 0 && len(ref) == 0 {
		failf(t, seed, "no broadcast was ever delivered (%d issued)", len(sents))
		return
	}
	t.Logf("checked: %d members (%d live), %d applied, %d/%d receipts delivered [%s]%s",
		len(logs), len(live), len(ref), delivered, len(sents), profileOf(sc.Seed).name, note)
}
