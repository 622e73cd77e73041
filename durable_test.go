package fsr_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fsr"
	"fsr/transport/mem"
)

// kvOp is the command vocabulary of the test state machine.
type kvOp struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// appliedRec is one applied message as the state machine saw it — the unit
// of the replication invariant.
type appliedRec struct {
	Seq     uint64     `json:"seq"`
	Origin  fsr.ProcID `json:"origin"`
	Payload string     `json:"payload"`
}

// kvSM is a replicated key-value store that also records the exact applied
// sequence, so tests can assert "no gap, no duplicate, no reorder" rather
// than just final-state equality. The applied log rides inside the
// snapshot: a replica rebuilt via state transfer still carries the full
// history for comparison.
type kvSM struct {
	mu       sync.Mutex
	store    map[string]string
	log      []appliedRec
	bad      []appliedRec // messages whose payload failed to parse (test diagnostics)
	restores int
}

func newKVSM() *kvSM { return &kvSM{store: make(map[string]string)} }

func (s *kvSM) Apply(m fsr.Message) {
	var op kvOp
	if err := json.Unmarshal(m.Payload, &op); err != nil {
		s.mu.Lock()
		s.bad = append(s.bad, appliedRec{Seq: m.Seq, Origin: m.Origin, Payload: string(m.Payload)})
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store[op.Key] = op.Value
	s.log = append(s.log, appliedRec{Seq: m.Seq, Origin: m.Origin, Payload: string(m.Payload)})
}

type kvSnap struct {
	Store map[string]string `json:"store"`
	Log   []appliedRec      `json:"log"`
}

func (s *kvSM) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(kvSnap{Store: s.store, Log: s.log})
}

func (s *kvSM) Restore(data []byte) error {
	var snap kvSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = snap.Store
	if s.store == nil {
		s.store = make(map[string]string)
	}
	s.log = snap.Log
	s.restores++
	return nil
}

func (s *kvSM) appliedLog() []appliedRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]appliedRec(nil), s.log...)
}

func (s *kvSM) get(k string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store[k]
}

func (s *kvSM) badCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bad)
}

func (s *kvSM) storeCopy() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.store))
	for k, v := range s.store {
		out[k] = v
	}
	return out
}

// smRegistry hands out state machines per member and remembers the latest
// instance (Cluster.Restart builds a fresh one for the new incarnation).
type smRegistry struct {
	mu  sync.Mutex
	sms map[fsr.ProcID]*kvSM
}

func newSMRegistry() *smRegistry { return &smRegistry{sms: make(map[fsr.ProcID]*kvSM)} }

func (r *smRegistry) factory(id fsr.ProcID) fsr.StateMachine {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm := newKVSM()
	r.sms[id] = sm
	return sm
}

func (r *smRegistry) get(id fsr.ProcID) *kvSM {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sms[id]
}

// durableConfig is fastConfig plus aggressive durability settings: small
// protocol segments (so some writes are multi-part), frequent snapshots
// and tiny WAL segments (so truncation and state transfer actually
// happen in-test).
func durableConfig() fsr.Config {
	cfg := fastConfig()
	cfg.SegmentSize = 256
	cfg.SnapshotEvery = 48
	cfg.WALSegmentBytes = 2048
	return cfg
}

// write broadcasts one kv op from the given node and returns the receipt.
func write(t *testing.T, node *fsr.Node, key, value string) *fsr.Receipt {
	t.Helper()
	payload, err := json.Marshal(kvOp{Key: key, Value: value})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r, err := node.Session().Publish(ctx, payload)
	if err != nil {
		t.Fatalf("broadcast from %d: %v", node.Self(), err)
	}
	return r
}

// writeBatch issues writes round-robin across nodes and waits until all
// are uniformly delivered. Values longer than the protocol segment size
// exercise multi-part reassembly across crash/restart boundaries.
func writeBatch(t *testing.T, nodes []*fsr.Node, start, count int) {
	t.Helper()
	var receipts []*fsr.Receipt
	for i := start; i < start+count; i++ {
		node := nodes[i%len(nodes)]
		val := fmt.Sprintf("v%d", i)
		if i%7 == 0 {
			// ~600 bytes: three protocol segments at SegmentSize 256.
			val = fmt.Sprintf("long-%d-%s", i, string(make([]byte, 600)))
		}
		receipts = append(receipts, write(t, node, fmt.Sprintf("key-%d", i%13), val))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, r := range receipts {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("write %d not durable: %v", start+i, err)
		}
	}
}

// waitAppliedLogs polls until every listed state machine has applied
// exactly `want` messages, then returns their logs.
func waitAppliedLogs(t *testing.T, reg *smRegistry, ids []fsr.ProcID, want int) map[fsr.ProcID][]appliedRec {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		logs := make(map[fsr.ProcID][]appliedRec, len(ids))
		ready := true
		for _, id := range ids {
			l := reg.get(id).appliedLog()
			logs[id] = l
			if len(l) != want {
				ready = false
			}
		}
		if ready {
			for _, id := range ids {
				if bad := reg.get(id).badCount(); bad != 0 {
					t.Fatalf("node %d applied %d unparseable payloads (corrupt reassembly)", id, bad)
				}
			}
			return logs
		}
		if time.Now().After(deadline) {
			for _, id := range ids {
				t.Logf("node %d applied %d/%d", id, len(logs[id]), want)
			}
			t.Fatal("state machines never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSameAppliedLog is the replication invariant: two replicas applied
// exactly the same messages in exactly the same order — no gap, no
// duplicate, no reorder — with strictly increasing sequence numbers.
func assertSameAppliedLog(t *testing.T, ref, got []appliedRec, who string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s applied %d messages, reference %d", who, len(got), len(ref))
	}
	var prev uint64
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s diverged at %d: %+v vs %+v", who, i, got[i], ref[i])
		}
		if got[i].Seq <= prev {
			t.Fatalf("%s: seq not strictly increasing at %d: %d after %d", who, i, got[i].Seq, prev)
		}
		prev = got[i].Seq
	}
}

// TestClusterRestartCatchUpExactPrefix is the crash-restart invariant: a
// member killed mid-traffic and restarted from its WAL re-derives exactly
// the same applied sequence as a replica that never crashed — the
// pre-crash prefix from snapshot+WAL replay, the missed middle from
// catch-up, and the tail live.
func TestClusterRestartCatchUpExactPrefix(t *testing.T) {
	reg := newSMRegistry()
	cfg := fsr.ClusterConfig{
		N: 4, T: 1,
		NodeConfig: durableConfig(),
	}.WithDurableDir(t.TempDir()).WithStateMachines(reg.factory)
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ids := cluster.IDs()

	// Phase A: traffic with every member up.
	writeBatch(t, cluster.Nodes(), 0, 120)

	// Kill member 2 (fail-stop: endpoint dropped, in-flight traffic lost).
	cluster.Crash(2)
	if _, ok := cluster.WaitView(0, 3, 20*time.Second); !ok {
		t.Fatal("survivors never evicted the crashed member")
	}
	preCrash := len(reg.get(ids[2]).appliedLog())

	// Phase B: traffic the crashed member misses entirely.
	survivors := []*fsr.Node{cluster.Node(0), cluster.Node(1), cluster.Node(3)}
	writeBatch(t, survivors, 120, 120)

	// Restart in place from the durable directory.
	rn, err := cluster.Restart(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.WaitView(2, 4, 30*time.Second); !ok {
		t.Fatal("restarted member never readmitted")
	}
	restartedSM := reg.get(ids[2])
	if got := len(restartedSM.appliedLog()); got < preCrash {
		t.Fatalf("WAL replay lost history: %d applied after restart, %d before crash", got, preCrash)
	}

	// Phase C: traffic with the restarted member participating again
	// (its own broadcasts block until catch-up completes, then flow).
	writeBatch(t, []*fsr.Node{cluster.Node(0), cluster.Node(1), rn, cluster.Node(3)}, 240, 60)

	logs := waitAppliedLogs(t, reg, ids, 300)
	ref := logs[ids[0]]
	for _, id := range ids[1:] {
		assertSameAppliedLog(t, ref, logs[id], fmt.Sprintf("node %d", id))
	}
	// And the store contents agree with the log agreement.
	for _, id := range ids[1:] {
		for k, v := range reg.get(ids[0]).storeCopy() {
			if got := reg.get(id).get(k); got != v {
				t.Fatalf("node %d: %s=%q, want %q", id, k, got, v)
			}
		}
	}
	if m := rn.Metrics(); m.Applied == 0 || m.CatchingUp {
		t.Fatalf("restarted node metrics: %+v", m)
	}
}

// TestJoinerFullStateTransfer: a brand-new durable member (empty WAL)
// joins a group whose members have long since snapshotted and truncated
// the history it needs; the catch-up must bridge the gap with a snapshot
// transfer and leave the joiner with the identical applied history.
func TestJoinerFullStateTransfer(t *testing.T) {
	reg := newSMRegistry()
	base := t.TempDir()
	cfg := fsr.ClusterConfig{
		N: 3, T: 1,
		NodeConfig: durableConfig(),
	}.WithDurableDir(base).WithStateMachines(reg.factory)
	network := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ids := cluster.IDs()

	// Enough traffic that every member snapshotted (SnapshotEvery 48) and
	// truncated WAL segments (2 KiB each) behind the snapshot.
	writeBatch(t, cluster.Nodes(), 0, 200)

	// A fresh durable member joins.
	ep, err := network.Join(9)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := durableConfig()
	jcfg.Self = 9
	jcfg.Joiner = true
	jcfg.Members = ids
	jcfg = jcfg.WithDurableDir(base + "/node-9").WithStateMachine(reg.factory(9))
	joiner, err := fsr.NewNode(jcfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	if !joiner.Join(ids) {
		t.Fatal("join not accepted")
	}

	logs := waitAppliedLogs(t, reg, append(ids, 9), 200)
	assertSameAppliedLog(t, logs[ids[0]], logs[9], "joiner")

	// More live traffic after the transfer keeps everyone in lockstep.
	writeBatch(t, cluster.Nodes(), 200, 40)
	logs = waitAppliedLogs(t, reg, append(ids, 9), 240)
	assertSameAppliedLog(t, logs[ids[0]], logs[9], "joiner (live)")
}

// TestRestartWithoutTraffic: restarting into a quiet group must converge
// (the catch-up has nothing to fetch) and keep the pre-crash state.
func TestRestartWithoutTraffic(t *testing.T) {
	reg := newSMRegistry()
	cfg := fsr.ClusterConfig{
		N: 3, T: 1,
		NodeConfig: durableConfig(),
	}.WithDurableDir(t.TempDir()).WithStateMachines(reg.factory)
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ids := cluster.IDs()

	writeBatch(t, cluster.Nodes(), 0, 60)
	cluster.Crash(1)
	if _, ok := cluster.WaitView(0, 2, 20*time.Second); !ok {
		t.Fatal("no eviction")
	}
	if _, err := cluster.Restart(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.WaitView(1, 3, 30*time.Second); !ok {
		t.Fatal("no readmission")
	}
	logs := waitAppliedLogs(t, reg, ids, 60)
	assertSameAppliedLog(t, logs[ids[0]], logs[ids[1]], "restarted node")
}

// TestRestartOverTCP runs the kill-and-restart cycle over real sockets:
// the restarted member binds a fresh ephemeral port, peers re-learn its
// address through the cluster transport, and the bounded dial retry
// bridges the window where connections are re-established.
func TestRestartOverTCP(t *testing.T) {
	reg := newSMRegistry()
	// Real sockets plus fsync-heavy pumps on a loaded (possibly single-CPU)
	// CI box can starve an event loop for longer than the mem-transport
	// tests tolerate; the failure timeout must stay above such stalls or
	// the perfect-failure-detector assumption breaks and the group splits.
	nc := durableConfig()
	nc.HeartbeatInterval = 20 * time.Millisecond
	nc.FailureTimeout = 600 * time.Millisecond
	nc.ChangeTimeout = 500 * time.Millisecond
	cfg := fsr.ClusterConfig{
		N: 3, T: 1,
		NodeConfig: nc,
	}.WithDurableDir(t.TempDir()).WithStateMachines(reg.factory)
	cluster, err := fsr.NewCluster(cfg, fsr.TCPTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ids := cluster.IDs()

	writeBatch(t, cluster.Nodes(), 0, 60)
	cluster.Crash(1)
	if _, ok := cluster.WaitView(0, 2, 20*time.Second); !ok {
		t.Fatal("no eviction")
	}
	writeBatch(t, []*fsr.Node{cluster.Node(0), cluster.Node(2)}, 60, 60)
	if _, err := cluster.Restart(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.WaitView(1, 3, 30*time.Second); !ok {
		t.Fatal("no readmission")
	}
	writeBatch(t, cluster.Nodes(), 120, 30)
	logs := waitAppliedLogs(t, reg, ids, 150)
	assertSameAppliedLog(t, logs[ids[0]], logs[ids[1]], "restarted node (tcp)")
}
