// Replicated key-value store: the paper's motivating use case (§1) —
// software-based fault tolerance by state machine replication. Every
// replica holds a full copy of the store; every write is TO-broadcast, so
// all replicas apply the same operations in the same order and stay
// identical, with no locks and no cross-replica coordination beyond FSR.
//
// This version runs on the durable StateMachine API: each replica keeps a
// write-ahead log and snapshots under a durable directory, one member is
// killed mid-traffic (fail-stop: its endpoint drops, in-flight state is
// lost) and later restarted in place — it rebuilds the store from
// snapshot + WAL, fetches the writes it missed from its peers (catch-up),
// and rejoins the live total order.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fsr"
)

// op is one state machine command.
type op struct {
	Kind  string `json:"kind"` // "set" or "del"
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// kvStore is the replicated state machine: a map plus an applied counter.
// Apply runs on the node's delivery goroutine in total order; Snapshot and
// Restore make it durable across crash-restarts.
type kvStore struct {
	mu      sync.Mutex
	Store   map[string]string `json:"store"`
	Applied int               `json:"applied"`
}

func newKVStore() *kvStore { return &kvStore{Store: make(map[string]string)} }

func (s *kvStore) Apply(m fsr.Message) {
	var o op
	if err := json.Unmarshal(m.Payload, &o); err != nil {
		return // not ours
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch o.Kind {
	case "set":
		s.Store[o.Key] = o.Value
	case "del":
		delete(s.Store, o.Key)
	}
	s.Applied++
}

func (s *kvStore) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(s)
}

func (s *kvStore) Restore(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := json.Unmarshal(data, s); err != nil {
		return err
	}
	if s.Store == nil {
		s.Store = make(map[string]string)
	}
	return nil
}

func (s *kvStore) appliedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Applied
}

// fingerprint renders the store deterministically for comparison.
func (s *kvStore) fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.Store))
	for k := range s.Store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%s;", k, s.Store[k])
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "replicated-kv: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const replicas = 4
	dir, err := os.MkdirTemp("", "replicated-kv-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One kvStore replica per member; the registry survives restarts so we
	// can inspect the fresh incarnation's store afterwards.
	var mu sync.Mutex
	stores := make(map[fsr.ProcID]*kvStore)
	factory := func(id fsr.ProcID) fsr.StateMachine {
		mu.Lock()
		defer mu.Unlock()
		s := newKVStore()
		stores[id] = s
		return s
	}
	storeOf := func(id fsr.ProcID) *kvStore {
		mu.Lock()
		defer mu.Unlock()
		return stores[id]
	}

	cfg := fsr.ClusterConfig{
		N: replicas,
		T: 1,
		NodeConfig: fsr.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			FailureTimeout:    150 * time.Millisecond,
			ChangeTimeout:     300 * time.Millisecond,
			SnapshotEvery:     32, // small, so the demo actually snapshots
		},
	}.WithDurableDir(dir).WithStateMachines(factory)
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(nil))
	if err != nil {
		return err
	}
	defer cluster.Stop()
	ids := cluster.IDs()

	ctx := context.Background()
	writeAll := func(nodes []*fsr.Node, from, to int) error {
		var receipts []*fsr.Receipt
		for i := from; i < to; i++ {
			payload, err := json.Marshal(op{
				Kind: "set", Key: fmt.Sprintf("key-%d", i%11), Value: fmt.Sprintf("v%d", i),
			})
			if err != nil {
				return err
			}
			// A synchronous write: the receipt resolves once the op is
			// uniformly stable (stored by leader + T backups) and durable
			// and applied at the publishing replica.
			r, err := nodes[i%len(nodes)].Session().Publish(ctx, payload)
			if err != nil {
				return err
			}
			receipts = append(receipts, r)
		}
		for _, r := range receipts {
			if err := r.Wait(ctx); err != nil {
				return fmt.Errorf("write not durable: %w", err)
			}
		}
		return nil
	}

	// Phase 1: writes with every replica up.
	if err := writeAll(cluster.Nodes(), 0, 100); err != nil {
		return err
	}
	fmt.Println("phase 1: 100 writes committed on 4 replicas")

	// Kill replica 2 — fail-stop, like SIGKILL: its endpoint drops off the
	// network and whatever it had in memory is gone. Its WAL and
	// snapshots stay on disk.
	cluster.Crash(2)
	if _, ok := cluster.WaitView(0, replicas-1, 10*time.Second); !ok {
		return fmt.Errorf("survivors never evicted the crashed replica")
	}
	fmt.Printf("replica %d killed; survivors continue\n", ids[2])

	// Phase 2: writes the dead replica misses entirely.
	survivors := []*fsr.Node{cluster.Node(0), cluster.Node(1), cluster.Node(3)}
	if err := writeAll(survivors, 100, 200); err != nil {
		return err
	}
	fmt.Println("phase 2: 100 writes committed while one replica is down")

	// Restart it in place: snapshot + WAL replay, then catch-up.
	rn, err := cluster.Restart(2)
	if err != nil {
		return err
	}
	if _, ok := cluster.WaitView(2, replicas, 15*time.Second); !ok {
		return fmt.Errorf("restarted replica never readmitted")
	}
	fmt.Printf("replica %d restarted: recovered from WAL, catching up\n", ids[2])

	// Phase 3: live writes with the restarted replica participating.
	if err := writeAll(cluster.Nodes(), 200, 240); err != nil {
		return err
	}

	// Wait for every replica — including the restarted one — to apply all
	// 240 writes, then compare stores.
	deadline := time.Now().Add(15 * time.Second)
	for {
		done := true
		for _, id := range ids {
			if storeOf(id).appliedCount() != 240 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas never converged (restarted at %d/240)",
				storeOf(ids[2]).appliedCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ref := storeOf(ids[0]).fingerprint()
	for _, id := range ids[1:] {
		if got := storeOf(id).fingerprint(); got != ref {
			return fmt.Errorf("replica %d diverged: %s", id, got)
		}
	}
	fmt.Printf("restarted replica applied all 240 writes (metrics: applied=%d)\n",
		rn.Metrics().Applied)
	fmt.Printf("all %d replicas identical after kill-and-restart ✔\n", replicas)

	// Offset-resumable consumption: a fresh subscriber asking for the
	// order from offset 1 is far below the WAL truncation point by now
	// (SnapshotEvery is small), so the stream starts with a state
	// snapshot — the kvStore covering everything up to its offset — and
	// continues with the retained tail, gap-free.
	sawSnapshot := false
	replayed := 0
	var snapAt fsr.Offset
	for off, m := range cluster.Node(0).Session().Subscribe(ctx, 1) {
		if m.Snapshot {
			restored := newKVStore()
			if err := restored.Restore(m.Payload); err != nil {
				return fmt.Errorf("subscription snapshot at %d: %w", off, err)
			}
			sawSnapshot, snapAt = true, off
			replayed = restored.appliedCount()
		} else {
			replayed++
		}
		if replayed == 240 { // the snapshot alone may already cover them all
			break
		}
	}
	if !sawSnapshot {
		return fmt.Errorf("resume below truncation did not start with a snapshot")
	}
	fmt.Printf("late subscriber: snapshot at offset %d, then the tail — all 240 writes covered ✔\n", snapAt)
	return nil
}
