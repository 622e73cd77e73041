package fsr_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fsr"
)

// watchdogPeriod is how long a watched cluster may go without any member's
// applied frontier moving before the watchdog fires. Only tests set it.
var watchdogPeriod = 60 * time.Second

// watchCluster registers t with the watchdog until it ends: if no member of
// c applies anything for watchdogPeriod while t still runs, t fails with
// every goroutine's stack and each member's state (ledger row E: a test that
// idles to its deadline with nothing said about why).
func watchCluster(t testing.TB, c *fsr.Cluster) {
	t.Helper()
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		period := watchdogPeriod
		tick := time.NewTicker(period / 4)
		defer tick.Stop()
		var last []uint64
		moved := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			nodes := c.Nodes()
			applied := make([]uint64, len(nodes))
			for i, n := range nodes {
				applied[i] = n.Applied()
			}
			if !slices.Equal(applied, last) {
				last, moved = applied, time.Now()
				continue
			}
			if time.Since(moved) < period {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "watchdog: no member applied anything for %v\n", period)
			for _, n := range nodes {
				b.WriteString(n.WatchdogState())
				b.WriteByte('\n')
			}
			stacks := make([]byte, 8<<20)
			fmt.Fprintf(&b, "goroutines:\n%s", stacks[:runtime.Stack(stacks, true)])
			t.Errorf("%s", b.String())
			return
		}
	}()
	t.Cleanup(func() { close(done); <-stopped })
}

// blockingSM parks the apply pump: Apply waits until release is closed.
type blockingSM struct{ release chan struct{} }

func (s blockingSM) Apply(fsr.Message)       { <-s.release }
func (blockingSM) Snapshot() ([]byte, error) { return nil, nil }
func (blockingSM) Restore([]byte) error      { return nil }

// reportTB records what the watchdog reports instead of failing the test.
type reportTB struct {
	testing.TB
	mu     sync.Mutex
	report string
}

func (r *reportTB) Errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.report = fmt.Sprintf(format, args...)
}

func (r *reportTB) reported() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// TestWatchdogFiresOnParkedPump: every member's pump is parked in Apply, so
// no applied frontier moves, and a shortened watchdog reports each member
// and the parked pump's stack.
func TestWatchdogFiresOnParkedPump(t *testing.T) {
	defer func(p time.Duration) { watchdogPeriod = p }(watchdogPeriod)
	watchdogPeriod = 200 * time.Millisecond
	release := make(chan struct{})
	cfg := fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()}.
		WithStateMachines(func(fsr.ProcID) fsr.StateMachine { return blockingSM{release} })
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	defer close(release) // runs first: the pumps finish their Apply, then the cluster stops
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cluster.Node(0).Session().Publish(ctx, []byte("parks every pump")); err != nil {
		t.Fatal(err)
	}
	rec := &reportTB{TB: t}
	watchCluster(rec, cluster)
	for rec.reported() == "" {
		if ctx.Err() != nil {
			t.Fatal("watchdog never fired on a cluster whose pumps are parked")
		}
		time.Sleep(20 * time.Millisecond)
	}
	report := rec.reported()
	for _, id := range cluster.IDs() {
		if !strings.Contains(report, fmt.Sprintf("node %d: view=", id)) {
			t.Errorf("report lacks node %d's state:\n%.2000s", id, report)
		}
	}
	if !strings.Contains(report, "blockingSM.Apply") {
		t.Errorf("report lacks the parked pump's stack:\n%.4000s", report)
	}
}
