package fsr_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsr"
	"fsr/admin"
	"fsr/internal/wire"
	"fsr/transport/mem"
)

// awaitReady polls Ready until nil or the deadline.
func awaitReady(t *testing.T, ready func() error, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := ready()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never became ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadyJoinerTransition: a joiner's readiness walks the full ladder —
// "no installed view" before the group admits it, not-ready through the
// catch-up, nil once it holds the history. This is exactly the window an
// orchestrator's readiness gate must keep traffic away from.
func TestReadyJoinerTransition(t *testing.T) {
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
	watchCluster(t, cluster)
	ids := cluster.IDs()
	for i := range 3 {
		awaitReady(t, cluster.Node(i).Ready, 10*time.Second)
	}

	// History the joiner will have to fetch.
	writeBatch(t, cluster.Nodes(), 0, 100)

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

	// Before the join round-trip: no view installed yet.
	if err := joiner.Ready(); err == nil || !strings.Contains(err.Error(), "no installed view") {
		t.Fatalf("pre-join Ready() = %v, want no-installed-view error", err)
	}
	if !joiner.Join(ids) {
		t.Fatal("join not accepted")
	}
	awaitReady(t, joiner.Ready, 20*time.Second)
	if m := joiner.Metrics(); m.CatchingUp {
		t.Fatal("ready while still catching up")
	}
	if joiner.Applied() < 100 {
		t.Fatalf("ready at applied=%d, want the full prefix (100)", joiner.Applied())
	}
}

// TestCatchingUpIsOneState: "catching up" has one definition — from the
// start of a transfer until the pump has applied everything it handed over
// — and Ready, Metrics().CatchingUp and the admin status op all report it.
// A durable joiner's disk holds the fsync of its transferred history: the
// fetch is over by then, the apply is not, and all three must still say
// catching up; once the fsync is let go, all three must say done.
func TestCatchingUpIsOneState(t *testing.T) {
	base := t.TempDir()
	cfg := fsr.ClusterConfig{N: 3, T: 1, NodeConfig: durableConfig()}.WithDurableDir(base)
	network := mem.NewNetwork(mem.Options{})
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	watchCluster(t, cluster)
	ids := cluster.IDs()
	writeBatch(t, cluster.Nodes(), 0, 100) // history the joiner fetches in one page

	ep, err := network.Join(9)
	if err != nil {
		t.Fatal(err)
	}
	disk := newHeldFS()
	jcfg := durableConfig()
	jcfg.Self, jcfg.Joiner, jcfg.Members, jcfg.WALFS = 9, true, ids, disk
	joiner, err := fsr.NewNode(jcfg.WithDurableDir(base+"/node-9"), ep)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	admEP, resp := adminEndpoint(t, network, fsr.ClientIDBase+0x600)
	status := func() admin.Status {
		t.Helper()
		var st admin.Status
		p := adminSend(t, admEP, resp, joiner.Self(), &wire.AdminReq{Op: wire.AdminStatus}, 5*time.Second)
		if err := json.Unmarshal(p.Body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	disk.hold()
	defer disk.release() // before Stop: on a failure too, or the pump never drains
	if !joiner.Join(ids) {
		t.Fatal("join not accepted")
	}
	select {
	case <-disk.entered: // the pump is persisting transferred history
	case <-time.After(20 * time.Second):
		t.Fatal("the joiner never reached the fsync of its transferred history")
	}
	if err := joiner.Ready(); err == nil || !strings.Contains(err.Error(), "catching up") {
		t.Errorf("Ready() while applying the transfer = %v, want catching up", err)
	}
	if !joiner.Metrics().CatchingUp {
		t.Error("Metrics().CatchingUp = false while applying the transfer")
	}
	if st := status(); !st.CatchingUp || st.Ready {
		t.Errorf("admin status while applying the transfer: catching_up %v ready %v", st.CatchingUp, st.Ready)
	}

	disk.release()
	awaitReady(t, joiner.Ready, 20*time.Second)
	if joiner.Metrics().CatchingUp {
		t.Error("Metrics().CatchingUp = true once ready")
	}
	if st := status(); st.CatchingUp || !st.Ready {
		t.Errorf("admin status once ready: catching_up %v ready %v (%s)", st.CatchingUp, st.Ready, st.ReadyErr)
	}
	if joiner.Applied() < 100 {
		t.Fatalf("ready at applied=%d, want the full prefix (100)", joiner.Applied())
	}
}

// TestReadyWALDirGone: readiness must follow the durable directory — a
// yanked disk (simulated by renaming the WAL dir away; permission bits
// would be a no-op under root) flips Ready to an error, and restoring the
// directory flips it back.
func TestReadyWALDirGone(t *testing.T) {
	reg := newSMRegistry()
	base := t.TempDir()
	cfg := fsr.ClusterConfig{
		N: 3, T: 1,
		NodeConfig: durableConfig(),
	}.WithDurableDir(base).WithStateMachines(reg.factory)
	cluster, err := fsr.NewCluster(cfg, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	watchCluster(t, cluster)
	node := cluster.Node(1)
	awaitReady(t, node.Ready, 10*time.Second)

	dir := filepath.Join(base, "node-1")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("expected per-node WAL dir: %v", err)
	}
	hidden := dir + ".gone"
	if err := os.Rename(dir, hidden); err != nil {
		t.Fatal(err)
	}
	if err := node.Ready(); err == nil || !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("Ready() with WAL dir gone = %v, want not-writable error", err)
	}
	// Liveness is unaffected: the node itself has not failed.
	if err := node.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil while merely not ready", err)
	}
	if err := os.Rename(hidden, dir); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, node.Ready, 5*time.Second)
}
