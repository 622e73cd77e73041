package fsr

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"fsr/internal/wal"
	"fsr/transport"
	"fsr/transport/mem"
	"fsr/transport/tcp"
)

// ClusterConfig parameterizes a Cluster (NewCluster).
type ClusterConfig struct {
	// N is the number of nodes; they are numbered 0..N-1. Required.
	N int
	// T is the tolerated number of failures. Default 1.
	T int
	// NodeConfig is the per-node template; Self and Members are filled in.
	// Leave its DurableDir and StateMachine empty — they are per-member
	// and set through the fields below.
	NodeConfig Config
	// DurableDir, when set, gives every member a write-ahead log under
	// <DurableDir>/node-<id>, enabling Restart.
	DurableDir string
	// StateMachines, when set, builds each member's replica of the
	// application state machine (one instance per member — replicas must
	// not share state outside the protocol).
	StateMachines func(id ProcID) StateMachine
	// WALFS, when set, supplies a per-member filesystem for the write-ahead
	// log — the storage fault-injection seam. Returning nil for a member
	// gives it the real filesystem. A returned FS models one disk: the
	// cluster reuses it across that member's restarts, never across
	// members.
	WALFS func(id ProcID) wal.FS
	// WireVersion, when set, supplies a per-member wire protocol version —
	// the version-skew seam for rolling-upgrade tests. Returning 0 for a
	// member gives it wire.CurrentVersion. Consulted again on Restart, so a
	// test can flip a member's version across a restart (the upgrade).
	WireVersion func(id ProcID) byte
}

// WithDurableDir returns a copy of cfg with the per-member durable base
// directory set.
func (cfg ClusterConfig) WithDurableDir(dir string) ClusterConfig {
	cfg.DurableDir = dir
	return cfg
}

// WithStateMachines returns a copy of cfg with the per-member state
// machine factory set.
func (cfg ClusterConfig) WithStateMachines(factory func(id ProcID) StateMachine) ClusterConfig {
	cfg.StateMachines = factory
	return cfg
}

// memberConfig instantiates the node template for one member.
func (cfg ClusterConfig) memberConfig(id ProcID) Config {
	nc := cfg.NodeConfig
	nc.Self = id
	nc.T = cfg.T
	if cfg.DurableDir != "" {
		nc.DurableDir = filepath.Join(cfg.DurableDir, fmt.Sprintf("node-%d", id))
	}
	if cfg.StateMachines != nil {
		nc.StateMachine = cfg.StateMachines(id)
	}
	if cfg.WALFS != nil {
		nc.WALFS = cfg.WALFS(id)
	}
	if cfg.WireVersion != nil {
		nc.WireVersion = cfg.WireVersion(id)
	}
	return nc
}

// ClusterTransport provisions the per-member endpoints a Cluster runs on.
// It decouples the cluster harness from any one transport: the same harness
// drives in-process tests (MemTransport), loopback or LAN deployments
// (TCPTransport), and custom fabrics (implement this interface).
//
// NewCluster calls Join once per member, then Open once after every member
// has an endpoint — the hook for wiring that needs the full roster, such as
// exchanging ephemeral listen addresses.
type ClusterTransport interface {
	// Join provisions the endpoint for one member.
	Join(id ProcID) (transport.Transport, error)
	// Open finalizes wiring once every member has joined.
	Open() error
	// Crash fail-stops id's endpoint: in-flight and queued traffic is
	// dropped, and peers observe silence (their failure detectors react).
	Crash(id ProcID)
	// Close releases any shared resources after the nodes have stopped.
	Close() error
}

// MemClusterTransport runs a cluster on one in-memory network hub.
type MemClusterTransport struct {
	network *mem.Network
}

// MemTransport wraps an in-memory network as a ClusterTransport. A nil
// network gets a fresh default hub; pass an explicit mem.NewNetwork to
// configure latency, bandwidth pacing, or to share the hub with nodes
// created outside the cluster (e.g. joiners).
func MemTransport(network *mem.Network) *MemClusterTransport {
	if network == nil {
		network = mem.NewNetwork(mem.Options{})
	}
	return &MemClusterTransport{network: network}
}

// Network returns the underlying hub, for fault injection (CutLink) or for
// attaching extra endpoints.
func (m *MemClusterTransport) Network() *mem.Network { return m.network }

// Join implements ClusterTransport.
func (m *MemClusterTransport) Join(id ProcID) (transport.Transport, error) {
	return m.network.Join(id)
}

// Open implements ClusterTransport. The hub needs no post-join wiring.
func (m *MemClusterTransport) Open() error { return nil }

// Crash implements ClusterTransport.
func (m *MemClusterTransport) Crash(id ProcID) { m.network.Crash(id) }

// Close implements ClusterTransport. Endpoints are owned (and closed) by
// their nodes; the hub itself holds no other resources.
func (m *MemClusterTransport) Close() error { return nil }

// TCPClusterTransport runs a cluster over real TCP sockets, one endpoint
// per member in this process. It is the single-binary form of the
// multi-process deployment (cmd/fsr-node): identical protocol stack and
// wire traffic, convenient for integration tests and benchmarks.
type TCPClusterTransport struct {
	addrs map[ProcID]string
	eps   map[ProcID]*tcp.Transport
}

// TCPTransport builds a TCP-backed ClusterTransport. addrs maps each member
// to its listen address; a nil map (or a missing entry) binds that member
// to an ephemeral loopback port, with addresses exchanged automatically in
// Open.
func TCPTransport(addrs map[ProcID]string) *TCPClusterTransport {
	return &TCPClusterTransport{addrs: addrs, eps: make(map[ProcID]*tcp.Transport)}
}

// Join implements ClusterTransport.
func (t *TCPClusterTransport) Join(id ProcID) (transport.Transport, error) {
	listen := t.addrs[id]
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ep, err := tcp.New(tcp.Config{Self: id, ListenAddr: listen})
	if err != nil {
		return nil, err
	}
	t.eps[id] = ep
	return ep, nil
}

// Addrs returns the members' actual listen addresses (resolving ephemeral
// ports) in member-ID order — what a remote client.Dial needs.
func (t *TCPClusterTransport) Addrs() []string {
	ids := make([]ProcID, 0, len(t.eps))
	for id := range t.eps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	addrs := make([]string, 0, len(ids))
	for _, id := range ids {
		addrs = append(addrs, t.eps[id].Addr())
	}
	return addrs
}

// Open implements ClusterTransport: every endpoint learns every other's
// actual listen address (resolving ephemeral ports).
func (t *TCPClusterTransport) Open() error {
	for self, ep := range t.eps {
		peers := make(map[ProcID]string, len(t.eps)-1)
		for id, other := range t.eps {
			if id != self {
				peers[id] = other.Addr()
			}
		}
		ep.SetPeers(peers)
	}
	return nil
}

// Crash implements ClusterTransport: closing the endpoint drops its
// connections, so peers see silence.
func (t *TCPClusterTransport) Crash(id ProcID) {
	if ep := t.eps[id]; ep != nil {
		_ = ep.Close()
	}
}

// Close implements ClusterTransport. Endpoint Close is idempotent, so
// closing after the nodes already did is safe.
func (t *TCPClusterTransport) Close() error {
	for _, ep := range t.eps {
		_ = ep.Close()
	}
	return nil
}

// Cluster is a set of in-process nodes on one ClusterTransport — the
// easiest way to run FSR in tests, examples and single-binary deployments.
type Cluster struct {
	cfg   ClusterConfig
	ct    ClusterTransport
	nodes []*Node
	ids   []ProcID

	mu         sync.Mutex
	nextClient ProcID // client IDs handed out by Dial
}

// NewCluster builds and starts N nodes on the given cluster transport.
func NewCluster(cfg ClusterConfig, ct ClusterTransport) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("fsr: cluster size %d", cfg.N)
	}
	if cfg.T == 0 {
		cfg.T = 1
	}
	if cfg.NodeConfig.DurableDir != "" {
		return nil, fmt.Errorf("fsr: set ClusterConfig.DurableDir, not NodeConfig.DurableDir (one directory per member)")
	}
	if cfg.NodeConfig.StateMachine != nil {
		return nil, fmt.Errorf("fsr: set ClusterConfig.StateMachines, not NodeConfig.StateMachine (one replica per member)")
	}
	ids := make([]ProcID, cfg.N)
	for i := range ids {
		ids[i] = ProcID(i)
	}
	c := &Cluster{cfg: cfg, ct: ct, ids: ids}
	trs := make([]transport.Transport, 0, cfg.N)
	closeUnowned := func() {
		// Endpoints not yet handed to a node are closed directly; nodes
		// close their own in Stop.
		for _, tr := range trs[len(c.nodes):] {
			_ = tr.Close()
		}
	}
	for _, id := range ids {
		tr, err := ct.Join(id)
		if err != nil {
			closeUnowned()
			c.Stop()
			return nil, err
		}
		trs = append(trs, tr)
	}
	if err := ct.Open(); err != nil {
		closeUnowned()
		c.Stop()
		return nil, err
	}
	for i, id := range ids {
		nc := cfg.memberConfig(id)
		nc.Members = ids
		node, err := NewNode(nc, trs[i])
		if err != nil {
			closeUnowned()
			c.Stop()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// Node returns the i-th member (in initial ring order).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns all running members.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// IDs returns the member IDs in initial ring order.
func (c *Cluster) IDs() []ProcID { return append([]ProcID(nil), c.ids...) }

// Crash fail-stops the i-th member: its endpoint drops off the transport
// and the survivors' failure detectors trigger a view change.
func (c *Cluster) Crash(i int) {
	node := c.nodes[i]
	c.ct.Crash(node.Self())
	node.Stop()
}

// Restart brings a crashed member back in place: it re-provisions the
// member's transport endpoint, starts a fresh node on the member's durable
// directory (rebuilding its state machine from snapshot + WAL), and asks
// the group for readmission; the node then catches up on the suffix of the
// total order it missed before resuming live traffic. The returned node
// replaces Node(i).
//
// Restart requires that the member was stopped (Crash). Without a
// ClusterConfig.DurableDir the member comes back empty-handed, like any
// fresh joiner.
func (c *Cluster) Restart(i int) (*Node, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("fsr: restart of member %d of %d", i, len(c.nodes))
	}
	id := c.ids[i]
	tr, err := c.ct.Join(id)
	if err != nil {
		return nil, fmt.Errorf("fsr: restart %d: %w", id, err)
	}
	if err := c.ct.Open(); err != nil {
		_ = tr.Close()
		return nil, fmt.Errorf("fsr: restart %d: %w", id, err)
	}
	contacts := slices.Delete(slices.Clone(c.ids), i, i+1)
	nc := c.cfg.memberConfig(id)
	nc.Joiner = true
	nc.Members = contacts
	node, err := NewNode(nc, tr)
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	node.Join(contacts)
	c.nodes[i] = node
	return node, nil
}

// Dial connects a new session client to the cluster: a non-member
// publisher/subscriber speaking the client sub-protocol to one member at a
// time over the cluster's own transport, with automatic failover when the
// serving member crashes or leaves. It is the transport-agnostic sibling
// of client.Dial — over TCPTransport the frames cross real sockets, over
// MemTransport (optionally wrapped in chaos) they stay in process.
//
// The returned Session lives independently of the member nodes; close it
// when done. Options' zero values select the defaults.
func (c *Cluster) Dial(opts SessionOptions) (Session, error) {
	c.mu.Lock()
	id := ClientIDBase + c.nextClient
	c.nextClient++
	c.mu.Unlock()
	tr, err := c.ct.Join(id)
	if err != nil {
		return nil, fmt.Errorf("fsr: dial session: %w", err)
	}
	if err := c.ct.Open(); err != nil {
		_ = tr.Close()
		return nil, fmt.Errorf("fsr: dial session: %w", err)
	}
	inner := opts.OnClose
	opts.OnClose = func() {
		_ = tr.Close()
		if inner != nil {
			inner()
		}
	}
	s, err := DialSession(&clusterLinkDialer{tr: tr, members: c.IDs()}, opts)
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	return s, nil
}

// DialVia opens a session over an existing transport endpoint, rotating
// across the given target process IDs. It is the building block under
// Cluster.Dial, exported for topologies the Cluster doesn't know about:
// edge replicas dialing their upstream members, or clients pinned to a set
// of edge nodes on a shared hub. The endpoint stays owned by the caller
// unless opts.OnClose closes it.
//
// The dialer implements WritableAdvertiser: when a read-only target
// redirects a publish with the writable member set, the rotation switches
// to those members.
func DialVia(tr transport.Transport, targets []ProcID, opts SessionOptions) (Session, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("fsr: dial via empty target set")
	}
	d := &clusterLinkDialer{tr: tr, members: append([]ProcID(nil), targets...)}
	return DialSession(d, opts)
}

// clusterLinkDialer rotates a session client across the cluster members,
// all reached through the client's one transport endpoint.
type clusterLinkDialer struct {
	tr      transport.Transport
	members []ProcID

	mu   sync.Mutex
	next int
}

// Dial implements LinkDialer: bind to the next member in rotation. Liveness
// is probed by the session's HELLO — a dead member fails the first send
// (or times out) and the rotation moves on.
func (d *clusterLinkDialer) Dial(h func(payload []byte)) (SessionLink, error) {
	d.tr.SetHandler(func(from transport.ProcID, payload []byte) { h(payload) })
	d.mu.Lock()
	member := d.members[d.next%len(d.members)]
	d.next++
	d.mu.Unlock()
	return clusterLink{tr: d.tr, to: member}, nil
}

// NeedWritable implements WritableAdvertiser: a read-only target bounced a
// publish and named the writable members, so the rotation moves to them.
// Addresses are for socket-level dialers; on a shared transport the IDs
// are directly reachable.
func (d *clusterLinkDialer) NeedWritable(members []ProcID, addrs []string) {
	if len(members) == 0 {
		return
	}
	d.mu.Lock()
	d.members = append([]ProcID(nil), members...)
	d.next = 0
	d.mu.Unlock()
}

// clusterLink is one client-to-member binding on the shared endpoint.
type clusterLink struct {
	tr transport.Transport
	to ProcID
}

func (l clusterLink) Send(payload []byte) error { return l.tr.Send(l.to, payload) }

// Close implements SessionLink; the endpoint is shared across bindings and
// owned by the session's OnClose.
func (l clusterLink) Close() error { return nil }

// Stop shuts down every node and releases the cluster transport.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	_ = c.ct.Close()
}

// WaitView blocks until node i reports an installed view with the given
// member count, or the timeout expires. It polls CurrentView.
func (c *Cluster) WaitView(i int, members int, timeout time.Duration) (ViewInfo, bool) {
	deadline := time.Now().Add(timeout)
	for {
		v := c.nodes[i].CurrentView()
		if len(v.Members) == members {
			return v, true
		}
		if time.Now().After(deadline) {
			return ViewInfo{}, false
		}
		time.Sleep(time.Millisecond)
	}
}
