// Package edge runs read-only edge replicas of an FSR group: non-member
// processes that replicate the committed total order through one client
// session and re-serve it to any number of local subscribers over the
// same wire protocol the members speak.
//
// The fixed-sequencer ring gets its throughput from staying tiny — every
// member is on the critical ordering path — so subscriber capacity must
// scale somewhere else. An edge replica is that somewhere: it tails the
// order from a member exactly like a catching-up subscriber (snapshot
// hand-over included), keeps it in the same serve.Log a member does — a
// bounded tail in memory, or a local WAL read in place — and serves
// SUBSCRIBE from that replica with the identical encode-once fan-out
// members use (internal/serve). Each member thus carries one
// subscription per edge instead of one per end subscriber; edges are
// horizontally scalable and disposable, because every byte they hold is
// refetchable from the ring.
//
// Edges never take writes. A PUBLISH arriving at an edge answers a
// NOT-WRITABLE redirect naming the real members, and the fsr client
// session reconnects there transparently — so one address list mixing
// members and edges still gives publishers exactly-once semantics, while
// subscriber-only clients can stay pinned to edges.
//
//	e, err := edge.New(edge.Config{Listen: ":7200", Members: memberAddrs})
//	...
//	s, _ := client.Dial(client.Config{Addrs: []string{e.Addr()}})
//	for off, m := range s.Subscribe(ctx, 1) { ... }
package edge

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"

	"fsr"
	"fsr/admin"
	"fsr/client"
	"fsr/internal/serve"
	"fsr/internal/wal"
	"fsr/internal/wire"
	"fsr/transport"
	"fsr/transport/tcp"
)

// syncEvery is how often a durable edge syncs its log. A member syncs each
// batch before committing it, because it acknowledges what it commits; an
// edge acknowledges nothing, and refetches a window a crash loses.
const syncEvery = 200 * time.Millisecond

// CoreConfig parameterizes NewCore, the transport-agnostic edge.
type CoreConfig struct {
	// Transport is the serving endpoint subscribers connect to. The core
	// owns it from here and closes it on Stop. Required.
	Transport transport.Transport
	// Upstream is the session the edge tails the order through — dial it
	// with the edge role (client.Config.Edge / SessionOptions.Edge) so
	// the serving member feeds it the shared tail. The core owns it from
	// here and closes it on Stop. Required.
	Upstream fsr.Session
	// Members and MemberAddrs are the group coordinates handed to
	// publishers in NOT-WRITABLE redirects: IDs for shared-transport
	// clients (Cluster.Dial, DialVia), addresses for socket clients
	// (client.Dial). Either may be empty if no such client publishes.
	Members     []fsr.ProcID
	MemberAddrs []string
	// DurableDir, when set, persists the replicated order in a WAL — which
	// is also what subscribers are served from — so a restarted edge
	// serves history without refetching it. Otherwise the tail lives in
	// memory, bounded by TailCap.
	DurableDir string
	// TailCap bounds the in-memory tail, in entries (default 65536).
	// Subscribers below the horizon are redirected to the members.
	TailCap int
	// Logger receives structured edge events (tail reconnects, snapshot
	// hand-overs, slow-subscriber detaches). Nil discards them.
	Logger *slog.Logger
}

// Edge is one running edge replica: the apply pump and serve.Log of a
// member, fed by an upstream subscription instead of a ring.
type Edge struct {
	cfg    CoreConfig
	log    *slog.Logger
	clog   *serve.Log // the replica: a bounded tail in memory, or the WAL in DurableDir
	srv    *serve.Server
	addr   string // serving address, when TCP-backed
	cancel context.CancelFunc
	wg     sync.WaitGroup

	scratch [1]wire.ClientEventEntry // tail loop's reusable fan-out batch
}

// NewCore starts an edge replica on caller-provided plumbing. Use New for
// the common TCP deployment.
func NewCore(cfg CoreConfig) (*Edge, error) { return newCore(cfg, nil) }

// newCore is NewCore on a chosen WAL filesystem (nil selects the real
// one) — the seam the storage-fault tests inject through.
func newCore(cfg CoreConfig, fs wal.FS) (*Edge, error) {
	if cfg.Transport == nil || cfg.Upstream == nil {
		return nil, fmt.Errorf("edge: Transport and Upstream are required")
	}
	if cfg.TailCap <= 0 {
		cfg.TailCap = 65536
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	log = log.With("edge", uint32(cfg.Transport.Self()))
	clog := serve.NewRingLog(cfg.TailCap, nil)
	if cfg.DurableDir != "" {
		w, err := wal.Open(cfg.DurableDir, wal.Options{FS: fs, Logger: log})
		if err != nil {
			return nil, fmt.Errorf("edge: open store: %w", err)
		}
		clog = serve.NewWALLog(w, w.LastSeq(), nil)
	}
	e := &Edge{cfg: cfg, log: log, clog: clog}
	e.srv = serve.New(serve.Config{
		Transport: cfg.Transport,
		Source:    clog,
		Publish:   nil, // read-only: publishes answer NOT-WRITABLE
		Redirect: func() ([]fsr.ProcID, []string, uint64) {
			return cfg.Members, cfg.MemberAddrs, clog.Applied()
		},
		Logger: log,
	})
	adm := e.newAdmin()
	cfg.Transport.SetHandler(func(from transport.ProcID, payload []byte) {
		if len(payload) > 0 && payload[0] == wire.KindAdmin {
			adm.Handle(from, payload, time.Now())
			return
		}
		e.srv.Handle(from, payload)
	})
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.wg.Add(1)
	go e.tailLoop(ctx)
	if cfg.DurableDir != "" {
		e.wg.Add(1)
		go e.syncLoop(ctx)
	}
	return e, nil
}

// newAdmin builds the edge's admin responder. Edges answer the op
// vocabulary members do — an operator sweeping a mixed address list gets a
// uniform view — with edge semantics: the view ops report what the replica
// knows, and snapshot triggers are refused (an edge's snapshot arrives
// from upstream, it is never cut locally).
func (e *Edge) newAdmin() *serve.AdminResponder {
	return &serve.AdminResponder{
		Transport: e.cfg.Transport,
		Log:       e.clog,
		Server:    e.srv,
		Ready:     func() error { return e.Ready(0) },
		Role:      "edge",
		Status: func(s *admin.Status) {
			if t, ok := e.upstreamContact(); ok {
				s.TailConnected = true
				s.TailLagMillis = time.Since(t).Milliseconds()
			}
		},
		Members: func() admin.Members {
			// An edge has no installed view; it knows the member IDs it was
			// configured to redirect publishers to.
			m := admin.Members{}
			for _, id := range e.cfg.Members {
				m.IDs = append(m.IDs, uint32(id))
			}
			return m
		},
		Op: func(req *wire.AdminReq, _ time.Time) any {
			if req.Op != wire.AdminSnapshot {
				return nil
			}
			return &admin.SnapshotResult{Reason: "edges replicate snapshots from upstream"}
		},
	}
}

// Config parameterizes New, the TCP edge replica.
type Config struct {
	// Listen is the address subscribers connect to. Required.
	Listen string
	// Members are the group members' listen addresses — the upstream the
	// edge replicates from and the redirect target for publishers.
	// Required.
	Members []string
	// ID is the edge's identity in the client ID space (its upstream
	// publishes dedup under it — edges never publish, but the ID also
	// names the edge on member metrics). Zero picks a random ID.
	ID fsr.ProcID
	// DurableDir, TailCap and Logger are as in CoreConfig.
	DurableDir string
	TailCap    int
	Logger     *slog.Logger
}

// New starts a TCP edge replica: a listener for subscribers plus one
// upstream client session to the members.
func New(cfg Config) (*Edge, error) {
	if cfg.Listen == "" {
		return nil, fmt.Errorf("edge: Listen is required")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("edge: no member addresses")
	}
	if cfg.ID == 0 {
		cfg.ID = fsr.ClientIDBase + fsr.ProcID(rand.Uint32N(1<<31))
	}
	tr, err := tcp.New(tcp.Config{Self: cfg.ID, ListenAddr: cfg.Listen})
	if err != nil {
		return nil, err
	}
	up, err := client.Dial(client.Config{Addrs: cfg.Members, ID: cfg.ID, Edge: true})
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	e, err := NewCore(CoreConfig{
		Transport:   tr,
		Upstream:    up,
		MemberAddrs: cfg.Members,
		DurableDir:  cfg.DurableDir,
		TailCap:     cfg.TailCap,
		Logger:      cfg.Logger,
	})
	if err != nil {
		_ = up.Close()
		_ = tr.Close()
		return nil, err
	}
	e.addr = tr.Addr()
	return e, nil
}

// Addr returns the serving listen address (resolving an ephemeral port)
// for a TCP edge, "" for a NewCore edge.
func (e *Edge) Addr() string { return e.addr }

// ID returns the edge's identity in the client ID space.
func (e *Edge) ID() fsr.ProcID { return fsr.ProcID(e.cfg.Transport.Self()) }

// Applied returns the highest offset replicated from upstream.
func (e *Edge) Applied() uint64 { return e.clog.Applied() }

// Metrics is the edge-side parity of fsr.Metrics: replication position,
// what the store holds, upstream-tail health and the serving census.
type Metrics struct {
	// Applied is the highest offset replicated from upstream; StoreBase is
	// the horizon (offsets at or below it are not held as entries);
	// StoreEntries counts the entries held in memory — always 0 on a
	// durable edge, which serves them from its WAL; SnapshotSeq is the
	// offset the held application snapshot covers (0 when none).
	Applied      uint64
	StoreBase    uint64
	StoreEntries int
	SnapshotSeq  uint64

	// TailConnected reports that the upstream session has spoken at least
	// once; TailLag is how long ago it last did (keepalives arrive every
	// second on a healthy idle link, so seconds of lag mean trouble).
	TailConnected bool
	TailLag       time.Duration

	// Serving census, mirroring the member-side fields.
	Clients, Subs, TailAttached           int
	TailFrames, TailDetaches, NotWritable uint64

	// WAL is the durable store's counters; zero for a memory-only edge.
	WAL fsr.WALMetrics
}

// upstreamContact reports when the upstream session last spoke, when the
// session exposes it (every socket-backed session does).
func (e *Edge) upstreamContact() (time.Time, bool) {
	c, ok := e.cfg.Upstream.(interface{ LastContact() time.Time })
	if !ok {
		return time.Time{}, false
	}
	t := c.LastContact()
	return t, !t.IsZero()
}

// Metrics snapshots the edge for export.
func (e *Edge) Metrics() Metrics {
	s := e.srv.Stats()
	base, entries, snapSeq := e.clog.Held()
	m := Metrics{
		Applied:      e.clog.Applied(),
		StoreBase:    base,
		StoreEntries: entries,
		SnapshotSeq:  snapSeq,
		Clients:      s.Clients,
		Subs:         s.Subs,
		TailAttached: s.TailAttached,
		TailFrames:   s.TailFrames,
		TailDetaches: s.TailDetaches,
		NotWritable:  s.NotWritable,
	}
	if t, ok := e.upstreamContact(); ok {
		m.TailConnected = true
		m.TailLag = time.Since(t)
	}
	if ws, ok := e.clog.WALStats(); ok {
		m.WAL = fsr.WALMetrics(ws)
	}
	return m
}

// Ready reports nil when the edge can serve subscribers honestly: the
// upstream tail has connected and spoken within maxLag (0 picks 5s —
// five missed server keepalives), the upstream session has not died, and
// the durable store (if any) still accepts writes. The error names the
// first failing condition — the substance behind an edge /readyz probe.
func (e *Edge) Ready(maxLag time.Duration) error {
	if maxLag <= 0 {
		maxLag = 5 * time.Second
	}
	if err := e.cfg.Upstream.Err(); err != nil {
		return fmt.Errorf("edge: upstream session dead: %w", err)
	}
	t, ok := e.upstreamContact()
	if !ok {
		return fmt.Errorf("edge: upstream tail never connected")
	}
	if lag := time.Since(t); lag > maxLag {
		return fmt.Errorf("edge: upstream tail lagging %v (bound %v)", lag.Round(time.Millisecond), maxLag)
	}
	return e.clog.Writable()
}

// tailLoop replicates the committed order from upstream, forever: each
// session Subscribe streams gap-free from the store frontier; when one
// ends (upstream failover churn, member loss), the next resumes where the
// store stopped. Every appended offset is published to the local shared
// tail — the same encode-once fan-out path a member runs.
//
// A store write failure is fail-stop, as on a member: subscribers are
// served from the store, so an edge that cannot write it says goodbye
// (clients fail over) and stops serving; Ready reports the poisoned store.
func (e *Edge) tailLoop(ctx context.Context) {
	defer e.wg.Done()
	for ctx.Err() == nil {
		from := e.clog.Applied() + 1
		for _, m := range e.cfg.Upstream.Subscribe(ctx, from) {
			if err := e.replicate(m); err != nil {
				e.log.Error("edge store failed; serving stopped", "applied", e.clog.Applied(), "err", err)
				e.srv.NotifyAll(wire.RedirectBye)
				e.srv.Shutdown()
				return
			}
		}
		if ctx.Err() == nil {
			e.log.Warn("upstream tail interrupted; re-subscribing",
				"applied", e.clog.Applied(), "err", e.cfg.Upstream.Err())
			time.Sleep(50 * time.Millisecond) // upstream hiccup; re-subscribe
		}
	}
}

// replicate folds one upstream message into the replica — a member's
// applyBatch for a batch of one, minus the sync (see syncEvery) — and
// publishes it to the local shared tail. Stale duplicates (an upstream
// re-subscribe) are skipped; a write error leaves the frontier in place.
func (e *Edge) replicate(m fsr.Message) error {
	if m.Seq <= e.clog.Applied() {
		return nil
	}
	if m.Snapshot {
		if err := e.clog.InstallSnapshot(m.Seq, m.Payload); err != nil {
			return err
		}
		e.clog.Commit(nil)
		// State transfer: the prefix has no entry stream, so locally
		// attached subscribers must page across the jump.
		e.srv.DetachAll()
		return nil
	}
	e.scratch[0] = wire.ClientEventEntry{
		Seq:     m.Seq,
		Origin:  m.Origin,
		Logical: m.LogicalID,
		Payload: m.Payload,
	}
	if err := e.clog.Append(e.scratch[0]); err != nil {
		return err
	}
	e.clog.Commit(e.scratch[:])
	e.srv.PublishTail(e.scratch[:])
	return nil
}

// syncLoop periodically syncs the durable replica. Until the next tick its
// unsynced tail stays in the process, in the log's batch buffer: a kill
// loses it, and the restarted edge fetches it again from upstream. A
// failure poisons the WAL; the next append reports it.
func (e *Edge) syncLoop(ctx context.Context) {
	defer e.wg.Done()
	ticker := time.NewTicker(syncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_ = e.clog.Sync()
		}
	}
}

// Stop shuts the edge down: subscribers get a BYE redirect (they fail
// over to members or surviving edges), the upstream session closes, and
// the durable store is flushed.
func (e *Edge) Stop() {
	e.srv.NotifyAll(wire.RedirectBye)
	e.cancel()
	_ = e.cfg.Upstream.Close()
	e.wg.Wait()
	e.srv.Shutdown()
	_ = e.cfg.Transport.Close()
	e.srv.Wait()
	_ = e.clog.Close() // syncs first
}
