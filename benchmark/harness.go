package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"fsr"
	"fsr/client"
	"fsr/edge"
	"fsr/internal/wal"
)

const (
	clusterN = 3
	clusterT = 1

	// edgeTailCap holds every message of the longest run the driver's
	// contract allows (60 s at 15 000 msg/s, plus warm-up).
	edgeTailCap = 1 << 21

	// headerLen is the generator's payload header: publisher sequence
	// number, then the message's due time in nanoseconds from the clock
	// base. Sequence 0 marks a set-up probe the checkers skip.
	headerLen = 16
)

func putHeader(buf []byte, seq uint64, dueNs int64) {
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(dueNs))
}

func readHeader(buf []byte) (seq uint64, dueNs int64) {
	return binary.LittleEndian.Uint64(buf[0:8]), int64(binary.LittleEndian.Uint64(buf[8:16]))
}

// env is one running system under test: an n=3, T=1 cluster on loopback TCP
// in this process, the edge replica if the workload has one, and the two
// client sessions, reached only through the public client surface.
type env struct {
	wl      workload
	base    time.Time // clock base: every timestamp is nanoseconds since this
	dir     string    // this set-up's durable directory, "" when ephemeral
	cluster *fsr.Cluster
	edge    *edge.Edge
	pub     fsr.Session
	sub     fsr.Session
	pubID   fsr.ProcID
	payload []byte // seeded random bytes; the header is rewritten per message
	nextSeq uint64 // publisher sequence numbers handed out so far

	preloaded uint64 // sequence numbers up to here were committed in set-up

	subscriber *subscriber
}

func (e *env) now() int64 { return int64(time.Since(e.base)) }

// setUp builds everything a run needs up to the first timed operation:
// directories, cluster up and Ready, edge up, both dials, the subscriber
// attached, the preload committed. Its duration is the setup_s metric.
func setUp(wl workload, cfg runConfig, base time.Time, attempt int, tr *tracer) (_ *env, err error) {
	e := &env{wl: wl, base: base}
	defer func() {
		if err != nil {
			e.tearDown()
		}
	}()
	rng := rand.New(rand.NewPCG(cfg.seed, uint64(len(wl.name))<<32|uint64(wl.payload)))
	e.payload = make([]byte, wl.payload)
	for i := headerLen; i < len(e.payload); i++ {
		e.payload[i] = byte(rng.Uint32())
	}
	// Three consecutive client IDs per set-up: publisher, subscriber, edge.
	e.pubID = fsr.ClientIDBase + 1 + fsr.ProcID(rng.Uint32N(1<<30)) + fsr.ProcID(3*attempt)

	tcp := fsr.TCPTransport(nil)
	var ct fsr.ClusterTransport = tcp
	cc := fsr.ClusterConfig{
		N: clusterN, T: clusterT,
		NodeConfig: fsr.Config{
			HeartbeatInterval: 50 * time.Millisecond,
			FailureTimeout:    failureTimeout,
			ChangeTimeout:     changeTimeout,
		},
	}
	if tr != nil {
		ct = &tracedCluster{TCPClusterTransport: tcp, t: tr}
		cc.WALFS = func(id fsr.ProcID) wal.FS { return tracedFS{FS: wal.OS, member: uint32(id), t: tr} }
	}
	if wl.durable {
		e.dir = filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", wl.name, os.Getpid(), attempt))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		cc.DurableDir = e.dir
		if wl.bounded {
			cc.StateMachines = func(fsr.ProcID) fsr.StateMachine { return &countingSM{} }
		}
	}
	if e.cluster, err = fsr.NewCluster(cc, ct); err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	if err := e.waitReady(5 * time.Second); err != nil {
		return nil, err
	}
	addrs := tcp.Addrs()

	// Each session gets one address: a failover then comes back to the
	// same member instead of quietly moving the load elsewhere.
	subAddr := addrs[1]
	if wl.sub == subEdgeTail {
		// TailCap is raised so the memory tail never fills during a run: a
		// full tail memmoves all its entries on every append (edge/store.go),
		// which at the default 65536 quintuples the process's CPU per message
		// a few seconds in and collapses the edge at this workload's rate.
		e.edge, err = edge.New(edge.Config{Listen: "127.0.0.1:0", Members: addrs, ID: e.pubID + 2, TailCap: edgeTailCap})
		if err != nil {
			return nil, fmt.Errorf("start edge: %w", err)
		}
		subAddr = e.edge.Addr()
	}
	if e.pub, err = client.Dial(client.Config{Addrs: addrs[:1], ID: e.pubID, Window: wl.window}); err != nil {
		return nil, fmt.Errorf("dial publisher: %w", err)
	}
	if e.sub, err = client.Dial(client.Config{Addrs: []string{subAddr}, ID: e.pubID + 1}); err != nil {
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	if err := e.preload(wl.preload); err != nil {
		return nil, err
	}
	if e.edge != nil {
		// The edge is up once it has replicated what the members hold.
		front := e.cluster.Node(0).Applied()
		if !waitFor(30*time.Second, func() bool { return e.edge.Applied() >= front }) {
			return nil, fmt.Errorf("edge replicated %d of %d offsets in 30s", e.edge.Applied(), front)
		}
	}
	e.subscriber = newSubscriber(e)
	if wl.sub != subReplay {
		if err := e.subscriber.attachTail(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// waitReady polls every member's readiness probe.
func (e *env) waitReady(timeout time.Duration) error {
	for _, n := range e.cluster.Nodes() {
		if !waitFor(timeout, func() bool { return n.Ready() == nil }) {
			return fmt.Errorf("member %d not ready: %w", n.Self(), n.Ready())
		}
	}
	return nil
}

// preload commits count messages through the publisher session, window
// deep, and waits for every receipt. They carry sequence numbers like any
// other message, so the replaying subscriber checks them too.
func (e *env) preload(count int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	receipts := make(chan *fsr.Receipt, e.wl.window) // one slot per in-flight publish
	errc := make(chan error, 1)
	go func() {
		var last uint64
		for r := range receipts {
			if err := r.Wait(ctx); err != nil {
				errc <- fmt.Errorf("preload: %w", err)
				return
			}
			if r.Seq() <= last {
				errc <- fmt.Errorf("preload: commit offset %d after %d", r.Seq(), last)
				return
			}
			last = r.Seq()
		}
		errc <- nil
	}()
	var pubErr error
	for i := 0; i < count && pubErr == nil; i++ {
		e.nextSeq++
		putHeader(e.payload, e.nextSeq, e.now())
		r, err := e.pub.Publish(ctx, e.payload)
		if err != nil {
			pubErr = fmt.Errorf("preload: %w", err)
			break
		}
		select {
		case receipts <- r:
		case <-ctx.Done():
			pubErr = fmt.Errorf("preload: %w", ctx.Err())
		}
	}
	close(receipts)
	if err := <-errc; err != nil {
		return err
	}
	e.preloaded = e.nextSeq
	return pubErr
}

// tearDown stops everything setUp started and removes its directory.
func (e *env) tearDown() {
	if e.subscriber != nil {
		e.subscriber.stop()
	}
	if e.sub != nil {
		_ = e.sub.Close()
	}
	if e.pub != nil {
		_ = e.pub.Close()
	}
	if e.edge != nil {
		e.edge.Stop()
	}
	if e.cluster != nil {
		e.cluster.Stop()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// countingSM is the smallest replicated state: how many messages were
// applied. It exists so that durable members take snapshots and truncate
// their logs (see workload.bounded).
type countingSM struct{ applied uint64 }

func (c *countingSM) Apply(fsr.Message) { c.applied++ }

func (c *countingSM) Snapshot() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, c.applied), nil
}

func (c *countingSM) Restore(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("counting state machine: snapshot of %d bytes", len(data))
	}
	c.applied = binary.LittleEndian.Uint64(data)
	return nil
}
