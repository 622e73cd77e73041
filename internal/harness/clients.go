package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fsr"
	"fsr/edge"
)

// clientRun is one session client: its publishing session, identity, and
// the subscriber's collected stream. With edges in the scenario the
// subscriber runs on its own session pinned to the edge tier (subSess);
// otherwise subSess is sess.
type clientRun struct {
	idx     int
	id      fsr.ProcID
	sess    fsr.Session
	subSess fsr.Session

	mu   sync.Mutex
	recs []Rec
	err  error
}

// startClients dials the scenario's session clients and starts their
// offset-1 subscribers. With edges present, both the publisher and the
// subscriber sessions target the edge tier only: the publisher's first
// publish is bounced by NOT-WRITABLE and migrates to a member, the
// subscriber stays on the edges for its whole life, failing over between
// them as they crash and return.
func (r *runner) startClients(subCtx context.Context) []*clientRun {
	collectors := make([]*clientRun, 0, r.sc.Clients)
	opts := fsr.SessionOptions{
		Window:       32,
		AckTimeout:   time.Second,
		ProbeTimeout: 1500 * time.Millisecond,
	}
	var edgeIDs []fsr.ProcID
	for _, er := range r.edges {
		edgeIDs = append(edgeIDs, er.serveID)
	}
	for i := range r.sc.Clients {
		c := &clientRun{idx: i}
		var err error
		if r.sc.Edges > 0 {
			c.id = clientIDBase + fsr.ProcID(2*i)
			if c.sess, err = r.dialVia(c.id, edgeIDs, opts); err == nil {
				if c.subSess, err = r.dialVia(c.id+1, edgeIDs, opts); err != nil {
					c.sess.Close()
				}
			}
		} else {
			// Cluster.Dial hands out client IDs in call order from
			// ClientIDBase; these are the first (and only) dials on this
			// cluster.
			c.id = fsr.ClientIDBase + fsr.ProcID(i)
			c.sess, err = r.cluster.Dial(opts)
			c.subSess = c.sess
		}
		if err != nil {
			failf(r.t, r.sc.Seed, "client %d: dial: %v", i, err)
			r.t.FailNow()
		}
		collectors = append(collectors, c)
		go c.subscribe(subCtx)
	}
	return collectors
}

// dialVia opens one session on a fresh chaos-wrapped endpoint, pinned to
// the given serving processes.
func (r *runner) dialVia(id fsr.ProcID, targets []fsr.ProcID, opts fsr.SessionOptions) (fsr.Session, error) {
	tr, err := r.ct.Join(id)
	if err != nil {
		return nil, err
	}
	if err := r.ct.Open(); err != nil {
		_ = tr.Close()
		return nil, err
	}
	opts.OnClose = func() { _ = tr.Close() }
	return fsr.DialVia(tr, targets, opts)
}

// subscribe streams the whole order from offset 1 into the collector. A
// state snapshot (the stream resumed below a member's truncation point)
// replaces the collected prefix — the Recorder's snapshot IS its history.
func (c *clientRun) subscribe(ctx context.Context) {
	for _, m := range c.subSess.Subscribe(ctx, 1) {
		if m.Snapshot {
			var log []Rec
			if err := json.Unmarshal(m.Payload, &log); err != nil {
				c.mu.Lock()
				c.err = fmt.Errorf("undecodable snapshot at %d: %v", m.Seq, err)
				c.mu.Unlock()
				return
			}
			c.mu.Lock()
			c.recs = log
			c.mu.Unlock()
			continue
		}
		rec := recOf(m)
		c.mu.Lock()
		c.recs = append(c.recs, rec)
		c.mu.Unlock()
	}
}

func (c *clientRun) state() ([]Rec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recs, c.err
}

// clientPublisher issues one client's pipelined publish workload.
func (r *runner) clientPublisher(c *clientRun) {
	rng := rand.New(rand.NewSource(r.sc.Seed ^ int64(0xc11e47+c.idx)))
	for i := range r.sc.ClientMsgs {
		payload := r.payload(rng, "cc%d/c%d/m%d/", c.idx, i)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rcpt, err := c.sess.Publish(ctx, payload)
		cancel()
		if err != nil {
			// The session retries internally; Publish only fails on
			// timeout (window never opened) or Close — both findings here.
			failf(r.t, r.sc.Seed, "client %d: publish %d failed: %v", c.idx, i, err)
			return
		}
		r.book(rng, sent{origin: c.id, hash: hashPayload(payload),
			length: len(payload), receipt: rcpt, mustDeliver: true})
	}
}

// checkSubscribers enforces subscribe-gap-freedom: after quiescence every
// client subscriber catches up to the reference history exactly — no gap,
// duplicate or reorder anywhere in its stream, across every failover it
// performed.
func (r *runner) checkSubscribers(logs map[fsr.ProcID][]Rec, collectors []*clientRun) {
	var ref []Rec
	for _, log := range logs {
		if len(log) > len(ref) {
			ref = log
		}
	}
	caughtUp := r.await(30*time.Second, func() string {
		for _, c := range collectors {
			if recs, err := c.state(); err == nil && len(recs) < len(ref) {
				return fmt.Sprintf("client %d subscriber stuck at %d/%d messages; session err=%v",
					c.idx, len(recs), len(ref), c.subSess.Err())
			}
		}
		return ""
	})
	if !caughtUp {
		return
	}
	for _, c := range collectors {
		recs, err := c.state()
		switch {
		case err != nil:
			failf(r.t, r.sc.Seed, "client %d subscriber: %v", c.idx, err)
		case len(recs) > len(ref):
			failf(r.t, r.sc.Seed, "client %d subscriber saw %d messages, reference has %d (duplicate delivery)",
				c.idx, len(recs), len(ref))
		default:
			for i := range ref {
				if recs[i] != ref[i] {
					failf(r.t, r.sc.Seed, "client %d subscriber diverges at %d: got %+v want %+v (gap or reorder)",
						c.idx, i, recs[i], ref[i])
					break
				}
			}
		}
	}
}

// edgeRun is one edge replica's slot: its fixed transport identities, its
// durable store directory, and the running instance (nil while crashed).
type edgeRun struct {
	serveID fsr.ProcID // the ID subscribers dial
	upID    fsr.ProcID // the ID of its upstream client session
	dir     string
	e       *edge.Edge // guarded by runner.mu
}

// startEdges launches the scenario's edge replicas (before any client
// dials them).
func (r *runner) startEdges() {
	for j := range r.sc.Edges {
		er := &edgeRun{
			serveID: edgeIDBase + fsr.ProcID(2*j),
			upID:    edgeIDBase + fsr.ProcID(2*j+1),
			dir:     fmt.Sprintf("%s/edge-%d", r.base, j),
		}
		if err := r.launchEdge(er); err != nil {
			failf(r.t, r.sc.Seed, "edge %d: %v", j, err)
			return
		}
		r.edges = append(r.edges, er)
	}
}

// launchEdge (re)starts one edge replica on its slot: fresh chaos-wrapped
// endpoints under the slot's fixed IDs, the durable store replayed from
// its directory.
func (r *runner) launchEdge(er *edgeRun) error {
	serveTr, err := r.ct.Join(er.serveID)
	if err != nil {
		return err
	}
	upTr, err := r.ct.Join(er.upID)
	if err != nil {
		_ = serveTr.Close()
		return err
	}
	if err := r.ct.Open(); err != nil {
		_ = serveTr.Close()
		_ = upTr.Close()
		return err
	}
	up, err := fsr.DialVia(upTr, r.cluster.IDs(), fsr.SessionOptions{
		Edge:         true,
		AckTimeout:   time.Second,
		ProbeTimeout: 1500 * time.Millisecond,
		OnClose:      func() { _ = upTr.Close() },
	})
	if err != nil {
		_ = serveTr.Close()
		_ = upTr.Close()
		return err
	}
	e, err := edge.NewCore(edge.CoreConfig{
		Transport:  serveTr,
		Upstream:   up,
		Members:    r.cluster.IDs(),
		DurableDir: er.dir,
		Logger:     r.log,
	})
	if err != nil {
		_ = up.Close()
		_ = serveTr.Close()
		return err
	}
	r.mu.Lock()
	er.e = e
	r.mu.Unlock()
	return nil
}

// crashEdge fail-stops one edge replica: both its endpoints drop off the
// transport (clients and the upstream member observe silence), then the
// instance is reaped.
func (r *runner) crashEdge(idx int) {
	er := r.edges[idx]
	r.mu.Lock()
	e := er.e
	er.e = nil
	r.mu.Unlock()
	if e != nil {
		r.ct.Crash(er.serveID)
		r.ct.Crash(er.upID)
		e.Stop()
	}
}

// restartEdge brings a crashed edge back on its durable store.
func (r *runner) restartEdge(idx int) {
	if err := r.launchEdge(r.edges[idx]); err != nil {
		failf(r.t, r.sc.Seed, "edge %d restart: %v", idx, err)
	}
}

// stopEdges reaps every edge still running at scenario end.
func (r *runner) stopEdges() {
	for i := range r.edges {
		r.crashEdge(i)
	}
}
