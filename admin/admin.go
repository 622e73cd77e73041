// Package admin queries running FSR members and edge replicas for operator
// state over the ordinary client transport.
//
// Every process that listens for clients also answers the KindAdmin
// sub-protocol: one request byte selects an op (status, members, wal,
// sessions, snapshot) and the reply carries a JSON body with a fixed schema
// per op — the types in this package. The cmd/fsr-admin CLI renders these
// across a whole cluster; programs embed Client directly for the same data.
//
// The serving side is Responder, one implementation for both kinds of host:
// it decodes, answers the wal and sessions ops and the readiness half of
// status out of the host's serve.Log and serve.Server, asks the host for
// what only it knows (its view; a member's snapshot, evict and join-hint
// ops; an edge's refusal to cut a snapshot), marshals and replies. Admin
// queries are answered on the node's event loop without taking the WAL's
// lock, so they are safe to run against a loaded cluster, and they work
// against any member or edge — including one that is catching up or read-only,
// which is precisely when an operator wants to look.
package admin

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"fsr/internal/wire"
	"fsr/transport"
	"fsr/transport/tcp"
)

// clientIDBase mirrors fsr.ClientIDBase (this package sits below fsr so the
// node can marshal these body types without an import cycle): admin
// connections identify themselves in the client ID space.
const clientIDBase transport.ProcID = 1 << 31

// Status is the per-process headline: who it is, what view it follows, how
// far it has applied, and whether it would pass a readiness probe.
type Status struct {
	// Role is "member" or "edge".
	Role string `json:"role"`
	// ID is the process ID (member ID, or the edge's client-space ID).
	ID uint32 `json:"id"`
	// Epoch and Leader describe the installed view (members) or the view
	// observed through the upstream session (edges, 0 when unknown).
	Epoch    uint64 `json:"epoch"`
	Leader   uint32 `json:"leader"`
	IsLeader bool   `json:"is_leader,omitempty"`
	// Applied is the highest sequence number folded into local state.
	Applied    uint64 `json:"applied"`
	CatchingUp bool   `json:"catching_up,omitempty"`
	// Ready mirrors the /readyz probe; ReadyErr says why when false.
	Ready    bool   `json:"ready"`
	ReadyErr string `json:"ready_err,omitempty"`
	// TailConnected/TailLagMillis are edge-only: upstream tail health.
	TailConnected bool  `json:"tail_connected,omitempty"`
	TailLagMillis int64 `json:"tail_lag_millis,omitempty"`
}

// Members is the installed view membership as one process sees it.
type Members struct {
	Epoch  uint64   `json:"epoch"`
	Leader uint32   `json:"leader"`
	T      int      `json:"t"`
	IDs    []uint32 `json:"ids"`
}

// WALInfo is the durable-log counter snapshot (see fsr.WALMetrics).
type WALInfo struct {
	Durable           bool   `json:"durable"`
	Segments          int    `json:"segments,omitempty"`
	Bytes             int64  `json:"bytes,omitempty"`
	Appends           uint64 `json:"appends,omitempty"`
	Fsyncs            uint64 `json:"fsyncs,omitempty"`
	Rotations         uint64 `json:"rotations,omitempty"`
	Snapshots         uint64 `json:"snapshots,omitempty"`
	SnapshotSeq       uint64 `json:"snapshot_seq,omitempty"`
	SnapshotAgeMillis int64  `json:"snapshot_age_millis,omitempty"`
	Repairs           uint64 `json:"repairs,omitempty"`
}

// Sessions is the client-serving surface: publish traffic and the subscriber
// population this process currently feeds.
type Sessions struct {
	Publishes    uint64 `json:"publishes"`
	Duplicates   uint64 `json:"duplicates"`
	Bounded      uint64 `json:"bounded"`
	Subscribers  int    `json:"subscribers"`
	TailAttached int    `json:"tail_attached"`
	EdgeClients  int    `json:"edge_clients"`
	TailFrames   uint64 `json:"tail_frames"`
	TailDetaches uint64 `json:"tail_detaches"`
}

// SnapshotResult answers a snapshot trigger.
type SnapshotResult struct {
	Triggered bool   `json:"triggered"`
	Reason    string `json:"reason,omitempty"`
}

// EvictResult answers an eviction request. Requested means the membership
// layer accepted the request (relaying to the coordinator if needed); the
// eviction itself completes asynchronously with the next view change.
type EvictResult struct {
	Target    uint32 `json:"target"`
	Requested bool   `json:"requested"`
	Reason    string `json:"reason,omitempty"`
}

// JoinHintResult answers a join hint. Accepted means the process queued an
// admission request through the supplied contacts; admission itself
// completes asynchronously with a view change that includes the process.
type JoinHintResult struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// Client is one admin connection to a member or edge. It is safe for
// concurrent use; requests are serialized over the single connection.
type Client struct {
	cc      *tcp.ClientConn
	timeout time.Duration

	mu   sync.Mutex // serializes request/response pairs
	resp chan *wire.AdminResp
}

// Dial connects the admin client to one process's client listener. timeout
// bounds the dial and each subsequent request (default 3s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	id := clientIDBase + transport.ProcID(rand.Uint32N(1<<31))
	cc, err := tcp.DialConn(addr, id, timeout)
	if err != nil {
		return nil, fmt.Errorf("admin: dial %s: %w", addr, err)
	}
	c := &Client{cc: cc, timeout: timeout, resp: make(chan *wire.AdminResp, 1)}
	cc.SetHandler(func(payload []byte) {
		if len(payload) == 0 || payload[0] != wire.KindAdmin {
			return // keepalives or other sub-protocol traffic; not ours
		}
		v, err := wire.DecodeAdmin(payload)
		if err != nil {
			return
		}
		p, ok := v.(*wire.AdminResp)
		if !ok {
			return
		}
		// Copy the body out of the transport's buffer before handing off.
		if p.Body != nil {
			p.Body = append([]byte(nil), p.Body...)
		}
		select {
		case c.resp <- p:
		default: // no request outstanding; drop
		}
	})
	return c, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.cc.Close() }

func (c *Client) do(req *wire.AdminReq, out any) error {
	op := req.Op
	c.mu.Lock()
	defer c.mu.Unlock()
	// Drain a stale reply from an earlier timed-out request.
	select {
	case <-c.resp:
	default:
	}
	if err := c.cc.Send(wire.EncodeAdminReq(req)); err != nil {
		return fmt.Errorf("admin: send: %w", err)
	}
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	for {
		select {
		case p := <-c.resp:
			if p.Op != op {
				continue // stale reply to a superseded request
			}
			if p.Err != "" {
				return fmt.Errorf("admin: remote: %s", p.Err)
			}
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(p.Body, out); err != nil {
				return fmt.Errorf("admin: decode op %d body: %w", op, err)
			}
			return nil
		case <-t.C:
			return fmt.Errorf("admin: op %d: timeout after %v", op, c.timeout)
		}
	}
}

// Status fetches the process headline.
func (c *Client) Status() (*Status, error) {
	var s Status
	if err := c.do(&wire.AdminReq{Op: wire.AdminStatus}, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Members fetches the installed view membership.
func (c *Client) Members() (*Members, error) {
	var m Members
	if err := c.do(&wire.AdminReq{Op: wire.AdminMembers}, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// WAL fetches the durable-log counters.
func (c *Client) WAL() (*WALInfo, error) {
	var w WALInfo
	if err := c.do(&wire.AdminReq{Op: wire.AdminWAL}, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// Sessions fetches the client-serving counters.
func (c *Client) Sessions() (*Sessions, error) {
	var s Sessions
	if err := c.do(&wire.AdminReq{Op: wire.AdminSessions}, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Snapshot asks the process to take a state-machine snapshot now.
func (c *Client) Snapshot() (*SnapshotResult, error) {
	var r SnapshotResult
	if err := c.do(&wire.AdminReq{Op: wire.AdminSnapshot}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Evict asks the process to force member target out of the view — the
// operator override for a wedged or half-partitioned member the failure
// detector has not acted on. Any member accepts the request and relays it
// to the coordinator; the eviction completes with the next view change.
func (c *Client) Evict(target uint32) (*EvictResult, error) {
	var r EvictResult
	if err := c.do(&wire.AdminReq{Op: wire.AdminEvict, Target: target}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// JoinHint hands the process a contact list (member IDs) to request
// admission through — the nudge for a joiner that restarted with a stale
// or empty member list. A process already in a view refuses politely.
func (c *Client) JoinHint(contacts []uint32) (*JoinHintResult, error) {
	var r JoinHintResult
	if err := c.do(&wire.AdminReq{Op: wire.AdminJoinHint, Contacts: contacts}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
