// Package fd implements the failure detection module of the paper's system
// model (Section 3): each process has access to a Perfect failure detector P
// (Chandra & Toueg). In the cluster environments the paper targets —
// fail-stop processes on a synchronous switched LAN — a heartbeat detector
// with a generous timeout implements P: it is complete (a crashed process
// stops heartbeating and is eventually suspected) and accurate (a live
// process's heartbeats keep arriving before the timeout).
//
// The detector is a pure state machine advanced by Tick(now) and
// HandleHeartbeat(from, now): tests control time exactly, and a node drives
// it from its event loop.
package fd

import (
	"encoding/binary"
	"fmt"
	"time"

	"fsr/internal/ring"
	"fsr/internal/wire"
)

// Config parameterizes a Detector.
type Config struct {
	// Self is this process's ID (never monitored, never suspected).
	Self ring.ProcID
	// Interval is the heartbeat emission period.
	Interval time.Duration
	// Timeout is the silence threshold after which a peer is suspected.
	// Must be comfortably above Interval plus worst-case scheduling jitter
	// for the accuracy half of P to hold.
	Timeout time.Duration
	// Send emits one heartbeat payload to a peer. Errors are ignored: a
	// dead link is exactly what the timeout detects.
	Send func(to ring.ProcID, payload []byte)
	// Suspect is invoked exactly once per peer when it is declared
	// crashed, from within Tick and at its now.
	Suspect func(p ring.ProcID, now time.Time)
}

// Detector is the pure failure-detector state machine. Not goroutine-safe:
// its owner serializes every call.
type Detector struct {
	cfg Config
	// peers is the monitored set in SetPeers order. Tick walks it, so the
	// order of its sends and suspicions is a function of its inputs.
	peers    []peer
	lastBeat time.Time
}

type peer struct {
	id       ring.ProcID
	lastSeen time.Time
	suspect  bool
}

// New builds a detector with no monitored peers yet.
func New(cfg Config) (*Detector, error) {
	if cfg.Interval <= 0 || cfg.Timeout <= cfg.Interval {
		return nil, fmt.Errorf("fd: timeout %v must exceed a positive interval %v", cfg.Timeout, cfg.Interval)
	}
	if cfg.Send == nil || cfg.Suspect == nil {
		return nil, fmt.Errorf("fd: Send and Suspect callbacks are required")
	}
	return &Detector{cfg: cfg}, nil
}

// find returns the monitored peer p, or nil.
func (d *Detector) find(p ring.ProcID) *peer {
	for i := range d.peers {
		if d.peers[i].id == p {
			return &d.peers[i]
		}
	}
	return nil
}

// SetPeers replaces the monitored peer set (typically on view change). New
// peers get a fresh grace period starting at now; suspicions of processes
// no longer in the set are forgotten.
func (d *Detector) SetPeers(peers []ring.ProcID, now time.Time) {
	next := make([]peer, 0, len(peers))
	for _, p := range peers {
		if old := d.find(p); old != nil {
			next = append(next, *old)
		} else if p != d.cfg.Self {
			next = append(next, peer{id: p, lastSeen: now})
		}
	}
	d.peers = next
}

// HandleHeartbeat records proof of life from a peer. Heartbeats from
// processes already suspected are ignored: P never revises a suspicion
// (strong accuracy makes that sound in the fail-stop model).
func (d *Detector) HandleHeartbeat(from ring.ProcID, now time.Time) {
	if p := d.find(from); p != nil && !p.suspect {
		p.lastSeen = now
	}
}

// Tick advances time: it emits heartbeats on the configured cadence and
// declares silent peers crashed.
func (d *Detector) Tick(now time.Time) {
	if d.lastBeat.IsZero() || now.Sub(d.lastBeat) >= d.cfg.Interval {
		d.lastBeat = now
		hb := Encode(d.cfg.Self)
		for _, p := range d.peers {
			if !p.suspect {
				d.cfg.Send(p.id, hb)
			}
		}
	}
	peers := d.peers // a Suspect callback may install a view and SetPeers
	for i := range peers {
		p := &peers[i]
		if !p.suspect && now.Sub(p.lastSeen) > d.cfg.Timeout {
			p.suspect = true
			d.cfg.Suspect(p.id, now)
		}
	}
}

// Suspected reports whether p is currently suspected.
func (d *Detector) Suspected(p ring.ProcID) bool {
	q := d.find(p)
	return q != nil && q.suspect
}

// Encode builds the heartbeat payload for a sender (KindFD + ProcID).
func Encode(self ring.ProcID) []byte {
	buf := make([]byte, 5)
	buf[0] = wire.KindFD
	binary.LittleEndian.PutUint32(buf[1:], uint32(self))
	return buf
}

// Decode parses a heartbeat payload.
func Decode(payload []byte) (ring.ProcID, error) {
	if len(payload) != 5 || payload[0] != wire.KindFD {
		return 0, fmt.Errorf("fd: bad heartbeat payload (%d bytes)", len(payload))
	}
	return ring.ProcID(binary.LittleEndian.Uint32(payload[1:])), nil
}
