package fsr

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"fsr/internal/core"
	"fsr/internal/ring"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// ProcID identifies one process in the group.
type ProcID = ring.ProcID

// Config parameterizes a Node.
type Config struct {
	// Self is this process's ID. Required.
	Self ProcID

	// Members is the initial view in ring order: Members[0] is the leader
	// (fixed sequencer), Members[1..T] the backups. Required unless Joiner
	// is set.
	Members []ProcID

	// T is the number of process failures to tolerate; the T ring
	// positions after the leader act as backups. Each installed view uses
	// min(T, n-1). Default 1.
	T int

	// SegmentSize caps the application bytes one segment carries: a
	// publish of up to SegmentSize bytes always rides the ring as exactly
	// one segment. The ring envelope (13 bytes of client identity on a
	// remote session's publish, 1 byte on a member's own)
	// is carried on top of the cap, so segments on the wire are at most
	// SegmentSize+13 bytes. Larger payloads are split at that boundary, so
	// uniform frame sizes keep large messages from stalling small ones
	// (paper §4.1). Default core.DefaultSegmentSize (8 KiB).
	SegmentSize int

	// HeartbeatInterval is the failure-detector beat period. Default 50ms.
	HeartbeatInterval time.Duration

	// FailureTimeout is the silence threshold before a peer is declared
	// crashed. Must exceed HeartbeatInterval. Default 500ms.
	FailureTimeout time.Duration

	// ChangeTimeout restarts a stalled view change. Default 1s.
	ChangeTimeout time.Duration

	// Joiner starts the node outside the group; call Node.Join to enter.
	// Members is then the contact list rather than an initial view.
	Joiner bool

	// DurableDir, when set, makes the delivered total order survive a
	// process restart: the node keeps a write-ahead log (and, with a
	// StateMachine, periodic snapshots) in this directory, persists every
	// delivery before any consumer sees it, and on startup rebuilds its position
	// from snapshot + WAL. A restarted node (start it as a Joiner on the
	// same directory; see Cluster.Restart) then fetches the suffix of the
	// order it missed from its peers before resuming. One directory
	// belongs to exactly one member.
	DurableDir string

	// StateMachine, when set, receives every delivered message via Apply
	// in total order. With DurableDir it is checkpointed and restored
	// across restarts; without it, it is simply a convenient consumer.
	StateMachine StateMachine

	// SnapshotEvery is how many applied messages separate state-machine
	// snapshots (which also truncate the WAL behind them). Only meaningful
	// with both DurableDir and StateMachine. Default 4096.
	SnapshotEvery int

	// WALSegmentBytes caps one write-ahead-log segment file (the unit of
	// truncation behind a snapshot). Default 4 MiB.
	WALSegmentBytes int

	// WALFS overrides the filesystem the write-ahead log runs on — the
	// storage fault-injection seam (internal/wal/walfault; the chaos
	// harness's hostile-disk profile runs durable members on it). Nil, the
	// production value, selects the real filesystem.
	WALFS wal.FS

	// WireVersion overrides the protocol version this node stamps on its
	// outbound ring frames — the version-skew seam for rolling-upgrade
	// tests (the chaos harness runs mixed old/new rings on it). Zero, the
	// production value, selects wire.CurrentVersion. Must share
	// wire.ProtoMajor: a node cannot speak a major it does not implement.
	WireVersion byte

	// Logger receives structured events — view installs, catch-up
	// progress, WAL rotation and repair, slow-subscriber detaches — each
	// tagged with the node ID. Default discards them. Logging happens off
	// the frame hot path only.
	Logger *slog.Logger
}

// WithDurableDir returns a copy of c with the durable directory set —
// chainable sugar for building configs:
//
//	cfg := fsr.Config{...}.WithDurableDir(dir).WithStateMachine(sm)
func (c Config) WithDurableDir(dir string) Config {
	c.DurableDir = dir
	return c
}

// WithStateMachine returns a copy of c with the replicated state machine
// set.
func (c Config) WithStateMachine(sm StateMachine) Config {
	c.StateMachine = sm
	return c
}

// ErrStopped is returned by Publish, and by the receipts of publishes still
// in flight, after Stop, Close or eviction from the group.
var ErrStopped = errors.New("fsr: node stopped")

func (c Config) withDefaults() (Config, error) {
	if c.T == 0 {
		c.T = 1
	}
	if c.T < 0 {
		return c, fmt.Errorf("fsr: negative T %d", c.T)
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = core.DefaultSegmentSize
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.FailureTimeout <= 0 {
		c.FailureTimeout = 500 * time.Millisecond
	}
	if c.FailureTimeout <= c.HeartbeatInterval {
		return c, fmt.Errorf("fsr: FailureTimeout %v must exceed HeartbeatInterval %v",
			c.FailureTimeout, c.HeartbeatInterval)
	}
	if c.ChangeTimeout <= 0 {
		c.ChangeTimeout = time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.WireVersion == 0 {
		c.WireVersion = wire.CurrentVersion
	}
	if wire.VersionMajor(c.WireVersion) != wire.ProtoMajor {
		return c, fmt.Errorf("fsr: WireVersion %d.%d: this build implements major %d",
			wire.VersionMajor(c.WireVersion), wire.VersionMinor(c.WireVersion), wire.ProtoMajor)
	}
	if !c.Joiner && len(c.Members) == 0 {
		return c, fmt.Errorf("fsr: empty initial membership")
	}
	return c, nil
}

// initialView builds the first view from the config.
func (c Config) initialView() (core.View, error) {
	if c.Joiner {
		r, err := ring.New([]ring.ProcID{c.Self}, 0)
		if err != nil {
			return core.View{}, err
		}
		return core.View{ID: 0, Ring: r}, nil
	}
	r, err := ring.New(c.Members, min(c.T, len(c.Members)-1))
	if err != nil {
		return core.View{}, fmt.Errorf("fsr: invalid membership: %w", err)
	}
	return core.View{ID: 1, Ring: r}, nil
}
