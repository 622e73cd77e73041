// Package transport defines the point-to-point communication abstraction the
// FSR stack runs on: reliable FIFO unicast channels between every pair of
// processes (the paper's system model, Section 3: fully connected network,
// full duplex, separate collision domains).
//
// Two implementations ship with the module: transport/mem (in-process, for
// tests, examples and single-binary clusters) and transport/tcp (real
// sockets). Applications can supply their own Transport — anything providing
// reliable per-destination FIFO unicast runs the identical protocol stack;
// one with no cheaper way to send several payloads at once implements
// SendBatch as a loop over Send on copies, as transport/mem does.
// The discrete-event simulator in internal/netsim does not use this
// interface — it models link timing explicitly.
package transport

import (
	"errors"

	"fsr/internal/ring"
)

// ProcID identifies one process in the group. It is the same type as
// fsr.ProcID, re-exported here so transport implementations outside this
// module never need the internal ring package.
type ProcID = ring.ProcID

// Errors common to all transports.
var (
	// ErrClosed is returned by Send after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownPeer is returned when the destination is not reachable.
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Handler receives one inbound payload. Implementations preserve
// per-sender FIFO order but may invoke the handler concurrently for
// payloads from different senders; handlers must be goroutine-safe. The
// payload buffer is owned by the handler after the call.
type Handler func(from ProcID, payload []byte)

// BatchSender is the part of Transport the hot paths send through — ring
// frames to the successor, EVENT frames to a subscriber: SendBatch queues
// several payloads to one peer in order, as one network operation where the
// backend allows (transport/tcp turns a batch into a single vectored
// write). Two contract differences from Send:
//
//   - Ordering: the payloads are delivered in slice order, FIFO with
//     respect to every other Send/SendBatch to the same destination.
//   - Ownership: the payload buffers remain owned by the CALLER once
//     SendBatch returns — the implementation must have fully transmitted
//     or copied them. This is what lets the node recycle encode buffers
//     and one encoded frame be shared by every subscriber.
type BatchSender interface {
	SendBatch(to ProcID, payloads [][]byte) error
}

// Transport is one process's endpoint: asynchronous reliable FIFO unicast
// to any known peer.
type Transport interface {
	// Self returns the process ID this endpoint belongs to.
	Self() ProcID
	// Send queues payload for delivery to peer `to`. It does not block on
	// the network; delivery is asynchronous but reliable and FIFO per
	// destination as long as neither endpoint crashes.
	Send(to ProcID, payload []byte) error
	// BatchSender is Send for several payloads, which stay the caller's.
	BatchSender
	// SetHandler installs the inbound payload handler. It must be called
	// before any traffic arrives; implementations buffer until then.
	SetHandler(h Handler)
	// Close releases the endpoint. Pending outbound payloads may be lost
	// (crash semantics).
	Close() error
}
