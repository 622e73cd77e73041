package fsr

import (
	"fsr/internal/core"
	"fsr/internal/wire"
)

// Message is one fully reassembled application message, TO-delivered in the
// same total order at every group member.
type Message struct {
	// Seq is the global sequence number of the message's final segment —
	// its position (offset) in the total order (identical at every process
	// within an epoch).
	Seq uint64
	// Origin is the publishing process: the broadcasting ring member, or —
	// for messages published through a Session client — the client's ID
	// (>= ClientIDBase).
	Origin ProcID
	// LogicalID names the broadcast uniquely together with Origin, across
	// views and retries: the wire identity of the message's first segment
	// for member broadcasts, the client-assigned publish ID for session
	// publishes.
	LogicalID uint64
	// Payload is the reassembled application payload. A StateMachine must
	// treat it as read-only (the member's log and its subscribers hold
	// the same bytes); on a subscription stream it is a slice of the
	// frame it arrived in — see Session.Subscribe for what that allows.
	Payload []byte
	// Snapshot marks a state transfer on a subscription stream only: a
	// Subscribe that resumed below the group's log truncation point starts
	// with one pair whose Payload is the application snapshot covering
	// every message up to Seq. Never set on StateMachine deliveries.
	Snapshot bool
}

// asmResult classifies what one delivered segment did to its logical
// message.
type asmResult int

const (
	// asmPending: the message is still missing later parts.
	asmPending asmResult = iota
	// asmComplete: the segment completed the message.
	asmComplete
	// asmDropped: the segment ended a message whose earlier parts predate
	// this process's delivery horizon (it joined mid-message), so the
	// message cannot be reassembled here. A durable node repairs the hole
	// through catch-up; an ephemeral joiner simply never sees the message
	// (it missed everything before its join anyway).
	asmDropped
)

// assembler re-joins segmented broadcasts. Segments of one logical message
// share an origin and consecutive origin-local IDs; per-origin FIFO delivery
// guarantees they arrive in part order, so the logical message completes
// exactly when its last part is delivered — at the same point in the total
// order on every process.
type assembler struct {
	partial  map[wire.MsgID][][]byte // keyed by first segment's ID
	poisoned map[wire.MsgID]bool     // straddling messages with lost heads
}

func newAssembler() *assembler {
	return &assembler{
		partial:  make(map[wire.MsgID][][]byte),
		poisoned: make(map[wire.MsgID]bool),
	}
}

// add folds one delivered segment, returning the completed message when
// the segment was the last piece (asmComplete).
func (a *assembler) add(d core.Delivery) (Message, asmResult) {
	logical := wire.MsgID{Origin: d.ID.Origin, Local: d.ID.Local - uint64(d.Part)}
	if d.Parts <= 1 {
		return Message{
			Seq:       d.Seq,
			Origin:    d.ID.Origin,
			LogicalID: logical.Local,
			Payload:   d.Body,
		}, asmComplete
	}
	last := int(d.Part) == int(d.Parts)-1
	if a.poisoned[logical] {
		if last {
			delete(a.poisoned, logical)
			return Message{Seq: d.Seq}, asmDropped
		}
		return Message{}, asmPending
	}
	parts := a.partial[logical]
	if parts == nil {
		if d.Part != 0 {
			// First sighting is a non-head part: the head was delivered
			// before this process's horizon and will never arrive.
			if last {
				return Message{Seq: d.Seq}, asmDropped
			}
			a.poisoned[logical] = true
			return Message{}, asmPending
		}
		parts = make([][]byte, d.Parts)
		a.partial[logical] = parts
	}
	if int(d.Part) < len(parts) {
		parts[d.Part] = d.Body
	}
	if !last {
		return Message{}, asmPending
	}
	// Final part: all earlier parts have been delivered (per-origin FIFO).
	var size int
	for _, p := range parts {
		size += len(p)
	}
	payload := make([]byte, 0, size)
	for _, p := range parts {
		payload = append(payload, p...)
	}
	delete(a.partial, logical)
	return Message{
		Seq:       d.Seq,
		Origin:    d.ID.Origin,
		LogicalID: logical.Local,
		Payload:   payload,
	}, asmComplete
}
