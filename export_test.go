package fsr

import (
	"fmt"
	"time"

	"fsr/transport"
)

// WatchdogState renders what a hung test needs of n without asking its
// event loop, which may be the thing that hangs: the view, the applied
// frontier, the client publishes parked and in flight, and whether the
// node is catching up or has failed.
func (n *Node) WatchdogState() string {
	v := n.CurrentView()
	n.sess.mu.Lock()
	parked, inflight := len(n.sess.parked), len(n.sess.inflight)
	n.sess.mu.Unlock()
	return fmt.Sprintf("node %d: view=%d members=%v applied=%d parked=%d inflight=%d catching_up=%v err=%v",
		n.Self(), v.ID, v.Members, n.Applied(), parked, inflight, n.pump.catchingUp(), n.Err())
}

// NewSteppedNode builds a member whose event loop and pump do not run: the
// caller steps its core and its pump in their place, on a clock of its own
// that starts at now.
func NewSteppedNode(cfg Config, tr transport.Transport, now time.Time) (*Node, error) {
	return newNode(cfg, tr, now)
}

// StepPayload hands the core one transport payload, StepTick one tick.
func (n *Node) StepPayload(now time.Time, from ProcID, payload []byte) {
	n.handle(now, input{inboundPayload: inboundPayload{from, payload}})
}

func (n *Node) StepTick(now time.Time) { n.handle(now, input{tick: true}) }

// StepPublish hands the core one local publish if the publish gate is open,
// as the loop takes one; taken is false while the gate is shut.
func (n *Node) StepPublish(now time.Time, payload []byte) (taken bool, err error) {
	if !n.canPublish() {
		return false, nil
	}
	resp := make(chan bcastResp, 1)
	n.handle(now, input{pub: bcastReq{payload: payload, resp: resp}})
	return true, (<-resp).err
}

// StepFlush ends a drain as the loop does; StepPump applies one pump batch.
func (n *Node) StepFlush(now time.Time) bool     { return n.flush(now) }
func (n *Node) StepPump() (idle bool, err error) { return n.pump.step() }
