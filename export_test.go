package fsr

import "fmt"

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
