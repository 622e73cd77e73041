package fsr

import "context"

// Receipt tracks one Session.Publish through to its commit. It resolves
// exactly once. Either the message is committed at the serving member (for
// Node.Session, this member): uniformly delivered — which, by the protocol's
// stability rule, can only happen after the message is stored by the leader
// and all backups, i.e. it survives any T crashes and every live member will
// deliver it — and then durable there (fsynced, with Config.DurableDir),
// applied to the state machine and visible to subscribers, so Seq() <= that
// member's Applied(). Or the publish fails permanently: the session closed,
// or the node stopped, was evicted, or hit a fatal protocol error.
//
// A Receipt is what makes the paper's uniformity guarantee observable:
// request/reply and synchronous-write callers block on Delivered (or Wait)
// before acknowledging upstream, knowing the operation is durable in the
// group even across a leader crash, and can read their own write back.
type Receipt struct {
	done chan struct{}
	seq  uint64
	err  error
}

func newReceipt() *Receipt { return &Receipt{done: make(chan struct{})} }

// Delivered returns a channel that is closed once the publish resolves —
// commit or permanent failure. Check Err to distinguish.
func (r *Receipt) Delivered() <-chan struct{} { return r.done }

// Seq blocks until the publish resolves and returns the offset the message
// was committed at (its final segment's position in the total order), or 0
// if the publish failed.
func (r *Receipt) Seq() uint64 {
	<-r.done
	return r.seq
}

// Err blocks until the publish resolves. Nil means the message is
// committed; ErrStopped means the session closed, or the node stopped or was
// evicted, first (the message may or may not survive in the group).
func (r *Receipt) Err() error {
	<-r.done
	return r.err
}

// Wait blocks until the publish resolves or ctx is done, returning the
// resolution error (nil on commit) or ctx.Err. Canceling ctx abandons the
// wait only — the publish itself is not withdrawn.
func (r *Receipt) Wait(ctx context.Context) error {
	select {
	case <-r.done:
		return r.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Exactly one of resolve and fail is called, once, by whoever removed the
// publish from its in-flight table (sessSrv.inflight on a member,
// remoteSession.pubs on a client) under that table's lock.

func (r *Receipt) resolve(seq uint64) {
	r.seq = seq
	close(r.done)
}

func (r *Receipt) fail(err error) {
	r.err = err
	close(r.done)
}
