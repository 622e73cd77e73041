package fsr

import "time"

// Metrics is a point-in-time snapshot of one node's protocol activity,
// taken coherently on the event loop. Counters are cumulative since the
// node started; queue depths are instantaneous.
type Metrics struct {
	// View is the currently installed membership epoch.
	View ViewInfo
	// IsLeader reports whether this node is the fixed sequencer.
	IsLeader bool

	// FramesIn / FramesOut count protocol frames exchanged with the ring
	// neighbors.
	FramesIn, FramesOut uint64
	// DataIn and AcksIn count received data segments and acknowledgments.
	DataIn, AcksIn uint64
	// Sequenced counts segments this node assigned a sequence number to
	// (leader only).
	Sequenced uint64
	// Delivered counts TO-delivered segments.
	Delivered uint64
	// StaleFrames counts frames dropped because of a view mismatch.
	StaleFrames uint64
	// RelayedData and OwnSent split outbound data traffic into relayed
	// segments and this node's own.
	RelayedData, OwnSent uint64
	// FairnessSkips counts relay items sent ahead of an own message by the
	// paper's §4.2.3 fairness rule; StandaloneAcks counts frames that
	// carried only acknowledgments.
	FairnessSkips, StandaloneAcks uint64
	// MultiSegFrames counts outbound frames that batched more than one
	// data segment (relayed traffic batches, own sends stay one per frame).
	MultiSegFrames uint64
	// SkippedVersion counts inbound payloads dropped for an incompatible
	// (different-major) wire protocol version; SkippedUnknown counts
	// payloads of an unknown channel kind or control type. Both are skips,
	// not faults — see the compat policy in internal/wire/version.go. A
	// steadily climbing SkippedVersion means a mis-versioned peer is
	// attached — page on this during upgrades.
	SkippedVersion uint64
	SkippedUnknown uint64

	// RelayQueue, OwnQueue and AckQueue are the engine's current queue
	// depths (load indicators; OwnQueue at 1024 segments means the publish
	// gate is shut: in-process publishers block, client publishes park).
	RelayQueue, OwnQueue, AckQueue int
	// PendingReceipts is the number of in-process publishes accepted but
	// not yet committed (Node.Session receipts still unresolved).
	PendingReceipts int

	// Applied is the highest message sequence number persisted and folded
	// into the state machine (see Node.Applied); CatchingUp reports that
	// the node is currently fetching missed history from its peers, with
	// the live stream held back.
	Applied    uint64
	CatchingUp bool

	// SessionPublishes counts client publishes committed through this
	// member; SessionDuplicates counts duplicate publishes (retries after
	// crashes or lost acks) this member filtered out of the order at apply
	// time; SessionSubscribers is the number of remote subscriptions
	// currently being served.
	SessionPublishes   uint64
	SessionDuplicates  uint64
	SessionSubscribers int

	// Encode-once fan-out (see internal/serve): TailAttached counts
	// subscriptions currently fed by the shared tail, TailFrames the
	// encode-once frames published, TailDetaches the slow clients demoted
	// back to catch-up paging by a full transmit queue. EdgeClients counts
	// connected links that announced themselves as edge replicas.
	// SessionBounded counts publishes dropped by the per-client in-flight
	// bound.
	TailAttached   int
	TailFrames     uint64
	TailDetaches   uint64
	EdgeClients    int
	SessionBounded uint64

	// PublishLatency is the cumulative histogram of Session.Publish
	// accept→commit latency on this member: every publish it committed,
	// from a remote client (acknowledged by PUBACK) or in process
	// (acknowledged by its Receipt).
	PublishLatency LatencyHistogram

	// WAL is the storage layer's slice of the snapshot; zero when the node
	// runs without a durable directory.
	WAL WALMetrics
}

// WALMetrics is the durability substrate's counter snapshot.
type WALMetrics struct {
	// Segments and Bytes size the retained log (including the active
	// segment's buffered tail).
	Segments int
	Bytes    int64
	// Appends and Fsyncs count entries written and fsync calls; Rotations
	// counts segment rolls.
	Appends, Fsyncs, Rotations uint64
	// Snapshots counts snapshots written this incarnation, SnapshotSeq the
	// seq the latest one covers, SnapshotAge how long ago it was taken
	// (0 when none has been taken yet this incarnation).
	Snapshots   uint64
	SnapshotSeq uint64
	SnapshotAge time.Duration
	// Repairs counts torn tails truncated during recovery at Open.
	Repairs uint64
	// Poisoned reports a log frozen by a storage failure (failed write,
	// flush or fsync): the member has stopped acking and is about to
	// fail-stop — page on this.
	Poisoned bool
}

// LatencyBuckets are the upper bounds of LatencyHistogram's cumulative
// buckets, chosen to straddle the paper's LAN-scale commit latencies
// (sub-millisecond) through degraded multi-second tails.
var LatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
}

// LatencyHistogram is a fixed-bucket cumulative histogram in the
// Prometheus style: Buckets[i] counts samples <= LatencyBuckets[i], and
// Count includes the implicit +Inf bucket.
type LatencyHistogram struct {
	Count   uint64
	Sum     time.Duration
	Buckets [14]uint64
}

// Observe folds one sample into the histogram.
func (h *LatencyHistogram) Observe(d time.Duration) {
	h.Count++
	h.Sum += d
	for i, le := range LatencyBuckets {
		if d <= le {
			h.Buckets[i]++
		}
	}
}
