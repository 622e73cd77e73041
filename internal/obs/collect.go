package obs

import (
	"io"
	"strconv"

	"fsr"
	"fsr/edge"
)

// WriteNodeMetrics renders one member's Metrics snapshot as Prometheus
// text. self is the member's process ID; every series carries it as the
// "node" label, and the view series carry the epoch/leader pair.
func WriteNodeMetrics(w io.Writer, self uint32, m fsr.Metrics) error {
	p := NewWriter(w)
	node := strconv.FormatUint(uint64(self), 10)
	epoch := strconv.FormatUint(m.View.ID, 10)
	leader := ""
	if len(m.View.Members) > 0 {
		leader = strconv.FormatUint(uint64(m.View.Members[0]), 10)
	}

	p.Gauge("fsr_view_epoch", "Installed membership view epoch.", float64(m.View.ID), "node", node)
	p.Gauge("fsr_view_info", "Installed view identity; value is always 1.", 1,
		"node", node, "epoch", epoch, "leader", leader)
	p.Gauge("fsr_view_members", "Member count of the installed view.", float64(len(m.View.Members)), "node", node)
	p.GaugeBool("fsr_is_leader", "Whether this member is the fixed sequencer.", m.IsLeader, "node", node)

	p.Counter("fsr_frames_in_total", "Protocol frames received from ring neighbors.", m.FramesIn, "node", node)
	p.Counter("fsr_frames_out_total", "Protocol frames sent to ring neighbors.", m.FramesOut, "node", node)
	p.Counter("fsr_data_in_total", "Data segments received.", m.DataIn, "node", node)
	p.Counter("fsr_acks_in_total", "Acknowledgment items received.", m.AcksIn, "node", node)
	p.Counter("fsr_sequenced_total", "Segments this member assigned a sequence number to.", m.Sequenced, "node", node)
	p.Counter("fsr_delivered_total", "Segments TO-delivered.", m.Delivered, "node", node)
	p.Counter("fsr_stale_frames_total", "Frames dropped on a view-epoch mismatch.", m.StaleFrames, "node", node)
	p.Counter("fsr_relayed_data_total", "Data segments relayed for other members.", m.RelayedData, "node", node)
	p.Counter("fsr_own_sent_total", "This member's own data segments sent.", m.OwnSent, "node", node)
	p.Counter("fsr_fairness_skips_total", "Relay items sent ahead of own traffic by the fairness rule.", m.FairnessSkips, "node", node)
	p.Counter("fsr_standalone_acks_total", "Frames carrying only acknowledgments.", m.StandaloneAcks, "node", node)
	p.Counter("fsr_multiseg_frames_total", "Outbound frames batching more than one data segment.", m.MultiSegFrames, "node", node)
	p.Counter("fsr_skipped_version_total", "Payloads dropped for an incompatible wire protocol version.", m.SkippedVersion, "node", node)
	p.Counter("fsr_skipped_unknown_total", "Payloads of an unknown channel kind or control type skipped.", m.SkippedUnknown, "node", node)

	p.Gauge("fsr_relay_queue_depth", "Relay queue depth.", float64(m.RelayQueue), "node", node)
	p.Gauge("fsr_own_queue_depth", "Own-message queue depth.", float64(m.OwnQueue), "node", node)
	p.Gauge("fsr_ack_queue_depth", "Acknowledgment queue depth.", float64(m.AckQueue), "node", node)
	p.Gauge("fsr_pending_receipts", "In-process publishes accepted but not yet committed (durable and applied) at this member.", float64(m.PendingReceipts), "node", node)
	p.Gauge("fsr_applied_seq", "Highest sequence number persisted and applied.", float64(m.Applied), "node", node)
	p.GaugeBool("fsr_catching_up", "Whether the member is catching up: fetching or applying missed history.", m.CatchingUp, "node", node)

	p.Counter("fsr_session_publishes_total", "Client publishes committed through this member.", m.SessionPublishes, "node", node)
	p.Counter("fsr_session_duplicates_total", "Duplicate client publishes filtered out of the order.", m.SessionDuplicates, "node", node)
	p.Counter("fsr_session_bounded_total", "Client publishes dropped by the per-client in-flight bound.", m.SessionBounded, "node", node)
	p.Gauge("fsr_session_subscribers", "Remote subscriptions currently served.", float64(m.SessionSubscribers), "node", node)
	p.Gauge("fsr_tail_attached", "Subscriptions fed by the shared encode-once tail.", float64(m.TailAttached), "node", node)
	p.Counter("fsr_tail_frames_total", "Encode-once fan-out frames published.", m.TailFrames, "node", node)
	p.Counter("fsr_tail_detaches_total", "Slow subscribers demoted from the shared tail.", m.TailDetaches, "node", node)
	p.Gauge("fsr_edge_clients", "Connected links announced as edge replicas.", float64(m.EdgeClients), "node", node)

	p.Gauge("fsr_wal_segments", "Durable-log segment files retained.", float64(m.WAL.Segments), "node", node)
	p.Gauge("fsr_wal_bytes", "Durable-log bytes retained.", float64(m.WAL.Bytes), "node", node)
	p.Counter("fsr_wal_appends_total", "Entries appended to the durable log.", m.WAL.Appends, "node", node)
	p.Counter("fsr_wal_fsyncs_total", "Durable-log fsync calls.", m.WAL.Fsyncs, "node", node)
	p.Counter("fsr_wal_rotations_total", "Durable-log segment rotations.", m.WAL.Rotations, "node", node)
	p.Counter("fsr_wal_recycled_total", "Durable-log segment files reused from the snapshot-freed pool.", m.WAL.Recycled, "node", node)
	p.Counter("fsr_wal_snapshots_total", "State-machine snapshots written this incarnation.", m.WAL.Snapshots, "node", node)
	p.Gauge("fsr_wal_snapshot_seq", "Sequence number the latest snapshot covers.", float64(m.WAL.SnapshotSeq), "node", node)
	p.Gauge("fsr_wal_snapshot_age_seconds", "Seconds since the latest snapshot was written.", m.WAL.SnapshotAge.Seconds(), "node", node)
	p.Counter("fsr_wal_repairs_total", "Torn tails truncated during recovery.", m.WAL.Repairs, "node", node)
	p.GaugeBool("fsr_wal_poisoned", "Whether a storage failure froze the durable log (member fail-stops).", m.WAL.Poisoned, "node", node)

	p.Histogram("fsr_publish_latency_seconds",
		"Session Publish accept-to-acknowledgment latency.",
		fsr.LatencyBuckets, m.PublishLatency.Buckets[:], m.PublishLatency.Sum, m.PublishLatency.Count,
		"node", node)
	return p.Err()
}

// WriteEdgeMetrics renders one edge replica's Metrics snapshot as
// Prometheus text; every series carries the edge's client-space ID as the
// "edge" label.
func WriteEdgeMetrics(w io.Writer, self uint32, m edge.Metrics) error {
	p := NewWriter(w)
	id := strconv.FormatUint(uint64(self), 10)

	p.Gauge("fsr_edge_applied_seq", "Highest offset replicated from upstream.", float64(m.Applied), "edge", id)
	p.Gauge("fsr_edge_store_base_seq", "Store horizon; offsets at or below it are not held as entries.", float64(m.StoreBase), "edge", id)
	p.Gauge("fsr_edge_store_entries", "Entries held in the in-memory tail (0 on a durable edge, which serves from its WAL).", float64(m.StoreEntries), "edge", id)
	p.Gauge("fsr_edge_snapshot_seq", "Offset the held application snapshot covers.", float64(m.SnapshotSeq), "edge", id)
	p.GaugeBool("fsr_edge_tail_connected", "Whether the upstream tail has spoken at least once.", m.TailConnected, "edge", id)
	p.Gauge("fsr_edge_tail_lag_seconds", "Seconds since the upstream tail last spoke.", m.TailLag.Seconds(), "edge", id)

	p.Gauge("fsr_edge_serving_clients", "Connected subscriber links.", float64(m.Clients), "edge", id)
	p.Gauge("fsr_edge_subscribers", "Live subscriptions served.", float64(m.Subs), "edge", id)
	p.Gauge("fsr_edge_tail_attached", "Subscriptions fed by the shared encode-once tail.", float64(m.TailAttached), "edge", id)
	p.Counter("fsr_edge_tail_frames_total", "Encode-once fan-out frames published.", m.TailFrames, "edge", id)
	p.Counter("fsr_edge_tail_detaches_total", "Slow subscribers demoted from the shared tail.", m.TailDetaches, "edge", id)
	p.Counter("fsr_edge_not_writable_total", "Publishes bounced to the members with a redirect.", m.NotWritable, "edge", id)

	p.Gauge("fsr_edge_wal_segments", "Durable-store segment files retained.", float64(m.WAL.Segments), "edge", id)
	p.Gauge("fsr_edge_wal_bytes", "Durable-store bytes retained.", float64(m.WAL.Bytes), "edge", id)
	p.Counter("fsr_edge_wal_appends_total", "Entries appended to the durable store.", m.WAL.Appends, "edge", id)
	p.Counter("fsr_edge_wal_fsyncs_total", "Durable-store fsync calls.", m.WAL.Fsyncs, "edge", id)
	p.Counter("fsr_edge_wal_rotations_total", "Durable-store segment rotations.", m.WAL.Rotations, "edge", id)
	p.Counter("fsr_edge_wal_recycled_total", "Durable-store segment files reused from the snapshot-freed pool.", m.WAL.Recycled, "edge", id)
	p.Counter("fsr_edge_wal_snapshots_total", "Replicated snapshots persisted this incarnation.", m.WAL.Snapshots, "edge", id)
	p.Gauge("fsr_edge_wal_snapshot_seq", "Offset the latest persisted snapshot covers.", float64(m.WAL.SnapshotSeq), "edge", id)
	p.Gauge("fsr_edge_wal_snapshot_age_seconds", "Seconds since the latest snapshot was persisted.", m.WAL.SnapshotAge.Seconds(), "edge", id)
	p.Counter("fsr_edge_wal_repairs_total", "Torn tails truncated during recovery.", m.WAL.Repairs, "edge", id)
	p.GaugeBool("fsr_edge_wal_poisoned", "Whether a storage failure froze the durable store.", m.WAL.Poisoned, "edge", id)
	return p.Err()
}
