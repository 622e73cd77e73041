// Package fsr implements FSR, the uniform total order broadcast protocol of
// Guerraoui, Levy, Pochon and Quéma, "High Throughput Total Order Broadcast
// for Cluster Environments" (DSN 2006).
//
// FSR combines a fixed sequencer with ring dissemination: every process
// sends protocol traffic only to its ring successor, the ring leader
// assigns sequence numbers, and a small acknowledgment pass establishes
// uniform stability (a message is delivered only once it is stored by the
// leader and t backups, so it survives any t crashes). The protocol is
// throughput-efficient — one completed broadcast per round regardless of
// how many processes send — and fair: concurrent senders get equal shares
// of the ring's capacity.
//
// # Quick start
//
//	cluster, _ := fsr.NewCluster(fsr.ClusterConfig{N: 5, T: 1}, fsr.MemTransport(nil))
//	defer cluster.Stop()
//
//	r, _ := cluster.Node(0).Session().Publish(ctx, []byte("hello"))
//	<-r.Delivered() // committed: survives any T crashes, applied at node 0
//	for off, msg := range cluster.Node(3).Session().Subscribe(ctx, 1) {
//		... // same order at every node
//	}
//
// # Publishing and consuming
//
// There is one way to publish and one way to consume the agreed order, on
// a member or remotely. Session.Publish returns a *Receipt whose Delivered
// channel closes only once the message is committed — uniformly stable,
// and durable and applied at the member that took it — the hook for
// request/reply and synchronous writes. Session.Subscribe is an iterator
// over the committed log from any offset (0 is the live tail). Node.Metrics
// reports protocol counters, queue depths and the publish latency
// histogram.
//
// # Sessions: using the order without joining the ring
//
// The ring stays small — that is where its throughput comes from — and
// everything else connects as a client through the Session interface:
// pipelined exactly-once Publish and offset-resumable, gap-free
// Subscribe, surviving crashes of the serving member by failing over to
// another. Remote clients over TCP use package client (client.Dial);
// Cluster.Dial runs the same client sub-protocol over any cluster
// transport; Node.Session serves the identical interface in process.
//
//	s, _ := client.Dial(client.Config{Addrs: memberAddrs})
//	r, _ := s.Publish(ctx, []byte("order me"))
//	_ = r.Wait(ctx) // committed: durable at the member, uniformly ordered
//	for off, m := range s.Subscribe(ctx, 1) { ... }
//
// # Durable state machine replication
//
// Attach a StateMachine and a durable directory to turn the agreed order
// into replicated application state that survives crashes:
//
//	cfg := fsr.ClusterConfig{N: 5, T: 1}.
//		WithDurableDir(dir).
//		WithStateMachines(func(id fsr.ProcID) fsr.StateMachine { return newStore() })
//
// Every delivery is written to a write-ahead log (internal/wal) before any
// subscriber can see it, snapshots bound replay and truncate the log, and a member
// killed mid-traffic is brought back with Cluster.Restart: it rebuilds
// from snapshot + WAL, fetches the missed suffix of the order from its
// peers, and rejoins the live stream.
//
// # Transports and deployment
//
// The protocol stack runs over the transport.Transport interface; the
// module ships transport/mem (in-process) and transport/tcp (real sockets),
// and applications can bring their own. NewCluster drives any
// ClusterTransport — MemTransport for tests and single-binary deployments,
// TCPTransport for sockets on one host, or a custom implementation for a
// real fleet. Nodes can equally run one per process over TCP (see
// cmd/fsr-node); the stack is identical.
//
// The packages under internal/ hold the substrates: the protocol engine
// (internal/core), ring arithmetic, wire codec, heartbeat failure detector,
// the virtually synchronous membership layer, the discrete-event cluster
// simulator used by the benchmarks, and the round-based analytical model
// with the paper's five baseline protocol classes.
package fsr
