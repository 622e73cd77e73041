package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fsr"
	"fsr/client"
	"fsr/internal/metrics"
)

// Figure7TCP is the hardware counterpart of the simulated Figure 7x sweep:
// saturated end-to-end throughput over real loopback TCP sockets. An
// n-member cluster runs in one process, each member on its own TCP
// endpoint (identical wire traffic to n separate processes); k members
// flood pipelined 8 KiB broadcasts and the series reports the payload rate
// TO-delivered at the last follower. A final point measures the same flood
// issued by a remote client.Dial session (PUBLISH/PUBACK over the wire,
// window-pipelined) — the non-member path this repository's Session API
// adds.
func Figure7TCP(ks []int) (*metrics.Series, error) {
	s := &metrics.Series{
		Name:   fmt.Sprintf("Figure 7tcp: saturated throughput over loopback TCP (n=%d, %d B payloads)", tcpBenchN, tcpBenchPayload),
		XLabel: "concurrent senders",
		YLabel: "delivered (Mb/s)",
	}
	for _, k := range ks {
		mbps, err := tcpSaturatedThroughput(k, tcpBenchHorizon)
		if err != nil {
			return nil, err
		}
		s.Add(float64(k), mbps, fmt.Sprintf("k=%d members", k))
	}
	mbps, err := tcpClientThroughput(tcpBenchHorizon)
	if err != nil {
		return nil, err
	}
	s.Add(1, mbps, "k=1 remote client session")
	return s, nil
}

const (
	tcpBenchN       = 5
	tcpBenchHorizon = 3 * time.Second
	// tcpBenchPayload matches the modern (figure7x) regime: one 8 KiB
	// segment per message, the shape the batched hot path is built for.
	tcpBenchPayload = 8 << 10
	// tcpBenchWindow bounds each sender's in-flight broadcasts, mirroring
	// a pipelined producer.
	tcpBenchWindow = 256
)

// tcpBenchCluster builds the n-member loopback cluster every TCP
// measurement runs on. The failure timeout is raised well above the
// default: a fully saturated event loop delays heartbeats by tens of
// milliseconds, and this experiment measures steady-state throughput, not
// recovery churn (the chaos harness owns that).
func tcpBenchCluster(n int) (*fsr.Cluster, *fsr.TCPClusterTransport, error) {
	ct := fsr.TCPTransport(nil)
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{
		N: n, T: 1,
		NodeConfig: fsr.Config{
			HeartbeatInterval: 50 * time.Millisecond,
			FailureTimeout:    3 * time.Second,
			ChangeTimeout:     3 * time.Second,
		},
	}, ct)
	if err != nil {
		return nil, nil, err
	}
	return cluster, ct, nil
}

// tcpSaturatedThroughput floods from k non-leader members and counts
// payload bytes delivered at the last member. Warmup is a quarter of the
// horizon.
func tcpSaturatedThroughput(k int, horizon time.Duration) (float64, error) {
	cluster, _, err := tcpBenchCluster(tcpBenchN)
	if err != nil {
		return 0, err
	}
	defer cluster.Stop()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var bytes atomic.Int64
	var counting atomic.Bool
	var wg sync.WaitGroup
	tail := cluster.Node(tcpBenchN-1).Session().Subscribe(ctx, 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, m := range tail {
			if counting.Load() {
				bytes.Add(int64(len(m.Payload)))
			}
		}
	}()
	payload := make([]byte, tcpBenchPayload)
	for i := range k {
		// Skip the leader, as in the simulated saturation runs: its sends
		// skip pass A and can overdrive the ring (§4.3.1).
		node := cluster.Node(1 + i%(tcpBenchN-1))
		wg.Add(1)
		go func(nd *fsr.Node) {
			defer wg.Done()
			inflight := make(chan *fsr.Receipt, tcpBenchWindow)
			var drain sync.WaitGroup
			drain.Add(1)
			go func() {
				defer drain.Done()
				for r := range inflight {
					<-r.Delivered()
				}
			}()
			for ctx.Err() == nil {
				r, err := nd.Broadcast(ctx, payload)
				if err != nil {
					break
				}
				inflight <- r
			}
			close(inflight)
			drain.Wait()
		}(node)
	}
	warmup := horizon / 4
	time.Sleep(warmup)
	counting.Store(true)
	start := time.Now()
	time.Sleep(horizon - warmup)
	counting.Store(false)
	elapsed := time.Since(start)
	stop()
	wg.Wait()
	return float64(bytes.Load()) * 8 / elapsed.Seconds() / 1e6, nil
}

// tcpClientThroughput floods from one remote client session (client.Dial
// over loopback TCP) and counts committed (acked) payload bytes.
func tcpClientThroughput(horizon time.Duration) (float64, error) {
	cluster, ct, err := tcpBenchCluster(tcpBenchN)
	if err != nil {
		return 0, err
	}
	defer cluster.Stop()
	sess, err := client.Dial(client.Config{Addrs: ct.Addrs(), Window: tcpBenchWindow})
	if err != nil {
		return 0, err
	}
	defer sess.Close()

	var bytes atomic.Int64
	var counting atomic.Bool
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	payload := make([]byte, tcpBenchPayload)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inflight := make(chan *fsr.Receipt, tcpBenchWindow)
		var drain sync.WaitGroup
		drain.Add(1)
		go func() {
			defer drain.Done()
			for r := range inflight {
				<-r.Delivered()
				if counting.Load() {
					bytes.Add(int64(len(payload)))
				}
			}
		}()
		for ctx.Err() == nil {
			r, err := sess.Publish(ctx, payload)
			if err != nil {
				break
			}
			inflight <- r
		}
		close(inflight)
		drain.Wait()
	}()
	warmup := horizon / 4
	time.Sleep(warmup)
	counting.Store(true)
	start := time.Now()
	time.Sleep(horizon - warmup)
	counting.Store(false)
	elapsed := time.Since(start)
	stop()
	wg.Wait()
	return float64(bytes.Load()) * 8 / elapsed.Seconds() / 1e6, nil
}
