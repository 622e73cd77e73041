// Ablations for the design choices the paper calls out: segment size
// (§4.1: "uniform message size is necessary in order to avoid that large
// messages stall the smaller messages") and the throughput effect of the
// per-frame overhead amortization that segmentation trades against.

package bench

import (
	"fmt"
	"time"

	"fsr/internal/core"
	"fsr/internal/netsim"
	"fsr/internal/wire"
)

// AblationSegmentSize measures saturated throughput as a function of the
// segment size: small segments waste per-frame fixed costs, large segments
// amortize them — the upward curve that motivates sizable (but uniform)
// segments.
func AblationSegmentSize(sizes []int) (*Series, error) {
	s := &Series{Name: "Ablation: saturated throughput vs segment size (n=5)",
		XLabel: "segment (bytes)", YLabel: "throughput (Mb/s)"}
	for _, size := range sizes {
		c, err := netsim.NewCluster(5, netsim.Config{T: 1, SegmentSize: size})
		if err != nil {
			return nil, err
		}
		const horizon = 3 * time.Second
		warmup := horizon / 4
		var bytes int
		c.OnDeliver = func(pos int, d core.Delivery, now time.Duration) {
			if pos == 4 && now > warmup {
				bytes += len(d.Body)
			}
		}
		SaturateSenders(c, SaturationSenders(5, 5), make([]byte, MessageSize))
		c.Run(horizon)
		if c.Err() != nil {
			return nil, c.Err()
		}
		mbps := float64(bytes) * 8 / (horizon - warmup).Seconds() / 1e6
		s.Add(float64(size), mbps, fmt.Sprintf("seg=%d", size))
	}
	return s, nil
}

// AblationSegmentationStall reproduces the §4.1 rationale directly: one
// process streams 1 MB messages while another sends sporadic 1 KB
// messages. With uniform 8 KiB segments the small messages interleave into
// the ring and keep a low latency; without segmentation (segment size >=
// message size) each giant frame stalls everything behind it.
func AblationSegmentationStall() (*Series, error) {
	s := &Series{Name: "Ablation: small-message latency vs segmentation (n=5)",
		XLabel: "segment (bytes)", YLabel: "small-msg latency (ms)"}
	const big = 1 << 20
	for _, segSize := range []int{core.DefaultSegmentSize, big} {
		lat, err := smallMessageLatencyUnderBulk(segSize, big)
		if err != nil {
			return nil, err
		}
		label := "segmented"
		if segSize >= big {
			label = "unsegmented"
		}
		s.Add(float64(segSize), float64(lat.Microseconds())/1000, label)
	}
	return s, nil
}

// smallMessageLatencyUnderBulk measures the mean completion latency of
// sporadic 1 KB broadcasts from one sender while another floods bulk
// messages of the given size.
func smallMessageLatencyUnderBulk(segSize, bulkSize int) (time.Duration, error) {
	c, err := netsim.NewCluster(5, netsim.Config{T: 1, SegmentSize: segSize})
	if err != nil {
		return 0, err
	}
	const horizon = 4 * time.Second
	bulk := make([]byte, bulkSize)
	small := make([]byte, 1024)

	type msgKey struct{ id wire.MsgID }
	sentAt := map[msgKey]time.Duration{}
	remaining := map[msgKey]int{}
	var latencies []time.Duration
	c.OnDeliver = func(pos int, d core.Delivery, now time.Duration) {
		if d.Part != d.Parts-1 {
			return
		}
		k := msgKey{id: wire.MsgID{Origin: d.ID.Origin, Local: d.ID.Local - uint64(d.Part)}}
		if _, ok := sentAt[k]; !ok {
			return
		}
		remaining[k]--
		if remaining[k] == 0 {
			latencies = append(latencies, now-sentAt[k])
			delete(sentAt, k)
			delete(remaining, k)
		}
	}
	// Bulk stream at position 1, throttled to ~60% of ring capacity so
	// queueing delay does not mask the head-of-line effect under test.
	var flood func()
	flood = func() {
		if c.Loop.Now() >= horizon {
			return
		}
		if _, err := c.Broadcast(1, bulk); err != nil {
			return
		}
		c.Loop.After(170*time.Millisecond, flood)
	}
	flood()
	// Sporadic small sender at position 3.
	var ping func()
	ping = func() {
		if c.Loop.Now() >= horizon-500*time.Millisecond {
			return
		}
		id, err := c.Broadcast(3, small)
		if err != nil {
			return
		}
		k := msgKey{id: id}
		sentAt[k] = c.Loop.Now()
		remaining[k] = 5
		c.Loop.After(100*time.Millisecond, ping)
	}
	c.Loop.At(200*time.Millisecond, ping)
	c.Run(horizon)
	if c.Err() != nil {
		return 0, c.Err()
	}
	if len(latencies) == 0 {
		return 0, fmt.Errorf("bench: no small messages completed (segSize=%d)", segSize)
	}
	return Summarize(latencies).Mean, nil
}
