package fsr_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsr"
	"fsr/client"
)

// TestStalledTailSubscriberGapFreeOrBelowHorizon drives the benchmark's
// shape over real sockets: a window-256 closed-loop publisher on member 0
// and a live-tail subscriber on member 1 that stops reading until member 1
// detaches it from the shared tail (or drops its link), and stays stalled
// until the order has moved well past what member 1 retains for it.
// Resumed, the subscription must either continue gap-free — through a snapshot where a durable
// member truncated its log — or end with the horizon reported by Err.
// What it must never do is end, or skip offsets, silently.
func TestStalledTailSubscriberGapFreeOrBelowHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	for _, tc := range []struct {
		name    string
		durable bool
	}{
		{"ephemeral", false}, // a ring tail of memberTailCap (4096) entries
		{"durable", true},    // a WAL that snapshots truncate behind the subscriber
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fsr.ClusterConfig{N: 3, T: 1}
			if tc.durable {
				cfg.NodeConfig.SnapshotEvery = 512
				cfg.NodeConfig.WALSegmentBytes = 256 << 10
				cfg = cfg.WithDurableDir(t.TempDir()).
					WithStateMachines(func(fsr.ProcID) fsr.StateMachine { return new(countSM) })
			}
			ct := fsr.TCPTransport(nil)
			cluster, err := fsr.NewCluster(cfg, ct)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			watchCluster(t, cluster)
			addrs := ct.Addrs()
			pub, err := client.Dial(client.Config{Addrs: addrs[:1], Window: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			sub, err := client.Dial(client.Config{Addrs: addrs[1:2]})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()

			// The subscriber reads one message, stalls until resume closes,
			// then checks every offset against the one before it.
			var (
				first, last atomic.Uint64
				gap         string // the first skip; read once ended is closed
				snaps       int    // snapshots received; read once ended is closed
				ended       = make(chan struct{})
				started     = make(chan struct{})
				resume      = make(chan struct{})
			)
			subCtx, subCancel := context.WithCancel(ctx)
			defer subCancel()
			go func() {
				defer close(ended)
				for off, m := range sub.Subscribe(subCtx, 0) {
					prev := last.Load()
					switch {
					case prev == 0:
						first.Store(uint64(off))
						close(started)
						select {
						case <-resume:
						case <-subCtx.Done():
						}
					case m.Snapshot && uint64(off) > prev:
						// State transfer past a truncated log: it covers
						// every offset up to its own.
						snaps++
					case uint64(off) != prev+1 && gap == "":
						gap = fmt.Sprintf("offset %d after %d", off, prev)
					}
					last.Store(uint64(off))
				}
			}()

			// Traffic starts once the subscription is on member 1's shared
			// tail, so the stall below ends in a detach and not in a pager
			// blocked on a full queue.
			member := cluster.Node(1)
			waitUntil(t, ctx, "the subscriber attaching to member 1's tail", func() bool {
				return member.Metrics().TailAttached >= 1
			})

			// The publisher runs closed-loop until told to stop; on a
			// failed wait below, the deferred stop ends it first.
			var (
				stop    atomic.Bool
				lastPub *fsr.Receipt // read once pubDone is closed
				pubDone = make(chan struct{})
			)
			go func() {
				defer close(pubDone)
				payload := make([]byte, 1<<10)
				for i := uint64(1); !stop.Load(); i++ {
					binary.LittleEndian.PutUint64(payload, i)
					r, err := pub.Publish(ctx, payload)
					if err != nil {
						if ctx.Err() == nil {
							t.Errorf("publish %d: %v", i, err)
						}
						return
					}
					lastPub = r
				}
			}()
			defer func() {
				stop.Store(true)
				cancel()
				<-pubDone
			}()

			waitUntil(t, ctx, "first message at the subscriber", func() bool {
				select {
				case <-started:
					return true
				default:
					return false
				}
			})
			// Member 1 detaches the subscriber once its queue fills. If the
			// session's probe (3 s without a frame) fails the link over
			// first, as it does under -race, member 1 drops it instead.
			waitUntil(t, ctx, "member 1 detaching or dropping the stalled subscriber", func() bool {
				m := member.Metrics()
				return m.TailDetaches >= 1 || m.SessionSubscribers == 0
			})
			// Past what the detached link still holds (256 queued frames of
			// at most a window of entries each, and the socket buffers),
			// then past a full ring tail and many snapshots.
			waitUntil(t, ctx, "the order moving past the stalled cursor", func() bool {
				return uint64(member.Applied()) > first.Load()+100_000
			})
			close(resume)
			stop.Store(true)
			<-pubDone
			if lastPub == nil || lastPub.Wait(ctx) != nil {
				t.Fatalf("last publish did not commit")
			}
			target := uint64(lastPub.Seq())

			waitUntil(t, ctx, "the subscription reaching the last commit or ending", func() bool {
				select {
				case <-ended:
					return true
				default:
					return last.Load() >= target
				}
			})
			subCancel()
			<-ended
			if gap != "" {
				t.Fatalf("subscription skipped offsets: %s", gap)
			}
			detaches := member.Metrics().TailDetaches
			if got := last.Load(); got < target {
				err := sub.Err()
				if err == nil || !strings.Contains(err.Error(), "no member retains that history") {
					t.Fatalf("subscription ended at offset %d of %d without reporting the horizon (Err = %v)", got, target, err)
				}
				t.Logf("stalled from offset %d, %d detaches: ended below the horizon at %d of %d: %v", first.Load(), detaches, got, target, err)
				return
			}
			if tc.durable && snaps == 0 {
				t.Fatalf("continued to %d without a snapshot: the log was never truncated behind the subscriber", target)
			}
			t.Logf("stalled from offset %d, %d detaches: continued gap-free to %d through %d snapshots", first.Load(), detaches, target, snaps)
		})
	}
}

// countSM is the smallest replicated state, so a durable member snapshots.
type countSM struct{ n uint64 }

func (c *countSM) Apply(fsr.Message)         { c.n++ }
func (c *countSM) Snapshot() ([]byte, error) { return binary.LittleEndian.AppendUint64(nil, c.n), nil }
func (c *countSM) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("count snapshot of %d bytes", len(b))
	}
	c.n = binary.LittleEndian.Uint64(b)
	return nil
}

func waitUntil(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
