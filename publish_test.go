package fsr_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"sync"
	"testing"
	"time"

	"fsr"
	"fsr/admin"
	"fsr/internal/wal"
	"fsr/internal/wire"
	"fsr/transport/mem"
)

// heldFS is the real filesystem with a valve on segment fsyncs: while held,
// every File.Sync parks (announcing itself on entered) until release.
type heldFS struct {
	wal.FS
	mu      sync.Mutex
	held    chan struct{} // non-nil while fsyncs are held; closed by release
	entered chan struct{} // one token per Sync that found the valve shut
}

func newHeldFS() *heldFS {
	return &heldFS{FS: wal.OS, entered: make(chan struct{}, 16)} // more tokens than the test ever waits for
}

func (h *heldFS) hold() {
	h.mu.Lock()
	h.held = make(chan struct{})
	h.mu.Unlock()
}

// release reopens the valve; releasing an open valve is a no-op.
func (h *heldFS) release() {
	h.mu.Lock()
	if h.held != nil {
		close(h.held)
		h.held = nil
	}
	h.mu.Unlock()
}

func (h *heldFS) OpenFile(path string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := h.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return heldFile{File: f, fs: h}, nil
}

type heldFile struct {
	wal.File
	fs *heldFS
}

func (f heldFile) Sync() error {
	f.fs.mu.Lock()
	held := f.fs.held
	f.fs.mu.Unlock()
	if held != nil {
		select {
		case f.fs.entered <- struct{}{}:
		default:
		}
		<-held
	}
	return f.File.Sync()
}

// heldDiskMember starts three durable members on network (nil: a private
// one), member 1 on a heldFS, and returns that disk and member once a
// warm-up publish has committed through it.
func heldDiskMember(t *testing.T, network *mem.Network) (*heldFS, *fsr.Node) {
	t.Helper()
	disk := newHeldFS()
	c, err := fsr.NewCluster(fsr.ClusterConfig{
		N: 3, T: 1, NodeConfig: fastConfig(), DurableDir: t.TempDir(),
		WALFS: func(id fsr.ProcID) wal.FS {
			if id == 1 {
				return disk
			}
			return nil
		},
	}, fsr.MemTransport(network))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	watchCluster(t, c)
	node := c.Node(1)
	warm, err := node.Session().Publish(context.Background(), []byte("warm-up"))
	if err != nil {
		t.Fatal(err)
	}
	waitReceipt(t, warm, 20*time.Second)
	return disk, node
}

// TestReceiptWaitsForDurability: an in-process publish resolves where a
// remote one is acknowledged — after the batch's fsync, not at local
// delivery. The publishing member's disk holds its fsync; the receipt must
// stay open while it does and resolve, applied, once it lets go.
func TestReceiptWaitsForDurability(t *testing.T) {
	disk, node := heldDiskMember(t, nil)
	ctx := context.Background()

	disk.hold()
	defer disk.release() // on a failure too, or Stop's pump never drains
	r, err := node.Session().Publish(ctx, []byte("not durable yet"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-disk.entered: // the message was delivered, appended, and is at its fsync
	case <-time.After(20 * time.Second):
		t.Fatal("the publish never reached its fsync")
	}
	select {
	case <-r.Delivered():
		t.Fatalf("receipt resolved (seq %d, err %v) while its fsync was still held", r.Seq(), r.Err())
	case <-time.After(200 * time.Millisecond):
	}
	disk.release()
	waitReceipt(t, r, 20*time.Second)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if applied := node.Applied(); applied < r.Seq() {
		t.Fatalf("receipt resolved at seq %d, Applied() is %d", r.Seq(), applied)
	}
}

// TestScrapeDoesNotWaitForFsync: Metrics() and the admin wal and status ops
// are answered on the member's event loop, so they must not take the lock
// the WAL holds across a whole fsync — a scrape would stall the protocol
// for as long as the disk does. The member's disk holds an fsync; all three
// must answer while it is still held.
func TestScrapeDoesNotWaitForFsync(t *testing.T) {
	network := mem.NewNetwork(mem.Options{})
	disk, node := heldDiskMember(t, network)
	ctx := context.Background()
	ep, resp := adminEndpoint(t, network, fsr.ClientIDBase+0x500)

	disk.hold()
	defer disk.release() // on a failure too, or Stop's pump never drains
	r, err := node.Session().Publish(ctx, []byte("stuck in fsync"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-disk.entered: // the pump is inside wal.Sync, holding the WAL's lock
	case <-time.After(20 * time.Second):
		t.Fatal("the publish never reached its fsync")
	}

	scraped := make(chan fsr.Metrics, 1)
	go func() { scraped <- node.Metrics() }()
	select {
	case m := <-scraped:
		if m.WAL.Appends < 2 || m.WAL.Segments < 1 || m.WAL.Poisoned {
			t.Errorf("Metrics().WAL during the fsync = %+v, want both appends counted", m.WAL)
		}
	case <-time.After(time.Second):
		t.Fatal("Metrics() waited for the held fsync")
	}
	var w admin.WALInfo
	if p := adminSend(t, ep, resp, node.Self(), &wire.AdminReq{Op: wire.AdminWAL}, time.Second); p.Err != "" {
		t.Fatalf("admin wal refused: %s", p.Err)
	} else if err := json.Unmarshal(p.Body, &w); err != nil || !w.Durable || w.Appends < 2 {
		t.Errorf("admin wal during the fsync = %+v (%v)", w, err)
	}
	var st admin.Status
	if p := adminSend(t, ep, resp, node.Self(), &wire.AdminReq{Op: wire.AdminStatus}, time.Second); p.Err != "" {
		t.Fatalf("admin status refused: %s", p.Err)
	} else if err := json.Unmarshal(p.Body, &st); err != nil || !st.Ready {
		t.Errorf("admin status during the fsync = %+v (%v)", st, err)
	}
	select {
	case <-r.Delivered():
		t.Fatal("the fsync was not held for the whole scrape: the receipt resolved")
	default:
	}
	disk.release()
	waitReceipt(t, r, 20*time.Second)
}

// TestReceiptReadYourWrites: the moment a receipt resolves, the publishing
// member has applied the message — Applied() >= Seq() — so a caller can
// read its own write back from that member.
func TestReceiptReadYourWrites(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "ephemeral"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()}
			if durable {
				cfg.DurableDir = t.TempDir()
			}
			c, err := fsr.NewCluster(cfg, fsr.MemTransport(nil))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			watchCluster(t, c)
			const total, window = 2000, 32
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			for i, node := range c.Nodes() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A window of receipts in flight, checked oldest first as
					// each resolves.
					var pending []*fsr.Receipt
					check := func(r *fsr.Receipt) bool {
						if err := r.Wait(ctx); err != nil {
							t.Errorf("node %d: %v", node.Self(), err)
							return false
						}
						if applied := node.Applied(); applied < r.Seq() {
							t.Errorf("node %d: receipt resolved at seq %d, Applied() is %d",
								node.Self(), r.Seq(), applied)
							return false
						}
						return true
					}
					for j := i; j < total; j += 3 {
						r, err := node.Session().Publish(ctx, fmt.Appendf(nil, "w%d", j))
						if err != nil {
							t.Errorf("node %d: %v", node.Self(), err)
							return
						}
						if pending = append(pending, r); len(pending) == window {
							if !check(pending[0]) {
								return
							}
							pending = pending[1:]
						}
					}
					for _, r := range pending {
						if !check(r) {
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestReceiptResolvesExactlyOnce: the pump resolves local publishes and the
// event loop fails them, so a halt landing on a full in-flight window is
// where a receipt could be settled twice (a double close panics) or never.
// Every receipt a publisher was handed must resolve, definitively, whether
// the node is stopped or leaves the group under load.
func TestReceiptResolvesExactlyOnce(t *testing.T) {
	halts := map[string]func(n *fsr.Node){
		"stop":  func(n *fsr.Node) { n.Stop() },
		"leave": func(n *fsr.Node) { n.Leave() },
	}
	for name, halt := range halts {
		t.Run(name, func(t *testing.T) {
			for round := range 4 {
				c, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1, NodeConfig: fastConfig()},
					fsr.MemTransport(mem.NewNetwork(mem.Options{})))
				if err != nil {
					t.Fatal(err)
				}
				node := c.Node(1 + round%2)
				// Publishers never wait for a receipt, so the window in flight
				// is as full as the gate allows when the halt lands.
				var mu sync.Mutex
				var receipts []*fsr.Receipt
				progress := make(chan struct{}, 1)
				var wg sync.WaitGroup
				for range 2 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							r, err := node.Session().Publish(context.Background(), []byte("in flight"))
							if err != nil {
								if err != fsr.ErrStopped {
									t.Errorf("publish: %v", err)
								}
								return
							}
							mu.Lock()
							receipts = append(receipts, r)
							enough := len(receipts) == 2000
							mu.Unlock()
							if enough {
								select {
								case progress <- struct{}{}:
								default:
								}
							}
						}
					}()
				}
				select {
				case <-progress:
				case <-time.After(20 * time.Second):
					t.Fatal("publishers made no progress")
				}
				// Halt once the first receipt has committed too: on a
				// loaded CPU the member can accept 2000 publishes before
				// the ring commits any of them.
				mu.Lock()
				first := receipts[0]
				mu.Unlock()
				waitReceipt(t, first, 20*time.Second)
				if err := first.Err(); err != nil {
					t.Fatalf("round %d: the first receipt failed before the halt: %v", round, err)
				}
				halt(node)
				wg.Wait() // publishers see ErrStopped once the node halts
				committed := 0
				for i, r := range receipts {
					waitReceipt(t, r, 20*time.Second)
					switch err := r.Err(); {
					case err == nil && r.Seq() > 0:
						committed++
					case err == fsr.ErrStopped && r.Seq() == 0:
					default:
						t.Fatalf("receipt %d: seq %d, err %v", i, r.Seq(), err)
					}
				}
				if committed == 0 {
					t.Errorf("round %d: none of %d receipts committed before the halt", round, len(receipts))
				}
				c.Stop()
			}
		})
	}
}
