// Command fsr-node runs one FSR group member over real TCP — the
// multi-process deployment of the library. Start one process per member
// with the same -peers map; each delivers the same message stream in the
// same order.
//
// Example (three shells):
//
//	fsr-node -id 0 -peers '0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102' -send 1s
//	fsr-node -id 1 -peers '0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102'
//	fsr-node -id 2 -peers '0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102' -send 2s
//
// Each node prints its deliveries: `[seq] origin=N payload`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"fsr"
	"fsr/internal/obs"
	"fsr/transport/tcp"
)

func main() {
	id := flag.Uint("id", 0, "this process's ID (must appear in -peers)")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port map for every member")
	tol := flag.Int("t", 1, "number of tolerated failures")
	send := flag.Duration("send", 0, "emit a demo broadcast this often (0 = silent)")
	durable := flag.String("durable", "", "directory for the durable log (empty = in-memory)")
	obsAddr := flag.String("obs", "", "HTTP address for /metrics, /healthz, /readyz (empty = off)")
	join := flag.Bool("join", false, "start outside the group and join through the peers (use when restarting a member the group may have evicted)")
	logFmt := flag.String("log", "text", "structured log format to stderr: text, json or off")
	flag.Parse()
	logger, err := obs.NewLogger(*logFmt)
	if err == nil {
		err = run(fsr.ProcID(*id), *peersFlag, *tol, *send, *durable, *obsAddr, *join, logger)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsr-node: %v\n", err)
		os.Exit(1)
	}
}

func parsePeers(spec string) (map[fsr.ProcID]string, []fsr.ProcID, error) {
	addrs := make(map[fsr.ProcID]string)
	var members []fsr.ProcID
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", id, err)
		}
		addrs[fsr.ProcID(n)] = addr
		members = append(members, fsr.ProcID(n))
	}
	slices.Sort(members)
	return addrs, members, nil
}

func run(self fsr.ProcID, peersFlag string, tol int, send time.Duration, durable, obsAddr string, join bool, logger *slog.Logger) error {
	if peersFlag == "" {
		return fmt.Errorf("-peers is required")
	}
	addrs, members, err := parsePeers(peersFlag)
	if err != nil {
		return err
	}
	listen, ok := addrs[self]
	if !ok {
		return fmt.Errorf("id %d not present in -peers", self)
	}
	delete(addrs, self)
	tr, err := tcp.New(tcp.Config{Self: self, ListenAddr: listen, Peers: addrs})
	if err != nil {
		return err
	}
	node, err := fsr.NewNode(fsr.Config{
		Self:       self,
		Members:    members,
		T:          tol,
		DurableDir: durable,
		Joiner:     join,
		Logger:     logger,
	}, tr)
	if err != nil {
		_ = tr.Close()
		return err
	}
	defer node.Stop()
	if join {
		contacts := slices.DeleteFunc(slices.Clone(members), func(p fsr.ProcID) bool { return p == self })
		node.Join(contacts)
	}
	if obsAddr != "" {
		srv, err := obs.Serve(obs.Config{
			Addr: obsAddr,
			Metrics: func(w io.Writer) error {
				return obs.WriteNodeMetrics(w, uint32(self), node.Metrics())
			},
			Ready:  node.Ready,
			Health: node.Err,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("fsr-node %d obs: http://%s/metrics\n", self, srv.Addr())
	}
	fmt.Printf("fsr-node %d up: members=%v leader=%d listen=%s\n", self, members, members[0], listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if send > 0 {
		go func() {
			ticker := time.NewTicker(send)
			defer ticker.Stop()
			for i := 0; ; i++ {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					payload := fmt.Sprintf("hello %d from node %d", i, self)
					r, err := node.Session().Publish(ctx, []byte(payload))
					if err != nil {
						return
					}
					go func() {
						if err := r.Wait(ctx); err == nil {
							fmt.Printf("publish committed at seq %d\n", r.Seq())
						}
					}()
				}
			}
		}()
	}
	// Print the order from the tail on. An ephemeral member retains a
	// bounded tail, so a reader that stalls long enough (or a joiner whose
	// admission moves its horizon) falls below it and the stream ends; say
	// so and pick up at the tail again.
	sess := node.Session()
	for {
		for _, m := range sess.Subscribe(ctx, 0) {
			fmt.Printf("[%d] origin=%d %s\n", m.Seq, m.Origin, m.Payload)
		}
		if ctx.Err() != nil {
			fmt.Println("shutting down")
			return nil
		}
		if err := node.Err(); err != nil {
			return err
		}
		if errors.Is(node.Ready(), fsr.ErrStopped) {
			return nil // evicted, or left gracefully
		}
		fmt.Println("delivery log fell below this member's horizon; resuming at the tail")
	}
}
