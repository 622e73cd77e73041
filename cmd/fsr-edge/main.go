// Command fsr-edge runs one read-only edge replica over real TCP: it
// tails the committed order from the group members and re-serves it to
// local subscribers, scaling fan-out without growing the ordering ring.
// Publishes arriving here are redirected to the members.
//
// Example, against a running three-member group:
//
//	fsr-edge -listen 127.0.0.1:7200 \
//	         -members 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102
//
// Clients then subscribe through the edge with the ordinary client
// package, listing the edge's address (alone or mixed with members).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"fsr"
	"fsr/edge"
	"fsr/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7200", "address to serve subscribers on")
	members := flag.String("members", "", "comma-separated member addresses (required)")
	id := flag.Uint64("id", 0, "edge identity in the client ID space (0 = random)")
	durable := flag.String("durable", "", "directory for the durable tail store (empty = in-memory)")
	tailcap := flag.Int("tailcap", 0, "in-memory tail bound in entries (0 = default)")
	obsAddr := flag.String("obs", "", "HTTP address for /metrics, /healthz, /readyz (empty = off)")
	maxlag := flag.Duration("maxlag", 0, "upstream lag bound for /readyz (0 = 5s default)")
	logFmt := flag.String("log", "text", "structured log format to stderr: text, json or off")
	flag.Parse()
	logger, err := obs.NewLogger(*logFmt)
	if err == nil {
		err = run(*listen, *members, fsr.ProcID(*id), *durable, *tailcap, *obsAddr, *maxlag, logger)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsr-edge: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, members string, id fsr.ProcID, durable string, tailcap int, obsAddr string, maxlag time.Duration, logger *slog.Logger) error {
	if members == "" {
		return fmt.Errorf("-members is required")
	}
	var addrs []string
	for _, a := range strings.Split(members, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	e, err := edge.New(edge.Config{
		Listen:     listen,
		Members:    addrs,
		ID:         id,
		DurableDir: durable,
		TailCap:    tailcap,
		Logger:     logger,
	})
	if err != nil {
		return err
	}
	defer e.Stop()
	if obsAddr != "" {
		srv, err := obs.Serve(obs.Config{
			Addr: obsAddr,
			Metrics: func(w io.Writer) error {
				return obs.WriteEdgeMetrics(w, uint32(e.ID()), e.Metrics())
			},
			Ready: func() error { return e.Ready(maxlag) },
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("fsr-edge obs: http://%s/metrics\n", srv.Addr())
	}
	fmt.Printf("fsr-edge up: listen=%s members=%v durable=%q\n", e.Addr(), addrs, durable)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
	return nil
}
