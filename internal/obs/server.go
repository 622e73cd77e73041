package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"
)

// Config parameterizes Serve.
type Config struct {
	// Addr is the HTTP listen address (":9100", "127.0.0.1:0", ...).
	// Required.
	Addr string
	// Metrics renders the process's metric families to w. Required.
	Metrics func(w io.Writer) error
	// Ready reports nil when the process can serve (see Node.Ready /
	// Edge.Ready); /readyz answers 503 with the error text otherwise.
	// Nil means always ready.
	Ready func() error
	// Health reports nil when the process is alive at all; /healthz
	// answers 503 otherwise. Nil means alive — the default, since a
	// process that answers HTTP is alive by definition; supply it only
	// to surface a fatal background error (e.g. Node.Err).
	Health func() error
}

// Server is one running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability HTTP endpoint: GET /metrics (Prometheus
// text), GET /healthz (liveness), GET /readyz (readiness). It serves until
// Close.
func Serve(cfg Config) (*Server, error) {
	if cfg.Addr == "" || cfg.Metrics == nil {
		return nil, fmt.Errorf("obs: Addr and Metrics are required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = cfg.Metrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		probe(w, cfg.Health)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		probe(w, cfg.Ready)
	})
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func probe(w http.ResponseWriter, check func() error) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if check != nil {
		if err := check(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// Addr returns the bound listen address (resolving an ephemeral port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint immediately.
func (s *Server) Close() error { return s.srv.Close() }

// NewLogger builds the stderr logger behind the binaries' -log flag: text,
// json or off.
func NewLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return slog.New(slog.DiscardHandler), nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text, json or off)", format)
	}
}
