package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fsr"
	"fsr/edge"
)

// sampleNodeMetrics is a fully-populated snapshot, so the lint below sees
// every family the exporter can emit.
func sampleNodeMetrics() fsr.Metrics {
	m := fsr.Metrics{
		View:     fsr.ViewInfo{ID: 4, Members: []fsr.ProcID{2, 0, 1}, T: 1},
		IsLeader: true,
		FramesIn: 10, FramesOut: 11, DataIn: 12, AcksIn: 13,
		Sequenced: 14, Delivered: 15, StaleFrames: 1,
		RelayedData: 16, OwnSent: 17, FairnessSkips: 2, StandaloneAcks: 3,
		MultiSegFrames: 4, RelayQueue: 1, OwnQueue: 2, AckQueue: 3,
		PendingReceipts: 1, Applied: 15, CatchingUp: true,
		SessionPublishes: 5, SessionDuplicates: 1, SessionSubscribers: 2,
		TailAttached: 2, TailFrames: 6, TailDetaches: 1, EdgeClients: 1,
		SessionBounded: 1,
		WAL: fsr.WALMetrics{
			Segments: 2, Bytes: 4096, Appends: 15, Fsyncs: 15, Rotations: 1,
			Snapshots: 1, SnapshotSeq: 10, SnapshotAge: 3 * time.Second, Repairs: 1,
		},
	}
	m.PublishLatency.Observe(200 * time.Microsecond)
	m.PublishLatency.Observe(3 * time.Millisecond)
	m.PublishLatency.Observe(10 * time.Second) // lands only in +Inf
	return m
}

func sampleEdgeMetrics() edge.Metrics {
	return edge.Metrics{
		Applied: 20, StoreBase: 5, StoreEntries: 15, SnapshotSeq: 5,
		TailConnected: true, TailLag: 120 * time.Millisecond,
		Clients: 3, Subs: 3, TailAttached: 2, TailFrames: 9, TailDetaches: 1,
		NotWritable: 2,
		WAL: fsr.WALMetrics{
			Segments: 1, Bytes: 512, Appends: 20, Fsyncs: 20,
			Snapshots: 1, SnapshotSeq: 5, SnapshotAge: time.Second,
		},
	}
}

var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// sampleRE splits a sample line into name, optional label block, value.
	sampleRE = regexp.MustCompile(`^([a-zA-Z0-9_:]+)(\{[^}]*\})? (\S+)$`)
	lblPair  = regexp.MustCompile(`([a-zA-Z0-9_]+)="((?:[^"\\]|\\.)*)"`)
)

// lintExposition runs promlint-style checks over one exposition document:
// name and label hygiene, HELP/TYPE presence and order, counter/_total
// suffix agreement, histogram series completeness, no duplicate families,
// and a mandatory identity label on every sample.
func lintExposition(t *testing.T, doc, identityLabel string) {
	t.Helper()
	types := map[string]string{} // family -> declared type
	helped := map[string]bool{}
	samples := map[string]int{} // family -> sample count
	for _, line := range strings.Split(strings.TrimRight(doc, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("HELP without text: %q", line)
			}
			if helped[parts[0]] {
				t.Errorf("duplicate HELP for %s", parts[0])
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := parts[0], parts[1]
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q violates naming convention", name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("duplicate family %s", name)
			}
			if !helped[name] {
				t.Errorf("family %s has TYPE before/without HELP", name)
			}
			switch typ {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					t.Errorf("counter %s must end in _total", name)
				}
			case "gauge":
				if strings.HasSuffix(name, "_total") {
					t.Errorf("gauge %s must not end in _total", name)
				}
			case "histogram":
				if !strings.Contains(name, "_seconds") {
					t.Errorf("histogram %s should carry a base unit suffix", name)
				}
			default:
				t.Errorf("family %s has unexpected type %q", name, typ)
			}
			types[name] = typ
		case line == "":
			t.Error("blank line in exposition output")
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			name, lbl := m[1], m[2]
			family := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if typ, ok := types[strings.TrimSuffix(name, suf)]; ok && typ == "histogram" {
					family = strings.TrimSuffix(name, suf)
				}
			}
			typ, ok := types[family]
			if !ok {
				t.Errorf("sample %s has no TYPE declaration", name)
				continue
			}
			if typ == "histogram" && family == name {
				t.Errorf("histogram %s emitted a bare sample", name)
			}
			samples[family]++
			hasIdentity := false
			for _, kv := range lblPair.FindAllStringSubmatch(lbl, -1) {
				if !labelRE.MatchString(kv[1]) && kv[1] != "le" {
					t.Errorf("label name %q on %s violates naming convention", kv[1], name)
				}
				if kv[1] == identityLabel {
					hasIdentity = true
				}
			}
			if !hasIdentity {
				t.Errorf("sample %s missing identity label %q: %q", name, identityLabel, line)
			}
		}
	}
	for name := range types {
		if samples[name] == 0 {
			t.Errorf("family %s declared but emitted no samples", name)
		}
	}
}

func TestNodeExpositionLint(t *testing.T) {
	var b bytes.Buffer
	if err := WriteNodeMetrics(&b, 3, sampleNodeMetrics()); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	lintExposition(t, doc, "node")
	// The histogram must be internally consistent: +Inf bucket == count,
	// and the sample above the largest bound appears only there.
	for _, want := range []string{
		`fsr_publish_latency_seconds_bucket{node="3",le="+Inf"} 3`,
		`fsr_publish_latency_seconds_count{node="3"} 3`,
		`fsr_view_info{node="3",epoch="4",leader="2"} 1`,
		`fsr_wal_snapshot_age_seconds{node="3"} 3`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("node exposition missing %q\n%s", want, doc)
		}
	}
}

func TestEdgeExpositionLint(t *testing.T) {
	var b bytes.Buffer
	if err := WriteEdgeMetrics(&b, 9, sampleEdgeMetrics()); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	lintExposition(t, doc, "edge")
	for _, want := range []string{
		`fsr_edge_tail_connected{edge="9"} 1`,
		`fsr_edge_tail_lag_seconds{edge="9"} 0.12`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("edge exposition missing %q\n%s", want, doc)
		}
	}
}

// TestServeEndpoints exercises the HTTP surface: content type, probe
// semantics, and the 200→503→200 readiness transition an orchestrator
// keys off.
func TestServeEndpoints(t *testing.T) {
	var mu sync.Mutex
	var readyErr, healthErr error
	srv, err := Serve(Config{
		Addr:    "127.0.0.1:0",
		Metrics: func(w io.Writer) error { return WriteNodeMetrics(w, 0, sampleNodeMetrics()) },
		Ready:   func() error { mu.Lock(); defer mu.Unlock(); return readyErr },
		Health:  func() error { mu.Lock(); defer mu.Unlock(); return healthErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
	}

	code, body, ct := get("/metrics")
	if code != http.StatusOK || ct != ContentType {
		t.Fatalf("/metrics = %d %q", code, ct)
	}
	if !strings.Contains(body, "fsr_view_epoch") {
		t.Fatalf("/metrics body missing families:\n%s", body)
	}
	if code, body, _ := get("/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/readyz = %d %q, want 200 ok", code, body)
	}
	if code, _, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}

	mu.Lock()
	readyErr = fmt.Errorf("fsr: catching up on missed history")
	mu.Unlock()
	if code, body, _ := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "catching up") {
		t.Fatalf("/readyz while not ready = %d %q, want 503 with reason", code, body)
	}
	if code, _, _ := get("/healthz"); code != http.StatusOK {
		t.Fatal("liveness must not follow readiness down")
	}
	mu.Lock()
	readyErr = nil
	mu.Unlock()
	if code, _, _ := get("/readyz"); code != http.StatusOK {
		t.Fatal("/readyz did not recover")
	}

	// The profiling endpoints share the listener: a member is profiled
	// live, with no special build.
	if code, body, _ := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine profile:") {
		t.Fatalf("/debug/pprof/goroutine?debug=1 = %d %.80q, want 200 and a goroutine profile", code, body)
	}
	if code, _, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}
	resp, err := http.Post("http://"+srv.Addr()+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}

// TestScrapeUnderLoad runs a live cluster under figure-7-style sustained
// broadcast load while several goroutines scrape every member's /metrics
// over HTTP — the exporter must race cleanly with the event loop (the
// snapshot channel) and never emit a malformed document.
func TestScrapeUnderLoad(t *testing.T) {
	cluster, err := fsr.NewCluster(fsr.ClusterConfig{N: 3, T: 1}, fsr.MemTransport(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	servers := make([]*Server, 3)
	for i := range servers {
		node := cluster.Node(i)
		srv, err := Serve(Config{
			Addr: "127.0.0.1:0",
			Metrics: func(w io.Writer) error {
				return WriteNodeMetrics(w, uint32(node.Self()), node.Metrics())
			},
			Ready:  node.Ready,
			Health: node.Err,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// Load: every member broadcasts as fast as the ring admits.
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := cluster.Node(i)
			for j := 0; ctx.Err() == nil; j++ {
				if _, err := node.Session().Publish(ctx, fmt.Appendf(nil, "n%d-m%d", i, j)); err != nil {
					return
				}
			}
		}()
	}
	// Consume deliveries alongside the load, as an application would.
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range cluster.Node(i).Session().Subscribe(ctx, 0) {
			}
		}()
	}

	// Scrape: two workers per member, hammering /metrics and /readyz.
	var scrapes int
	var smu sync.Mutex
	for _, srv := range servers {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					resp, err := http.Get("http://" + srv.Addr() + "/metrics")
					if err != nil {
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("scrape = %d", resp.StatusCode)
						return
					}
					if !bytes.Contains(body, []byte("fsr_delivered_total")) {
						t.Errorf("malformed scrape:\n%s", body)
						return
					}
					smu.Lock()
					scrapes++
					smu.Unlock()
				}
			}()
		}
	}

	time.Sleep(2 * time.Second)
	cancel()
	wg.Wait()
	smu.Lock()
	defer smu.Unlock()
	if scrapes == 0 {
		t.Fatal("no successful scrapes under load")
	}
	t.Logf("%d scrapes completed under load", scrapes)
}
