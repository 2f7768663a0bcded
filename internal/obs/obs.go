// Package obs is the live observability plane: a stdlib-only HTTP server
// exposing the telemetry registry and the engines' runtime state while
// they run — the online counterpart of the after-the-fact DumpMetrics
// snapshots and JSONL trace files.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition v0.0.4 of the registry
//	               (histograms as cumulative _bucket/_sum/_count series,
//	               rates as _total + windowed gauges)
//	/metrics.json  the registry snapshot as JSON (DumpMetrics's format)
//	/healthz       aggregated health of the registered checkers
//	               (200 ok / 503 degraded-or-failed, JSON detail)
//	/readyz        readiness: 503 only when a checker reports failed
//	/progress      live ProgressSnapshot of every registered migrator;
//	               ?watch=1 streams one JSON line per interval
//	/debug/pprof/  the runtime profiler (CPU, heap, goroutines, ...)
//
// Every render starts from Registry.Snapshot(), so serialization happens
// with no registry locks held: a stalled scraper can never back-pressure
// the I/O hot paths (see DESIGN.md). The server is what every CLI mounts
// behind its -http flag, and what the future network block service will
// inherit.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"code56/internal/migrate"
	"code56/internal/telemetry"
)

// Server is the observability plane. A nil *Server is inert: every method
// is a no-op, so CLIs can wire registrations unconditionally and only
// construct the server when -http is set.
type Server struct {
	reg *telemetry.Registry
	mux *http.ServeMux

	mu      sync.RWMutex
	checks  []namedCheck  //c56:guardedby mu
	sources []namedSource //c56:guardedby mu

	// quit is closed by Close: active ?watch=1 streams end at their next
	// tick instead of holding a graceful shutdown hostage until every
	// watching client disconnects on its own.
	quit      chan struct{}
	closeOnce sync.Once

	requests *telemetry.Counter // obs.http_requests
	scrapes  *telemetry.Counter // obs.scrapes
	watchers *telemetry.Gauge   // obs.watch_clients
}

type namedCheck struct {
	name string
	fn   CheckFunc
}

type namedSource struct {
	name string
	src  ProgressSource
}

// New returns a server exposing reg (nil selects the process-wide default
// registry). The server's own traffic counters (obs.http_requests,
// obs.scrapes, obs.watch_clients) register into the same registry, so the
// plane observes itself.
func New(reg *telemetry.Registry) *Server {
	s := &Server{
		reg:      reg,
		quit:     make(chan struct{}),
		requests: reg.Counter("obs.http_requests"),
		scrapes:  reg.Counter("obs.scrapes"),
		watchers: reg.Gauge("obs.watch_clients"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/progress", s.handleProgress)
	// net/http/pprof auto-registers on http.DefaultServeMux (which this
	// server never serves); wire its handlers onto our mux explicitly.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// RegisterHealth adds a named health checker consulted by /healthz and
// /readyz, in registration order. No-op on a nil server or checker.
func (s *Server) RegisterHealth(name string, fn CheckFunc) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks = append(s.checks, namedCheck{name: name, fn: fn})
}

// RegisterProgress adds a named migration progress source served by
// /progress. No-op on a nil server or source.
func (s *Server) RegisterProgress(name string, src ProgressSource) {
	if s == nil || src == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, namedSource{name: name, src: src})
}

// Handle mounts an application handler on the plane's mux, so a service
// (the c56-serve block API) shares one listener with its own /metrics,
// /healthz and /progress endpoints. Patterns follow net/http.ServeMux
// rules; the plane's own endpoints keep their paths. No-op on a nil server
// or handler.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s == nil || h == nil {
		return
	}
	s.mux.Handle(pattern, h)
}

// Close ends the plane's long-lived streams: every active ?watch=1 client
// is released at its next tick. It does not stop an HTTP server wrapping
// the plane — Handle.Shutdown composes the two. Safe to call more than
// once; no-op on a nil server.
func (s *Server) Close() {
	if s == nil {
		return
	}
	s.closeOnce.Do(func() { close(s.quit) })
}

// Handler returns the plane's HTTP handler (also usable under a parent
// mux or in httptest servers).
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `code56 observability plane
  /metrics       Prometheus text exposition
  /metrics.json  registry snapshot as JSON
  /healthz       aggregated component health
  /readyz        readiness probe
  /progress      live migration progress (?watch=1 streams)
  /debug/pprof/  runtime profiles
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scrapes.Inc()
	snap := s.reg.Snapshot() // all locks released before the first byte
	w.Header().Set("Content-Type", promContentType)
	_ = writeProm(w, snap)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.reg.WriteJSON(w)
}

// healthReport is the /healthz response body.
type healthReport struct {
	Status Status            `json:"status"`
	Checks map[string]Health `json:"checks,omitempty"`
}

func (s *Server) runChecks() healthReport {
	s.mu.RLock()
	checks := append([]namedCheck(nil), s.checks...)
	s.mu.RUnlock()
	rep := healthReport{Status: StatusOK, Checks: make(map[string]Health, len(checks))}
	for _, c := range checks {
		h := c.fn()
		rep.Checks[c.name] = h
		rep.Status = worse(rep.Status, h.Status)
	}
	return rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rep := s.runChecks()
	w.Header().Set("Content-Type", "application/json")
	if rep.Status != StatusOK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rep := s.runChecks()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rep.Status == StatusFailed {
		// Degraded components still serve I/O (that is what redundancy is
		// for); only outright failure makes the process unready.
		names := make([]string, 0, len(rep.Checks))
		for name, h := range rep.Checks {
			if h.Status == StatusFailed {
				names = append(names, name+": "+h.Detail)
			}
		}
		sort.Strings(names)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %v\n", names)
		return
	}
	fmt.Fprintln(w, "ready")
}

// progressEntry wraps a ProgressReport with its derived state name for the
// wire.
type progressEntry struct {
	migrate.ProgressReport
	State string
}

func (s *Server) progressMap() (map[string]progressEntry, bool) {
	s.mu.RLock()
	sources := append([]namedSource(nil), s.sources...)
	s.mu.RUnlock()
	out := make(map[string]progressEntry, len(sources))
	allDone := len(sources) > 0
	for _, src := range sources {
		pr := src.src.ProgressSnapshot()
		out[src.name] = progressEntry{ProgressReport: pr, State: pr.State()}
		if !pr.Finished {
			allDone = false
		}
	}
	return out, allDone
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("watch") == "" {
		m, _ := s.progressMap()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m)
		return
	}

	// Watch mode: one JSON object per line, flushed every interval, until
	// the client goes away, the plane shuts down, or every registered
	// migration has finished (the final state is always emitted).
	interval := 500 * time.Millisecond
	if raw := r.URL.Query().Get("interval_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil {
			// A malformed interval must not silently become the default:
			// the client asked for a specific cadence and would watch at
			// the wrong one without noticing.
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": fmt.Sprintf("interval_ms: %q is not an integer", raw),
			})
			return
		}
		if ms < 20 {
			ms = 20
		}
		if ms > 10000 {
			ms = 10000
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	s.watchers.Add(1)
	defer s.watchers.Add(-1)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		m, done := s.progressMap()
		if err := enc.Encode(m); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.quit:
			return
		case <-tick.C:
		}
	}
}

// Handle is a started plane: the bound listener plus its shutdown. A nil
// *Handle is inert, so callers can defer Close/Drain unconditionally.
type Handle struct {
	srv *Server
	ln  net.Listener
	hs  *http.Server
}

// Addr returns the bound address ("" for a nil handle) — useful with
// ":0" listeners.
func (h *Handle) Addr() string {
	if h == nil {
		return ""
	}
	return h.ln.Addr().String()
}

// Close stops the plane immediately: watch streams are released, the
// listener stops, and active connections are closed without waiting for
// in-flight requests. Use Shutdown or Drain for a graceful exit.
func (h *Handle) Close() error {
	if h == nil {
		return nil
	}
	h.srv.Close()
	return h.hs.Close()
}

// Shutdown stops the plane gracefully: the listener stops accepting,
// active ?watch=1 streams end at their next tick (they would otherwise
// count as in-flight requests forever), and remaining requests — a scrape
// mid-render, a pprof profile mid-capture — get until ctx's deadline to
// finish. When ctx expires first the stragglers are closed hard; the
// context error is returned so callers can tell a drained exit from a
// forced one.
func (h *Handle) Shutdown(ctx context.Context) error {
	if h == nil {
		return nil
	}
	h.srv.Close()
	if err := h.hs.Shutdown(ctx); err != nil {
		_ = h.hs.Close()
		return err
	}
	return nil
}

// drainTimeout bounds how long Drain waits for in-flight requests; long
// enough for any scrape, short enough that a CLI exit never feels hung.
const drainTimeout = 2 * time.Second

// Drain is the CLIs' exit path: Shutdown with a short built-in deadline,
// so `defer handle.Drain()` gives every -http CLI (and c56-serve's signal
// handler) a clean stop without plumbing a context through main.
func (h *Handle) Drain() error {
	if h == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return h.Shutdown(ctx)
}

// Start binds addr and serves the plane in a background goroutine until
// the returned handle is closed.
func (s *Server) Start(addr string) (*Handle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return s.StartListener(ln), nil
}

// StartListener serves the plane on an already-bound listener — the seam
// for wrapping the listener first (c56-serve caps concurrent connections
// with serve.LimitListener before handing it here).
func (s *Server) StartListener(ln net.Listener) *Handle {
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return &Handle{srv: s, ln: ln, hs: hs}
}
