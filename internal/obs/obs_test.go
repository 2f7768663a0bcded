package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"code56/internal/migrate"
	"code56/internal/raid5"
	"code56/internal/telemetry"
)

// newLoadedRAID5 builds a RAID-5 of m disks with rows rows of random data.
func newLoadedRAID5(t *testing.T, m int, rows int64) *raid5.Array {
	t.Helper()
	a, err := raid5.New(m, 32, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b := make([]byte, 32)
	for L := int64(0); L < rows*int64(m-1); L++ {
		r.Read(b)
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func newTestPlane(t *testing.T, reg *telemetry.Registry) (*Server, *httptest.Server) {
	t.Helper()
	s := New(reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("vdisk.reads").Add(11)
	reg.Histogram("migrate.stripe_us", []float64{100, 1000}).Observe(42)
	reg.Rate("migrate.stripe_rate").Add(5)
	_, ts := newTestPlane(t, reg)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := checkExposition(t, string(body))
	if samples["vdisk_reads"] != 11 {
		t.Fatalf("vdisk_reads = %g, want 11", samples["vdisk_reads"])
	}
	if samples["migrate_stripe_rate_total"] != 5 {
		t.Fatalf("migrate_stripe_rate_total = %g, want 5", samples["migrate_stripe_rate_total"])
	}
	// The plane's self-metrics register into the same registry: this very
	// scrape must appear.
	if samples["obs_scrapes"] < 1 {
		t.Fatalf("obs_scrapes = %g, want >= 1", samples["obs_scrapes"])
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("vdisk.writes").Add(3)
	_, ts := newTestPlane(t, reg)
	code, body := get(t, ts.URL+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Counters["vdisk.writes"] != 3 {
		t.Fatalf("vdisk.writes = %d, want 3", snap.Counters["vdisk.writes"])
	}
}

func TestIndexAndPprof(t *testing.T) {
	_, ts := newTestPlane(t, telemetry.NewRegistry())
	if code, body := get(t, ts.URL+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: status %d body %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
	if code, body := get(t, ts.URL+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof: status %d", code)
	}
}

// TestHealthzFlipsOnDiskFailure is the acceptance-criteria health check:
// ok -> degraded when a disk fails -> ok again after Replace + rebuild.
func TestHealthzFlipsOnDiskFailure(t *testing.T) {
	const rows = 8
	a := newLoadedRAID5(t, 4, rows)
	s, ts := newTestPlane(t, telemetry.NewRegistry())
	s.RegisterHealth("vdisk", ArrayHealth(a.Disks()))

	getHealth := func() (int, healthReport) {
		t.Helper()
		code, body := get(t, ts.URL+"/healthz")
		var rep healthReport
		if err := json.Unmarshal([]byte(body), &rep); err != nil {
			t.Fatalf("healthz body not JSON: %v\n%s", err, body)
		}
		return code, rep
	}

	if code, rep := getHealth(); code != http.StatusOK || rep.Status != StatusOK {
		t.Fatalf("healthy array: status %d health %v", code, rep)
	}

	a.Disks().Disk(2).Fail()
	code, rep := getHealth()
	if code != http.StatusServiceUnavailable || rep.Status != StatusDegraded {
		t.Fatalf("failed disk: status %d health %v", code, rep)
	}
	if !strings.Contains(rep.Checks["vdisk"].Detail, "[2]") {
		t.Fatalf("degraded detail %q does not name slot 2", rep.Checks["vdisk"].Detail)
	}
	// Degraded is not dead: /readyz must still say ready.
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz during degradation: status %d body %q", code, body)
	}

	a.Disks().Disk(2).Replace()
	if err := a.RebuildContext(context.Background(), rows/4, []int{2}); err != nil {
		t.Fatal(err)
	}
	if code, rep := getHealth(); code != http.StatusOK || rep.Status != StatusOK {
		t.Fatalf("after rebuild: status %d health %v", code, rep)
	}
}

func TestReadyzFailsOnFailedStatus(t *testing.T) {
	s, ts := newTestPlane(t, telemetry.NewRegistry())
	s.RegisterHealth("doomed", func() Health {
		return Health{Status: StatusFailed, Detail: "broken"}
	})
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "doomed") {
		t.Fatalf("readyz: status %d body %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz: status %d, want 503", code)
	}
}

func TestMigratorHealthStates(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	mig, err := migrate.NewOnlineMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	check := MigratorHealth(mig)
	if h := check(); h.Status != StatusOK || !strings.Contains(h.Detail, "pending") {
		t.Fatalf("pending: %v", h)
	}
	mig.Pause()
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if h := check(); h.Status != StatusDegraded || !strings.Contains(h.Detail, "paused") {
		t.Fatalf("paused: %v", h)
	}
	mig.Resume()
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if h := check(); h.Status != StatusOK || !strings.Contains(h.Detail, "finished") {
		t.Fatalf("finished: %v", h)
	}
}

func TestProgressSnapshotEndpoint(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	mig, err := migrate.NewOnlineMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestPlane(t, telemetry.NewRegistry())
	s.RegisterProgress("r5tor6", mig)

	code, body := get(t, ts.URL+"/progress")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var m map[string]struct {
		Converted, Total int64
		State            string
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("progress body not JSON: %v\n%s", err, body)
	}
	pr, ok := m["r5tor6"]
	if !ok {
		t.Fatalf("progress missing source: %s", body)
	}
	if pr.State != "pending" || pr.Total != 2 {
		t.Fatalf("pending report = %+v", pr)
	}
}

// TestProgressWatchStreams is the acceptance-criteria watch check: a
// throttled migration's /progress?watch=1 stream must show advancing
// watermarks and terminate with the finished state.
func TestProgressWatchStreams(t *testing.T) {
	const rows = 8 * 4 // 8 stripes at p=5
	a := newLoadedRAID5(t, 4, rows)
	mig, err := migrate.NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(30 * time.Millisecond) // ~8 ticks of stream per run
	s, ts := newTestPlane(t, telemetry.NewRegistry())
	s.RegisterProgress("r5tor6", mig)
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/progress?watch=1&interval_ms=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type entry struct {
		Converted, Total int64
		State            string
	}
	var (
		last      entry
		lines     int
		watermark []int64
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]entry
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("stream line %d not JSON: %v\n%s", lines+1, err, sc.Text())
		}
		e, ok := m["r5tor6"]
		if !ok {
			t.Fatalf("stream line %d missing source: %s", lines+1, sc.Text())
		}
		if e.Converted < last.Converted {
			t.Fatalf("watermark went backwards: %d -> %d", last.Converted, e.Converted)
		}
		watermark = append(watermark, e.Converted)
		last = e
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Fatalf("watch stream emitted %d lines, want >= 2 (watermarks %v)", lines, watermark)
	}
	if last.State != "finished" || last.Converted != last.Total || last.Total != 8 {
		t.Fatalf("final stream entry = %+v, want finished 8/8", last)
	}
	// "Advancing" means at least one strictly increasing step was observed
	// mid-stream, not just the final jump to done.
	advanced := false
	for i := 1; i < len(watermark); i++ {
		if watermark[i] > watermark[i-1] {
			advanced = true
		}
	}
	if !advanced {
		t.Fatalf("watermark never advanced across stream: %v", watermark)
	}
}

// TestProgressWatchClientDisconnect verifies a dropped watcher ends its
// stream goroutine (the watch_clients gauge returns to zero).
func TestProgressWatchClientDisconnect(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	mig, err := migrate.NewOnlineMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the stream would run forever, so only a client
	// disconnect can end it.
	reg := telemetry.NewRegistry()
	s, ts := newTestPlane(t, reg)
	s.RegisterProgress("r5tor6", mig)

	resp, err := http.Get(ts.URL + "/progress?watch=1&interval_ms=20")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	if g := reg.Snapshot().Gauges["obs.watch_clients"]; g != 1 {
		t.Fatalf("obs.watch_clients = %d during stream, want 1", g)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Gauges["obs.watch_clients"] == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("obs.watch_clients did not return to 0 after disconnect")
}

func TestNilServerAndHandleAreInert(t *testing.T) {
	var s *Server
	s.RegisterHealth("x", func() Health { return Health{} })
	s.RegisterProgress("x", nil)
	s.Handle("/v1/", http.NotFoundHandler())
	s.Close()
	var h *Handle
	if h.Addr() != "" {
		t.Fatal("nil handle Addr not empty")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestProgressWatchRejectsMalformedInterval: a non-integer interval_ms is a
// 400 with a JSON error body, not a silent fall-back to the 500 ms default
// (the client asked for a specific cadence and would stream at the wrong
// one without noticing). An absent parameter still selects the default.
func TestProgressWatchRejectsMalformedInterval(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	mig, err := migrate.NewOnlineMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestPlane(t, telemetry.NewRegistry())
	s.RegisterProgress("r5tor6", mig)

	for _, bad := range []string{"abc", "1.5", "20ms", "-"} {
		resp, err := http.Get(ts.URL + "/progress?watch=1&interval_ms=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("interval_ms=%q: status %d, want 400", bad, resp.StatusCode)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Fatalf("interval_ms=%q: body %q is not a JSON error object (%v)", bad, body, err)
		}
	}

	// Absent parameter: the stream starts (default interval) — finish the
	// migration so the request ends on its own.
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/progress?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("absent interval_ms: status %d, want 200", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownEndsWatchStreams: a graceful Shutdown must not wait for
// watching clients to disconnect — active ?watch=1 streams are ended at
// their next tick and Shutdown returns within its deadline.
func TestShutdownEndsWatchStreams(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	mig, err := migrate.NewOnlineMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the watch stream would run forever on its own.
	s := New(telemetry.NewRegistry())
	s.RegisterProgress("r5tor6", mig)
	h, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/progress?watch=1&interval_ms=20", h.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err) // the stream is live
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v; the watch stream held the drain hostage", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v, want prompt watch-stream release", elapsed)
	}
	// The stream the server ended reaches EOF (or a closed-connection
	// error) rather than hanging.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Logf("stream end: %v", err)
	}
}

// TestHandleMountsApplicationHandler: a service handler mounted with
// Handle shares the plane's listener, and its traffic counts in
// obs.http_requests like the plane's own endpoints.
func TestHandleMountsApplicationHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestPlane(t, reg)
	s.Handle("/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "block service")
	}))
	code, body := get(t, ts.URL+"/v1/anything")
	if code != http.StatusOK || !strings.Contains(body, "block service") {
		t.Fatalf("mounted handler: status %d body %q", code, body)
	}
	code, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("plane endpoint after Handle: status %d", code)
	}
	if n := reg.Snapshot().Counters["obs.http_requests"]; n < 2 {
		t.Fatalf("obs.http_requests = %d, want >= 2", n)
	}
}

func TestStartServesAndCloses(t *testing.T) {
	s := New(telemetry.NewRegistry())
	h, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := h.Addr()
	if addr == "" {
		t.Fatal("empty bound address")
	}
	code, _ := get(t, fmt.Sprintf("http://%s/healthz", addr))
	if code != http.StatusOK {
		t.Fatalf("healthz over Start listener: status %d", code)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("listener still serving after Close")
	}
}
