package main

import (
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"code56/internal/obs"
	"code56/internal/raid6"
)

// online returns a small runOnline config; tests override what they probe.
func online(disks, stripes int, workload string, ops int) onlineConfig {
	return onlineConfig{
		disks:    disks,
		stripes:  stripes,
		block:    512,
		workload: workload,
		ops:      ops,
		seed:     1,
		workers:  1,
	}
}

func TestRunWorkloads(t *testing.T) {
	for _, w := range []string{"random", "sequential", "write-heavy", "zipf", "none"} {
		if err := runOnline(online(4, 4, w, 50)); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
	if err := runOnline(online(4, 4, "nonesuch", 10)); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := runOnline(online(5, 4, "none", 0)); err == nil {
		t.Error("non-prime-plus-one disk count accepted")
	}
}

// TestRunDurableDirectory converts a file-backed array on four workers, then
// comes back to its directory the way a later process would: -resume finds
// the migration committed, reopens the RAID-6 and scrubs it clean.
func TestRunDurableDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "array")
	cfg := online(4, 2, "none", 0)
	cfg.backend = "file:" + dir
	cfg.workers = 4
	if err := runOnline(cfg); err != nil {
		t.Fatal(err)
	}
	if err := runResume(dir, 1, 0, 0, false, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunOnlineWithFaults migrates under an armed injector while the
// application reads and writes: every fault the array's redundancy covers is
// served or healed, and the converted array verifies. At this rate a bad
// sector now and then turns up among the blocks read to reconstruct another
// on a stripe not yet converted (measured: 12 runs in 300, 25 while the
// migrator served every stripe as a RAID-5) — two bad blocks in one RAID-5
// row, which nothing above the watermark survives. That outcome must say what
// it is (raid6.ErrTooManyFailures, which a RAID-5 row's double fault is too);
// the run is then made again on the next seed, and one has to come through
// clean. Any other error fails the test.
func TestRunOnlineWithFaults(t *testing.T) {
	cfg := online(4, 8, "random", 100)
	cfg.faults = faultOpts{latent: 0.01, transient: 0.02, seed: 3, retry: 4}
	for try := 0; try < 5; try++ {
		err := runOnline(cfg)
		if err == nil {
			return
		}
		if !errors.Is(err, raid6.ErrTooManyFailures) {
			t.Fatal(err)
		}
		t.Logf("seed %d ran into a double fault: %v", cfg.faults.seed, err)
		cfg.faults.seed++
	}
	t.Fatal("five runs in a row ended in a RAID-5 double fault")
}

// TestRunOnlineWithPlane runs a migration registered on a live plane and
// scrapes it afterwards: the acceptance-criteria smoke that -http serves
// the migration's own series.
func TestRunOnlineWithPlane(t *testing.T) {
	srv := obs.New(nil)
	handle, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()
	cfg := online(4, 4, "random", 50)
	cfg.plane = srv
	if err := runOnline(cfg); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/healthz", "/progress"} {
		resp, err := http.Get("http://" + handle.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", path, resp.StatusCode, body)
		}
		switch path {
		case "/metrics":
			for _, series := range []string{"migrate_stripes_converted", "vdisk_reads", "migrate_stripe_rate_total"} {
				if !strings.Contains(string(body), series) {
					t.Fatalf("/metrics missing %s", series)
				}
			}
		case "/healthz":
			if !strings.Contains(string(body), `"status": "ok"`) {
				t.Fatalf("/healthz not ok:\n%s", body)
			}
		case "/progress":
			if !strings.Contains(string(body), `"State": "finished"`) {
				t.Fatalf("/progress not finished:\n%s", body)
			}
		}
	}
}

func TestRunOffline(t *testing.T) {
	if err := runOffline(4, 512, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := runOffline(4, 512, 1, 4); err != nil {
		t.Fatal(err)
	}
}
