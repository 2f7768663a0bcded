package migrate

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"code56/internal/telemetry"
)

// perStripeXORs is the conversion XOR cost of one stripe: folding each
// diagonal chain costs one XOR per cover beyond the first (the same n-1
// accounting the offline planner uses).
func perStripeXORs(m *OnlineMigrator) int64 {
	p := m.code.P()
	var n int64
	for _, ch := range m.code.Chains()[p-1 : 2*(p-1)] {
		n += int64(len(ch.Covers) - 1)
	}
	return n
}

// TestConcurrentMigrationTelemetry runs an online migration with concurrent
// application readers and writers against a private registry and checks the
// counters stay coherent under the race detector: snapshots taken while the
// migration runs never regress and never show a torn histogram, and the
// final counters equal both the migrator's own stats and the number of
// operations the application actually issued.
func TestConcurrentMigrationTelemetry(t *testing.T) {
	const m, stripes = 4, 64
	p := m + 1
	rows := int64(stripes * (p - 1))
	blocks := rows * int64(m-1)
	a, want := newLoadedRAID5(t, m, rows, 7)

	reg := telemetry.NewRegistry()
	ring := telemetry.NewRingSink(4096)
	tr := telemetry.NewTracer(ring)
	a.SetTelemetry(reg, tr)

	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetTelemetry(reg, tr)
	mig.SetThrottle(50 * time.Microsecond) // keep conversion in flight while app I/O flows
	if err := mig.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}

	// Snapshot poller: counters are monotonic, so no snapshot may show a
	// value below an earlier one, and a histogram's Count must always
	// equal the sum of its buckets.
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		prev := make(map[string]int64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			for name, v := range snap.Counters {
				if v < prev[name] {
					t.Errorf("counter %s regressed: %d then %d", name, prev[name], v)
					return
				}
				prev[name] = v
			}
			for name, h := range snap.Histograms {
				var sum int64
				for _, c := range h.Counts {
					sum += c
				}
				if sum != h.Count {
					t.Errorf("torn histogram snapshot %s: count %d, bucket sum %d", name, h.Count, sum)
					return
				}
			}
		}
	}()

	var reads, writes int64
	var mu sync.Mutex // orders mig.Write against the `want` bookkeeping
	var appWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		appWG.Add(1)
		go func(g int) {
			defer appWG.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			buf := make([]byte, 32)
			for i := 0; i < 200; i++ {
				L := r.Int63n(blocks)
				if r.Intn(2) == 0 {
					b := make([]byte, 32)
					r.Read(b)
					mu.Lock()
					err := mig.Write(L, b)
					if err == nil {
						want[L] = b
					}
					mu.Unlock()
					if err != nil {
						t.Errorf("app write %d: %v", L, err)
						return
					}
					atomic.AddInt64(&writes, 1)
				} else {
					if err := mig.Read(L, buf); err != nil {
						t.Errorf("app read %d: %v", L, err)
						return
					}
					atomic.AddInt64(&reads, 1)
				}
			}
		}(g)
	}
	appWG.Wait()
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	pollWG.Wait()

	snap := reg.Snapshot()
	c := snap.Counters
	st := mig.Stats()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"migrate.stripes_converted", c["migrate.stripes_converted"], st.StripesConverted},
		{"StripesRedone", st.StripesRedone, 0},
		{"migrate.write_interrupts", c["migrate.write_interrupts"], st.WriteInterrupts},
		{"migrate.diagonal_updates", c["migrate.diagonal_updates"], st.DiagonalUpdates},
		{"migrate.app_reads", c["migrate.app_reads"], reads},
		{"migrate.app_writes", c["migrate.app_writes"], writes},
		{"migrate.conversion_xors", c["migrate.conversion_xors"], st.StripesConverted * perStripeXORs(mig)},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if got := snap.Gauges["migrate.progress_stripes"]; got != int64(stripes) {
		t.Errorf("progress watermark gauge = %d, want %d", got, stripes)
	}

	// The span trace must bracket the migration: one begin and one end of
	// migrate.online, in that order.
	var begin, end int
	for _, ev := range ring.Events() {
		if ev.Name != "migrate.online" {
			continue
		}
		switch ev.Phase {
		case "begin":
			begin++
			if end > 0 {
				t.Error("migrate.online ended before it began")
			}
		case "end":
			end++
		}
	}
	if begin != 1 || end != 1 {
		t.Errorf("migrate.online span: %d begins, %d ends, want 1 each", begin, end)
	}

	verifyConverted(t, mig, want, stripes, "telemetry")
}
