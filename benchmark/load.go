package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"

	"code56/internal/serve"
)

// clients is the load the benchmark offers: never more than nproc on the
// 2-vCPU host the sizes were chosen on. Client k writes only blocks
// ≡ k (mod clients), so every block has one writer (see shadow).
const clients = 2

// saturating is how many of them the closed-loop phase uses; the open-loop
// phase, whose clients mostly wait for their next due time, uses all. In
// process it is one (phases.go, oneWorker, says why). Over the wire a request
// is two threads already, client and server, each waiting while the other
// works: one connection leaves both vCPUs half idle and measures how fast a
// halted one wakes (12-23 kops/s from one cycle of a run to the next); two
// keep them busy (24-32).
func (w workload) saturating() int {
	if w.wire {
		return clients
	}
	return 1
}

// readShare is the foreground mix: 70 % reads, 30 % writes, uniform over the
// volume.
const readShare = 0.7

// target is how a client reaches the volume: in process or over the wire.
type target interface {
	read(block int64, buf []byte) error
	write(block int64, data []byte) error
}

// directTarget calls the volume's current BlockIO in process, the same
// object the HTTP handlers call.
type directTarget struct{ vol *serve.Volume }

func (d directTarget) read(b int64, buf []byte) error   { return d.vol.IO().ReadBlock(b, buf) }
func (d directTarget) write(b int64, data []byte) error { return d.vol.IO().WriteBlock(b, data) }

// wireTarget is one keep-alive HTTP connection to the block server.
type wireTarget struct {
	base string // http://host:port/v1/t/<tenant>/v/<vol>/b/
	hc   *http.Client
	t    *tracer
	// selfUS gathers wire round trip minus the BlockIO span, per op kind
	// (traced run only).
	selfReadUS, selfWriteUS []float64
}

func newWireTarget(base string, t *tracer) *wireTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &wireTarget{base: base, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, t: t}
}

func (w *wireTarget) close() { w.hc.CloseIdleConnections() }

func (w *wireTarget) read(b int64, buf []byte) error {
	return w.roundTrip(false, b, func() error {
		resp, err := w.hc.Get(fmt.Sprintf("%s%d", w.base, b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("GET block %d: status %d", b, resp.StatusCode)
		}
		_, err = io.ReadFull(resp.Body, buf)
		return err
	})
}

func (w *wireTarget) write(b int64, data []byte) error {
	return w.roundTrip(true, b, func() error {
		req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s%d", w.base, b), bytes.NewReader(data))
		if err != nil {
			return err
		}
		resp, err := w.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("PUT block %d: status %d", b, resp.StatusCode)
		}
		return nil
	})
}

// roundTrip runs one request and, in the traced run, records its span and
// the part of it spent outside BlockIO.
func (w *wireTarget) roundTrip(write bool, b int64, fn func() error) error {
	if w.t == nil {
		return fn()
	}
	name := uint32(spWireRead)
	if write {
		name = spWireWrite
	}
	d, err := w.t.timeOp(name, fn)
	if inner, ok := w.t.io.take(write, b); ok && err == nil {
		self := float64(d-inner) / 1e3
		if write {
			w.selfWriteUS = append(w.selfWriteUS, self)
		} else {
			w.selfReadUS = append(w.selfReadUS, self)
		}
	}
	return err
}

// sample is one completed foreground operation.
type sample struct {
	write bool
	lat   time.Duration // completion − due (open loop) or − issue (closed loop)
	late  time.Duration // issue − due: how late the generator ran
}

// client is one load-generating goroutine's state.
type client struct {
	k      int
	tgt    target
	sh     *shadow
	rng    *rand.Rand
	blocks int64
	buf    []byte
	data   []byte
	want   []byte

	samples   []sample
	attempted int64
	failed    int64
	firstErr  string
}

func newClient(k int, tgt target, sh *shadow, blockSize int, seed int64) *client {
	return &client{
		k: k, tgt: tgt, sh: sh,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(k))),
		blocks: int64(len(sh.ver)),
		buf:    make([]byte, blockSize),
		data:   make([]byte, blockSize),
		want:   make([]byte, blockSize),
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// ownBlock picks a uniform block among those this client writes.
func (c *client) ownBlock() int64 {
	n := (c.blocks - int64(c.k) + clients - 1) / clients
	return c.rng.Int63n(n)*clients + int64(c.k)
}

// prepare draws the next operation and, for a write, its payload — before
// the operation is due, so generating content never delays the request.
func (c *client) prepare() (write bool, block int64) {
	if c.rng.Float64() < readShare {
		return false, c.rng.Int63n(c.blocks)
	}
	block = c.ownBlock()
	c.sh.next(c.data, block)
	return true, block
}

// issue performs the prepared operation and checks what can be checked: a
// read of a block this client owns must return its last acknowledged write
// (the other client's blocks may be mid-write; the closing oracle covers
// them). An error, a refusal, a timeout or a mismatch is a failure.
func (c *client) issue(write bool, block int64) bool {
	c.attempted++
	if write {
		if err := c.tgt.write(block, c.data); err != nil {
			c.fail("write block %d: %v", block, err)
			return false
		}
		c.sh.acked(block)
		return true
	}
	if err := c.tgt.read(block, c.buf); err != nil {
		c.fail("read block %d: %v", block, err)
		return false
	}
	if block%clients == int64(c.k) && !c.sh.holds(block, c.buf, c.want) {
		c.fail("read block %d: not the last acknowledged write", block)
		return false
	}
	return true
}

// spinWindow is how long before a request is due its client stops sleeping
// and spins. The sleep is a raw nanosleep: time.Sleep on this host returns
// 1.1 ms late at the median (the runtime rounds timer waits up to whole
// milliseconds in epoll), nanosleep 50-90 µs late at the median and 300 µs
// at p99 (measured: 4000 sleeps each of 50-400 µs). With this window two
// clients at 1000 ops/s each were measured 0.1 µs late at the median and
// under 150 µs at p99, spinning at most a quarter of the time. The spin
// does not yield: yielding spinners keep every P busy, so the runtime
// never polls the network and wire latency was measured at 2.4 ms.
const spinWindow = 250 * time.Microsecond

// pacer waits for due times, sleeping then spinning. The window widens
// (doubling, up to never sleeping at all) whenever a sleep overran its due
// time, because the host's timers are not always as fine as measured: one
// run in forty woke 1.5 ms late throughout.
type pacer struct{ window time.Duration }

// waitUntil returns at the instant due, or at once if it has passed.
func (p *pacer) waitUntil(due time.Time) {
	if d := time.Until(due) - p.window; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
		if time.Now().After(due) {
			p.window *= 2
		}
	}
	for time.Now().Before(due) {
	}
}

// openLoop offers rate operations per second per client for d on a fixed
// timetable, whether or not earlier ones were slow, and times each from the
// instant it was due, so a stall is charged to every request it delays.
func openLoop(cs []*client, d time.Duration, rate int) loadResult {
	interval := time.Second / time.Duration(rate)
	return runClients(cs, func(c *client, start time.Time) {
		// Stagger the clients so they are not due at the same instant.
		offset := interval * time.Duration(c.k) / time.Duration(len(cs))
		pace := pacer{window: spinWindow}
		for i := 0; ; i++ {
			due := start.Add(offset + time.Duration(i)*interval)
			if due.Sub(start) >= d {
				return
			}
			write, block := c.prepare()
			pace.waitUntil(due)
			issued := time.Now()
			if c.issue(write, block) {
				done := time.Now()
				c.samples = append(c.samples, sample{write, done.Sub(due), issued.Sub(due)})
			}
		}
	})
}

// closedLoopKeep is how many closed-loop operations share one kept latency
// sample: a saturated in-process client completes a million operations in a
// few seconds, and keeping every one made peak_rss_mb follow the throughput.
// Every operation is still counted.
const closedLoopKeep = 16

// closedLoop has every client issue its next operation as soon as the
// previous one completed, for d.
func closedLoop(cs []*client, d time.Duration) loadResult {
	return runClients(cs, func(c *client, start time.Time) {
		for i := 0; ; i++ {
			write, block := c.prepare()
			issued := time.Now()
			if issued.Sub(start) >= d {
				return
			}
			if c.issue(write, block) {
				if i%closedLoopKeep == 0 {
					c.samples = append(c.samples, sample{write, time.Since(issued), 0})
				}
			}
		}
	})
}

// loadResult is one load phase, all clients merged.
type loadResult struct {
	span      time.Duration // from the first client's start to the last one's end
	samples   []sample
	attempted int64
	failed    int64
	firstErr  string
}

// runClients runs fn on every client concurrently and merges what they
// recorded during it.
func runClients(cs []*client, fn func(c *client, start time.Time)) loadResult {
	for _, c := range cs {
		c.samples = c.samples[:0]
		c.attempted, c.failed = 0, 0
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c, start)
		}(c)
	}
	wg.Wait()
	res := loadResult{span: time.Since(start)}
	for _, c := range cs {
		res.samples = append(res.samples, c.samples...)
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == "" {
			res.firstErr = c.firstErr
		}
	}
	return res
}

// latencies is a phase's samples of one operation kind, in microseconds.
func (r loadResult) latencies(write bool) (us []float64) {
	for _, s := range r.samples {
		if s.write == write {
			us = append(us, float64(s.lat)/1e3)
		}
	}
	return
}

// lateness is the generator's own lateness (issue − due) per sample, in µs.
func (r loadResult) lateness() []float64 {
	late := make([]float64, len(r.samples))
	for i, s := range r.samples {
		late[i] = float64(s.late) / 1e3
	}
	return late
}
