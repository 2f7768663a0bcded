package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"code56/internal/bufpool"
	"code56/internal/migrate"
	"code56/internal/raid5"
	"code56/internal/telemetry"
)

const testBlockSize = 512

// newLoadedRAID5 builds a RAID-5 of m disks with rows rows of random data.
func newLoadedRAID5(t *testing.T, m int, rows int64) *raid5.Array {
	t.Helper()
	a, err := raid5.New(m, testBlockSize, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	b := make([]byte, testBlockSize)
	for L := int64(0); L < rows*int64(m-1); L++ {
		r.Read(b)
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func newTestServer(t *testing.T, reg *telemetry.Registry) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func blockURL(ts *httptest.Server, tenant, vol string, block int64) string {
	return fmt.Sprintf("%s/v1/t/%s/v/%s/b/%d", ts.URL, tenant, vol, block)
}

func readBlock(t *testing.T, url string) (int, []byte) {
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
	return resp.StatusCode, body
}

func writeBlock(t *testing.T, url string, data []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestProtocolRoundTrip: blocks written over the wire read back verbatim,
// both against a bare RAID-5 and info endpoints report the geometry.
func TestProtocolRoundTrip(t *testing.T) {
	const rows = 8
	a := newLoadedRAID5(t, 4, rows)
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, reg)
	tn, err := s.AddTenant("acme", QoS{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := rows * int64(a.M()-1)
	if _, err := tn.AddVolume("vol0", a, blocks); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte{0xA5}, testBlockSize)
	if code := writeBlock(t, blockURL(ts, "acme", "vol0", 3), payload); code != http.StatusNoContent {
		t.Fatalf("write: status %d", code)
	}
	code, body := readBlock(t, blockURL(ts, "acme", "vol0", 3))
	if code != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("read back: status %d, %d bytes, match=%v", code, len(body), bytes.Equal(body, payload))
	}
	// The write really landed in the array, not a server-side cache.
	direct := make([]byte, testBlockSize)
	if err := a.ReadBlock(3, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, payload) {
		t.Fatal("array does not hold the written block")
	}

	// Info + error paths.
	code, body = readBlock(t, ts.URL+"/v1/t/acme/v/vol0")
	if code != http.StatusOK || !strings.Contains(string(body), "\"block_size\":512") {
		t.Fatalf("volume info: status %d body %s", code, body)
	}
	if code, body = readBlock(t, blockURL(ts, "nobody", "vol0", 0)); code != http.StatusNotFound || !strings.Contains(string(body), "error") {
		t.Fatalf("unknown tenant: status %d body %s", code, body)
	}
	if code, _ = readBlock(t, blockURL(ts, "acme", "vol0", blocks)); code != http.StatusBadRequest {
		t.Fatalf("out-of-range block: status %d", code)
	}
	if code := writeBlock(t, blockURL(ts, "acme", "vol0", 0), payload[:10]); code != http.StatusBadRequest {
		t.Fatalf("short write body: status %d", code)
	}

	snap := reg.Snapshot()
	if snap.Counters[metricReads] < 1 || snap.Counters[metricWrites] < 1 {
		t.Fatalf("serve counters not advancing: %+v", snap.Counters)
	}
	if snap.Counters["serve.tenant.acme.reads"] < 1 {
		t.Fatalf("per-tenant counters not advancing: %+v", snap.Counters)
	}
}

// gatedIO wraps a BlockIO, holding every read until the gate opens — a
// controllable stand-in for a slow disk.
type gatedIO struct {
	BlockIO
	gate    chan struct{}
	started chan struct{} // one tick per read that reached the array
}

func (g *gatedIO) ReadBlock(logical int64, buf []byte) error {
	g.started <- struct{}{}
	<-g.gate
	return g.BlockIO.ReadBlock(logical, buf)
}

// TestAdmissionSaturation is the satellite acceptance test: a tenant over
// its in-flight cap gets 429s while another tenant is untouched.
func TestAdmissionSaturation(t *testing.T) {
	const cap = 2
	a := newLoadedRAID5(t, 4, 8)
	b := newLoadedRAID5(t, 4, 8)
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, reg)

	slow := &gatedIO{BlockIO: a, gate: make(chan struct{}), started: make(chan struct{}, 16)}
	capped, err := s.AddTenant("capped", QoS{MaxInFlight: cap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.AddVolume("v", slow, 8); err != nil {
		t.Fatal(err)
	}
	free, err := s.AddTenant("free", QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := free.AddVolume("v", b, 8); err != nil {
		t.Fatal(err)
	}

	// Fill the capped tenant's two slots with reads stuck on the gate.
	var wg sync.WaitGroup
	codes := make(chan int, cap)
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			code, _ := readBlock(t, blockURL(ts, "capped", "v", n))
			codes <- code
		}(int64(i))
	}
	for i := 0; i < cap; i++ {
		select {
		case <-slow.started:
		case <-time.After(5 * time.Second):
			t.Fatal("gated reads never reached the array")
		}
	}

	// The cap is saturated: the next request bounces immediately.
	code, body := readBlock(t, blockURL(ts, "capped", "v", 2))
	if code != http.StatusTooManyRequests || !strings.Contains(string(body), "in-flight cap") {
		t.Fatalf("over-cap request: status %d body %s", code, body)
	}

	// The other tenant is unaffected while "capped" is saturated.
	for i := int64(0); i < 4; i++ {
		if code, _ := readBlock(t, blockURL(ts, "free", "v", i)); code != http.StatusOK {
			t.Fatalf("free tenant read %d: status %d", i, code)
		}
	}

	close(slow.gate)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted read finished with status %d", code)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.tenant.capped.rejected_inflight"] != 1 {
		t.Fatalf("rejected_inflight = %d, want 1", snap.Counters["serve.tenant.capped.rejected_inflight"])
	}
	if snap.Counters["serve.tenant.free.rejected_inflight"] != 0 {
		t.Fatal("free tenant saw rejections")
	}
	if g := snap.Gauges[metricInflight]; g != 0 {
		t.Fatalf("serve.inflight = %d after drain, want 0", g)
	}
}

// TestRateLimit429: a tenant whose burst is one block gets its second
// immediate request rejected with Retry-After once the shaping delay
// would exceed MaxWait.
func TestRateLimit429(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, reg)
	tn, err := s.AddTenant("slow", QoS{
		BytesPerSec: testBlockSize, // one block per second
		Burst:       testBlockSize,
		MaxWait:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.AddVolume("v", a, 8); err != nil {
		t.Fatal(err)
	}

	if code, _ := readBlock(t, blockURL(ts, "slow", "v", 0)); code != http.StatusOK {
		t.Fatalf("first read within burst: status %d", code)
	}
	resp, err := http.Get(blockURL(ts, "slow", "v", 1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exhausted read: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}
	if n := reg.Snapshot().Counters["serve.tenant.slow.rejected_rate"]; n != 1 {
		t.Fatalf("rejected_rate = %d, want 1", n)
	}
}

// TestRateShapingDelays: within MaxWait, requests are delayed — not
// rejected — and sustained throughput tracks the configured rate.
func TestRateShapingDelays(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, reg)
	// 20 blocks/s sustained, 1-block burst: each request past the first
	// waits ~50ms.
	tn, err := s.AddTenant("shaped", QoS{
		BytesPerSec: 20 * testBlockSize,
		Burst:       testBlockSize,
		MaxWait:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.AddVolume("v", a, 8); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	const n = 5
	for i := int64(0); i < n; i++ {
		if code, _ := readBlock(t, blockURL(ts, "shaped", "v", i)); code != http.StatusOK {
			t.Fatalf("shaped read %d: status %d", i, code)
		}
	}
	elapsed := time.Since(start)
	// 5 blocks with a 1-block burst at 20 blocks/s needs >= 4 * 50ms.
	if elapsed < 150*time.Millisecond {
		t.Fatalf("5 shaped reads took %v, want rate-limited pacing", elapsed)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.tenant.shaped.rejected_rate"] != 0 {
		t.Fatal("shaping rejected a request that fit MaxWait")
	}
	if snap.Histograms[metricQoSWaitUS].Count < n-1 {
		t.Fatalf("qos_wait_us count = %d, want >= %d", snap.Histograms[metricQoSWaitUS].Count, n-1)
	}
}

// TestKillClientMidStreamReleasesResources is the satellite leak test: a
// client that dies mid-PUT must not leak its admission slot or pooled
// buffer (verified via bufpool.bytes_in_flight returning to baseline).
func TestKillClientMidStreamReleasesResources(t *testing.T) {
	a := newLoadedRAID5(t, 4, 8)
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, reg)
	tn, err := s.AddTenant("acme", QoS{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.AddVolume("v", a, 8); err != nil {
		t.Fatal(err)
	}
	baseline := bufpool.InFlight()

	for i := 0; i < 8; i++ {
		// Raw TCP: send a PUT promising a full block, deliver half, die.
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "PUT /v1/t/acme/v/v/b/0 HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", testBlockSize)
		conn.Write(make([]byte, testBlockSize/2))
		conn.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// The tenant's slot and the server-wide gauge are released one after
		// the other, so all three are polled together.
		if bufpool.InFlight() == baseline && s.Tenant("acme").InFlight() == 0 && reg.Gauge(metricInflight).Value() == 0 {
			// The tenant still serves normal traffic afterwards.
			if code, _ := readBlock(t, blockURL(ts, "acme", "v", 0)); code != http.StatusOK {
				t.Fatalf("post-leak-check read: status %d", code)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("resources leaked: bufpool in-flight %d (baseline %d), tenant in-flight %d, serve.inflight %d",
		bufpool.InFlight(), baseline, s.Tenant("acme").InFlight(), reg.Gauge(metricInflight).Value())
}

// TestServeDuringLiveMigration: foreground wire traffic against a volume
// whose IO is swapped to a MigratorIO keeps reading correct data while
// stripes convert underneath, and writes land in the converted array.
func TestServeDuringLiveMigration(t *testing.T) {
	const rows = 16 * 4 // 16 stripes at p=5
	a := newLoadedRAID5(t, 4, rows)
	blocks := rows * int64(a.M()-1)

	// Remember every block's expected contents.
	want := make([][]byte, blocks)
	for i := range want {
		want[i] = make([]byte, testBlockSize)
		if err := a.ReadBlock(int64(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}

	mig, err := migrate.NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(2 * time.Millisecond)

	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, reg)
	tn, err := s.AddTenant("acme", QoS{})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := tn.AddVolume("v", a, blocks)
	if err != nil {
		t.Fatal(err)
	}
	vol.SetIO(MigratorIO{M: mig})
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(99))
	payload := bytes.Repeat([]byte{0x5C}, testBlockSize)
	written := map[int64]bool{}
	for i := 0; i < 200; i++ {
		blk := int64(rnd.Intn(int(blocks)))
		if rnd.Intn(4) == 0 {
			if code := writeBlock(t, blockURL(ts, "acme", "v", blk), payload); code != http.StatusNoContent {
				t.Fatalf("write %d during migration: status %d", blk, code)
			}
			written[blk] = true
			continue
		}
		code, body := readBlock(t, blockURL(ts, "acme", "v", blk))
		if code != http.StatusOK {
			t.Fatalf("read %d during migration: status %d", blk, code)
		}
		exp := want[blk]
		if written[blk] {
			exp = payload
		}
		if !bytes.Equal(body, exp) {
			t.Fatalf("block %d corrupted during migration", blk)
		}
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	// After conversion the same volume (still through MigratorIO) returns
	// the same data from the RAID-6 layout.
	for blk := int64(0); blk < blocks; blk++ {
		code, body := readBlock(t, blockURL(ts, "acme", "v", blk))
		exp := want[blk]
		if written[blk] {
			exp = payload
		}
		if code != http.StatusOK || !bytes.Equal(body, exp) {
			t.Fatalf("block %d wrong after migration (status %d)", blk, code)
		}
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	for st := int64(0); st < 16; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil || !ok {
			t.Fatalf("stripe %d not parity-clean after served migration: ok=%v err=%v", st, ok, err)
		}
	}
}

// TestLimitListener: at most n connections are open at once; the n+1th
// dial is not accepted until a slot frees.
func TestLimitListener(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ln := Limit(inner, 2, reg)
	defer ln.Close()

	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	dial()
	dial()
	var held []net.Conn
	for i := 0; i < 2; i++ {
		select {
		case c := <-accepted:
			held = append(held, c)
		case <-time.After(2 * time.Second):
			t.Fatal("first two connections not accepted")
		}
	}
	if g := reg.Snapshot().Gauges[metricConns]; g != 2 {
		t.Fatalf("serve.conns = %d, want 2", g)
	}

	dial() // third: must sit in the backlog
	select {
	case <-accepted:
		t.Fatal("third connection accepted over the limit")
	case <-time.After(200 * time.Millisecond):
	}

	held[0].Close() // free a slot
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("third connection not accepted after a slot freed")
	}
}

// TestConcurrentPutsKeepParity is the lost-parity-update race seen through the
// wire: c56-serve hands a bare RAID-5 to concurrent HTTP clients when no
// migration is running. Six clients PUT to the twelve blocks of one stripe at
// once, colliding on rows and on blocks; every row must verify afterwards and
// every block must hold the last value some client was acknowledged for it, or
// one a colliding client wrote. (Blocks nobody wrote are still zero, and so is
// their share of the parity.) Run it under -race too.
func TestConcurrentPutsKeepParity(t *testing.T) {
	// Large blocks keep each write inside the array long enough to overlap.
	const rows, clients, puts, blockSize = 8, 6, 40, 64 << 10
	a, err := raid5.New(4, blockSize, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, telemetry.NewRegistry())
	tn, err := s.AddTenant("acme", QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.AddVolume("vol0", a, rows*int64(a.M()-1)); err != nil {
		t.Fatal(err)
	}
	const stripeBlocks = 12 // p-1 = 4 rows of m-1 = 3 data blocks
	written := make([]map[int64][][]byte, clients)
	var wg sync.WaitGroup
	for c := range written {
		written[c] = map[int64][][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < puts; i++ {
				block := rng.Int63n(stripeBlocks)
				payload := bytes.Repeat([]byte{byte(c + 1), byte(i)}, blockSize/2)
				req, err := http.NewRequest(http.MethodPut, blockURL(ts, "acme", "vol0", block), bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Errorf("client %d PUT %d: status %d", c, block, resp.StatusCode)
					return
				}
				written[c][block] = append(written[c][block], payload)
			}
		}()
	}
	wg.Wait()
	for row := int64(0); row < rows; row++ {
		if ok, err := a.VerifyRow(row); err != nil || !ok {
			t.Errorf("row %d does not verify after the concurrent PUTs (ok=%v err=%v)", row, ok, err)
		}
	}
	got := make([]byte, blockSize)
	for block := int64(0); block < stripeBlocks; block++ {
		if err := a.ReadBlock(block, got); err != nil {
			t.Fatal(err)
		}
		found, any := false, false
		for c := range written {
			for _, payload := range written[c][block] {
				any = true
				found = found || bytes.Equal(got, payload)
			}
		}
		if any && !found {
			t.Errorf("block %d holds %v, a value no client wrote to it", block, got[:2])
		}
	}
}

// TestStripeLockDegradedGetsDuringPuts is the reconstructing-reader race seen
// through the wire: with a disk of a bare RAID-5 down, every GET of a block of
// that disk nobody writes returns the block while two clients PUT to the other
// blocks of its row. Before the stripe lock the reconstruction read the row
// between a PUT's Swap and its Xor and served the wrong bytes with a 200. Run
// it under -race too.
func TestStripeLockDegradedGetsDuringPuts(t *testing.T) {
	// Large blocks keep each write inside the array long enough to overlap.
	const gets, blockSize = 800, 64 << 10
	a, err := raid5.New(4, blockSize, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, telemetry.NewRegistry())
	tn, err := s.AddTenant("acme", QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.AddVolume("vol0", a, 8*int64(a.M()-1)); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xC3}, blockSize)
	if err := a.WriteBlock(0, want); err != nil {
		t.Fatal(err)
	}
	_, disk := a.Locate(0)
	a.Disks().Disk(disk).Fail()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := int64(1); c <= 2; c++ { // blocks 1 and 2 share block 0's row
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				payload := bytes.Repeat([]byte{byte(c), byte(i)}, blockSize/2)
				req, err := http.NewRequest(http.MethodPut, blockURL(ts, "acme", "vol0", c), bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Errorf("PUT %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}()
	}
	wrong := 0
	for i := 0; i < gets; i++ {
		if status, body := readBlock(t, blockURL(ts, "acme", "vol0", 0)); status != http.StatusOK || !bytes.Equal(body, want) {
			wrong++
		}
	}
	close(stop)
	wg.Wait()
	if wrong > 0 {
		t.Fatalf("%d of %d degraded GETs of a block nobody wrote came back wrong", wrong, gets)
	}
}
