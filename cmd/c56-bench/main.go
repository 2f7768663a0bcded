// Command c56-bench is the load client for a running c56-serve: it drives
// one volume with concurrent clients mixing reads and writes 3:1 for a fixed
// time and prints the client-observed latency quantiles as JSON. The serve
// end-to-end smoke in CI uses it as the foreground traffic of a live
// migration; an operator can point it at any c56-serve. (The repository's
// benchmark is benchmark/, run with `bash benchmark/run.sh`.)
//
// Usage:
//
//	c56-bench -load-url http://127.0.0.1:8080 -load-tenant demo -load-vol vol0 -load-duration 5s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

func main() {
	var (
		loadURL      = flag.String("load-url", "", "base URL of the running c56-serve to drive (e.g. http://127.0.0.1:8080)")
		loadTenant   = flag.String("load-tenant", "demo", "tenant to drive")
		loadVol      = flag.String("load-vol", "vol0", "volume to drive")
		loadDuration = flag.Duration("load-duration", 5*time.Second, "how long to run")
		clients      = flag.Int("serve-clients", 4, "concurrent client goroutines")
	)
	flag.Parse()
	if *loadURL == "" {
		fmt.Fprintln(os.Stderr, "c56-bench: -load-url is required (the repository benchmark is `bash benchmark/run.sh`)")
		os.Exit(2)
	}
	rep, err := runLoadGen(*loadURL, *loadTenant, *loadVol, *clients, *loadDuration)
	if err == nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "c56-bench:", err)
		os.Exit(1)
	}
}

// LoadReport is the client-side account of one run: operation counts and
// read and write latency quantiles over the wire.
type LoadReport struct {
	Phase      string  `json:"phase"` // always "load"
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	ReadP50US  float64 `json:"read_p50_us"`
	ReadP99US  float64 `json:"read_p99_us"`
	WriteP50US float64 `json:"write_p50_us"`
	WriteP99US float64 `json:"write_p99_us"`
	Errors     int     `json:"errors"`
}

// latRec collects the client-observed latencies.
type latRec struct {
	mu     sync.Mutex
	reads  []float64 // microseconds
	writes []float64
	errs   int
}

func (l *latRec) read(us float64)  { l.mu.Lock(); l.reads = append(l.reads, us); l.mu.Unlock() }
func (l *latRec) write(us float64) { l.mu.Lock(); l.writes = append(l.writes, us); l.mu.Unlock() }
func (l *latRec) err()             { l.mu.Lock(); l.errs++; l.mu.Unlock() }

// quantile returns the nearest-rank q-quantile of s (sorted in place);
// 0 when empty. Nearest-rank keeps small-sample p99s honest: the tail
// observation is reported, not interpolated away.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// loadClient drives ops mixed 3:1 read:write against one volume URL.
type loadClient struct {
	base      string // http://addr/v1/t/<tenant>/v/<vol>
	blockSize int
	blocks    int64
	client    *http.Client
}

func (c *loadClient) do(rng *rand.Rand, rec *latRec) {
	blk := rng.Int63n(c.blocks)
	url := fmt.Sprintf("%s/b/%d", c.base, blk)
	start := time.Now()
	if rng.Intn(4) == 0 {
		payload := make([]byte, c.blockSize)
		rng.Read(payload)
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(payload))
		if err != nil {
			rec.err()
			return
		}
		resp, err := c.client.Do(req)
		if err != nil {
			rec.err()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			rec.err()
			return
		}
		rec.write(float64(time.Since(start)) / float64(time.Microsecond))
		return
	}
	resp, err := c.client.Get(url)
	if err != nil {
		rec.err()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err()
		return
	}
	rec.read(float64(time.Since(start)) / float64(time.Microsecond))
}

// runLoadGen drives an already-running c56-serve with clients concurrent
// closed-loop clients for the given duration.
func runLoadGen(baseURL, tenant, volName string, clients int, d time.Duration) (LoadReport, error) {
	volURL := fmt.Sprintf("%s/v1/t/%s/v/%s", baseURL, tenant, volName)
	resp, err := http.Get(volURL)
	if err != nil {
		return LoadReport{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return LoadReport{}, fmt.Errorf("GET %s: status %d", volURL, resp.StatusCode)
	}
	var info struct {
		BlockSize int   `json:"block_size"`
		Blocks    int64 `json:"blocks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return LoadReport{}, err
	}
	if info.BlockSize <= 0 || info.Blocks <= 0 {
		return LoadReport{}, fmt.Errorf("GET %s: volume of %d blocks of %d bytes", volURL, info.Blocks, info.BlockSize)
	}
	lc := &loadClient{
		base:      volURL,
		blockSize: info.BlockSize,
		blocks:    info.Blocks,
		client:    &http.Client{Timeout: 30 * time.Second},
	}
	rec := &latRec{}
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(31 + int64(n)))
			for time.Now().Before(stop) {
				lc.do(rng, rec)
			}
		}(i)
	}
	wg.Wait()
	rep := LoadReport{
		Phase:      "load",
		Reads:      len(rec.reads),
		Writes:     len(rec.writes),
		ReadP50US:  quantile(rec.reads, 0.50),
		ReadP99US:  quantile(rec.reads, 0.99),
		WriteP50US: quantile(rec.writes, 0.50),
		WriteP99US: quantile(rec.writes, 0.99),
		Errors:     rec.errs,
	}
	if rep.Reads+rep.Writes == 0 {
		return rep, fmt.Errorf("load generator completed no operations against %s", baseURL)
	}
	return rep, nil
}
