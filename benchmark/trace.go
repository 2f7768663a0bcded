package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"code56/internal/serve"
	"code56/internal/vdisk"
)

// The traced run times each layer from outside: wrappers the benchmark owns
// sit at the layer boundaries (BlockStore, BlockIO) and record a span and a
// busy-time tally per call. Nothing inside the program is instrumented; that
// is a later change (see README, "Tracing").

// span names, indexed by span.name.
var spanNames = [...]string{
	"phase", "convert.rep", "store.read", "store.write", "store.sync",
	"blockio.read", "blockio.write", "wire.read", "wire.write",
	"raid6.seq_write", "raid6.rmw", "raid6.degraded_read", "raid6.rebuild", "raid6.scrub",
}

const (
	spPhase = iota
	spConvertRep
	spStoreRead
	spStoreWrite
	spStoreSync
	spIORead
	spIOWrite
	spWireRead
	spWireWrite
	spSeqWrite
	spRMW
	spDegraded
	spRebuild
	spScrub
)

// maxSpans bounds the preallocated span buffer (32 B each). Spans beyond it
// are counted as dropped; the metrics never depend on the buffer, only on
// the tallies below, so a long run loses span detail, not numbers.
const maxSpans = 1 << 21

type span struct {
	parent     uint32
	name       uint32
	start, end int64 // ns since tracer start
}

// tracer is the traced run's recorder. A nil *tracer is the untraced run:
// every wrapper is simply not installed.
type tracer struct {
	t0    time.Time
	on    atomic.Bool // off: wrappers pass straight through (overhead probe)
	spans []span
	n     atomic.Int64
	lost  atomic.Int64
	cur   atomic.Uint32 // the open phase/rep span: parent of layer spans

	store storeTally
	io    ioTally
}

// storeTally sums the BlockStore calls of every disk.
type storeTally struct {
	reads, writes, syncs    atomic.Int64
	readNs, writeNs, syncNs atomic.Int64
}

// ioTally keeps every BlockIO call's service time for the p50s, and the
// last one per (op, block) so a wire client can subtract it from its own
// round trip (at most two requests are in flight, one per client).
type ioTally struct {
	join         bool // requests come over the wire: keep lastByOpAddr
	mu           sync.Mutex
	readUS       []float64
	writeUS      []float64
	lastByOpAddr map[ioKey]time.Duration
}

type ioKey struct {
	write bool
	block int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, maxSpans)}
	t.io.lastByOpAddr = make(map[ioKey]time.Duration)
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span whose id later spans name as parent; close ends it.
func (t *tracer) open(name uint32, parent uint32) uint32 {
	i := t.n.Add(1)
	if i > maxSpans {
		t.lost.Add(1)
		return 0
	}
	t.spans[i-1] = span{parent: parent, name: name, start: t.now()}
	return uint32(i)
}

func (t *tracer) close(id uint32) {
	if id != 0 {
		t.spans[id-1].end = t.now()
	}
}

// rec records a finished span.
func (t *tracer) rec(name, parent uint32, start, end int64) {
	i := t.n.Add(1)
	if i > maxSpans {
		t.lost.Add(1)
		return
	}
	t.spans[i-1] = span{parent: parent, name: name, start: start, end: end}
}

// phase opens a span that store/BlockIO spans recorded meanwhile name as
// their parent, and returns the function that closes it. Safe on nil.
func (t *tracer) phase(name uint32) func() {
	if t == nil {
		return func() {}
	}
	prev := t.cur.Load()
	id := t.open(name, prev)
	t.cur.Store(id)
	return func() {
		t.close(id)
		t.cur.Store(prev)
	}
}

// timeOp times fn as a span under the current phase; on a nil tracer it
// just runs fn.
func (t *tracer) timeOp(name uint32, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t != nil {
		s := int64(start.Sub(t.t0))
		t.rec(name, t.cur.Load(), s, s+int64(d))
	}
	return d, err
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := t.n.Load()
	if n > maxSpans {
		n = maxSpans
	}
	for i := int64(0); i < n; i++ {
		s := t.spans[i]
		err := enc.Encode(struct {
			ID      int64  `json:"id"`
			Parent  uint32 `json:"parent"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{i + 1, s.parent, spanNames[s.name], s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore times one disk's BlockStore from outside.
type timedStore struct {
	vdisk.BlockStore
	t *tracer
}

func (s *timedStore) ReadAt(p []byte, off int64) (int, error) {
	if !s.t.on.Load() {
		return s.BlockStore.ReadAt(p, off)
	}
	start := s.t.now()
	n, err := s.BlockStore.ReadAt(p, off)
	end := s.t.now()
	st := &s.t.store
	st.reads.Add(1)
	st.readNs.Add(end - start)
	s.t.rec(spStoreRead, s.t.cur.Load(), start, end)
	return n, err
}

func (s *timedStore) WriteAt(p []byte, off int64) (int, error) {
	if !s.t.on.Load() {
		return s.BlockStore.WriteAt(p, off)
	}
	start := s.t.now()
	n, err := s.BlockStore.WriteAt(p, off)
	end := s.t.now()
	st := &s.t.store
	st.writes.Add(1)
	st.writeNs.Add(end - start)
	s.t.rec(spStoreWrite, s.t.cur.Load(), start, end)
	return n, err
}

func (s *timedStore) Sync() error {
	if !s.t.on.Load() {
		return s.BlockStore.Sync()
	}
	start := s.t.now()
	err := s.BlockStore.Sync()
	end := s.t.now()
	s.t.store.syncs.Add(1)
	s.t.store.syncNs.Add(end - start)
	s.t.rec(spStoreSync, s.t.cur.Load(), start, end)
	return err
}

// timedBackend mints timing stores over another backend's stores.
type timedBackend struct {
	inner vdisk.Backend
	t     *tracer
}

func (b timedBackend) Open(id, blockSize int) (vdisk.BlockStore, error) {
	s, err := b.inner.Open(id, blockSize)
	if err != nil {
		return nil, err
	}
	return keepCapabilities(&timedStore{BlockStore: s, t: b.t}, s)
}

// timedIO times a serve.BlockIO (the MigratorIO every foreground request
// goes through) from outside.
type timedIO struct {
	inner serve.BlockIO
	t     *tracer
}

// wrapIO returns inner unchanged on a nil tracer.
func wrapIO(inner serve.BlockIO, t *tracer) serve.BlockIO {
	if t == nil {
		return inner
	}
	return timedIO{inner, t}
}

func (io timedIO) BlockSize() int { return io.inner.BlockSize() }

func (io timedIO) ReadBlock(logical int64, buf []byte) error {
	return io.do(false, logical, func() error { return io.inner.ReadBlock(logical, buf) })
}

func (io timedIO) WriteBlock(logical int64, data []byte) error {
	return io.do(true, logical, func() error { return io.inner.WriteBlock(logical, data) })
}

func (io timedIO) do(write bool, logical int64, fn func() error) error {
	start := io.t.now()
	err := fn()
	end := io.t.now()
	d := time.Duration(end - start)
	name := uint32(spIORead)
	if write {
		name = spIOWrite
	}
	io.t.rec(name, io.t.cur.Load(), start, end)
	tl := &io.t.io
	tl.mu.Lock()
	if write {
		tl.writeUS = append(tl.writeUS, float64(d)/1e3)
	} else {
		tl.readUS = append(tl.readUS, float64(d)/1e3)
	}
	if tl.join {
		tl.lastByOpAddr[ioKey{write, logical}] = d
	}
	tl.mu.Unlock()
	return err
}

// take returns and forgets the BlockIO time of the request (op, block) that
// just completed over the wire.
func (tl *ioTally) take(write bool, logical int64) (time.Duration, bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	k := ioKey{write, logical}
	d, ok := tl.lastByOpAddr[k]
	delete(tl.lastByOpAddr, k)
	return d, ok
}

// drain returns the BlockIO service times gathered since the last drain.
func (tl *ioTally) drain() (readUS, writeUS []float64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	readUS, writeUS = tl.readUS, tl.writeUS
	tl.readUS, tl.writeUS = nil, nil
	return
}
