package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"code56"
	"code56/internal/durable"
	"code56/internal/raid5"
	"code56/internal/serve"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/vdisk/filestore"
	"code56/internal/xorblk"
)

// Every workload takes one array through the same journey, because a user
// of this system does: create a RAID-5 and fill it (setup_s), convert it to
// Code 5-6 (convert_mbps), keep reading and writing it while a conversion
// sweeps underneath (read_*/write_*, fg_kops),
// and then own a RAID-6 — stream to it, update it in place, lose two disks,
// read degraded, rebuild, scrub (the five array metrics). The workloads
// change one factor of that journey each, so every metric is reported by
// every workload and a change that helps one factor at another's cost shows.
//
// After set-up the journey is walked in cycles, over and over until the
// run's seconds are used: every cycle ends by handing the same filled disks
// back as a RAID-5 (the data disks of a Code 5-6 array are a valid RAID-5 —
// the paper's property), so each metric is sampled in every cycle and its
// median spans the whole run. A cycle is nominally a cyclesPerRun-th of the
// run and its phases get fixed shares of it; each makes at least one
// repetition, so real cycles run longer and a run holds fewer of them.

const cyclesPerRun = 20

const (
	shareConvert  = 0.20 // phase A: repeated conversions, no foreground I/O
	sharePaced    = 0.08 // phase B: open-loop clients during a conversion
	shareSaturate = 0.20 // phase C: closed-loop clients
	shareSeqWrite = 0.08 // phase D: the RAID-6 the user ends with
	shareRMW      = 0.07
	shareDegraded = 0.07
	shareRebuild  = 0.15
	shareScrub    = 0.15
)

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 3

// failA and failB are the two disks phase D loses: a data column pair that
// forces the two-erasure decoder, not just single-chain repair.
const failA, failB = 0, 2

// runOpts is one run of one workload.
type runOpts struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	scratch string // existing directory this run may fill and must empty
	spans   string // traced run: write spans here as JSON lines ("" = don't)
}

// result is what a run reports.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Values    map[string]float64 // metric name → value
	Samples   map[string]int     // metric name → samples behind it
	Notes     []string
}

func (r *result) set(name string, v float64, samples int) {
	r.Values[name] = v
	r.Samples[name] = samples
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fault marks the run incorrect and says why.
func (r *result) fault(format string, args ...any) {
	r.Correct = false
	r.notef("FAULT: "+format, args...)
}

// journey is the state one run threads through its phases.
type journey struct {
	runOpts
	t    *tracer             // nil in the untraced run
	reg  *telemetry.Registry // private: counts of this run only
	sh   *shadow
	dir  string // the array's directory (file workloads)
	r5   *raid5.Array
	res  *result
	vol  *serve.Volume
	base string // http://addr/v1/t/bench/v/v0/b/

	dropped atomic.Int64 // disk-image flushes counted and dropped (file workloads)

	cycle  int       // the cycle being walked, from 0
	ty     tally     // what the cycles gathered
	fg     []*client // the foreground clients of phases B and C
	wires  []*wireTarget
	rng    *rand.Rand // phase D's single caller
	seqBuf []byte
	data   []byte
	got    []byte
	want   []byte

	convMBps float64 // phase A's result, for the taxes
}

// slice is the time one phase gets in one cycle.
func (j *journey) slice(share float64) time.Duration {
	return time.Duration(share * j.seconds / cyclesPerRun * float64(time.Second))
}

// minCycles is how many measured cycles a run makes at least, however short
// its seconds.
func (j *journey) minCycles() int {
	if j.smoke {
		return 1
	}
	return 3
}

// run executes the journey and returns its result. An error means the
// benchmark itself could not run; a wrong answer from the system is a
// result with Correct == false.
func run(o runOpts) (*result, error) {
	j := &journey{
		runOpts: o,
		reg:     telemetry.NewRegistry(),
		res:     &result{Correct: true, Values: map[string]float64{}, Samples: map[string]int{}},
	}
	if o.traced {
		j.t = newTracer()
		j.t.io.join = o.w.wire
	}
	if o.w.file {
		j.dir = filepath.Join(o.scratch, "array")
	}
	if err := j.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { j.r5.Disks().Close() }()
	stop, err := j.serve()
	if err != nil {
		return nil, fmt.Errorf("starting block server: %w", err)
	}
	defer stop()

	// The clients reach the volume the workload's way: over HTTP on
	// serve_wire, through the same BlockIO in process everywhere else.
	for k := 0; k < clients; k++ {
		var tgt target = directTarget{j.vol}
		if o.w.wire {
			wt := newWireTarget(j.base, j.t)
			defer wt.close()
			j.wires = append(j.wires, wt)
			tgt = wt
		}
		j.fg = append(j.fg, newClient(k, tgt, j.sh, o.w.block, o.seed))
	}
	j.rng = rand.New(rand.NewSource(o.seed*31 + 5))
	j.data, j.got, j.want = make([]byte, o.w.block), make([]byte, o.w.block), make([]byte, o.w.block)

	var r6 *code56.RAID6
	budget := time.Duration(o.seconds * float64(time.Second))
	whole := openWindow()
	for start := time.Now(); ; j.cycle++ {
		if err := j.phaseConvert(); err != nil {
			return nil, fmt.Errorf("phase convert: %w", err)
		}
		mig, a, err := j.phaseForeground()
		if err != nil {
			return nil, fmt.Errorf("phase foreground: %w", err)
		}
		if err := j.phaseArray(a); err != nil {
			return nil, fmt.Errorf("phase array: %w", err)
		}
		// Stop when another cycle as long as the mean so far would end
		// further past the budget than stopping now ends short of it.
		used := time.Since(start)
		if j.cycle+1 >= warmCycles+j.minCycles() && used+used/time.Duration(2*(j.cycle+1)) >= budget {
			if jr := mig.Journal(); jr != nil {
				if err := jr.Close(); err != nil {
					return nil, err
				}
			}
			r6 = a
			break
		}
		if err := j.backToRAID5(mig); err != nil {
			return nil, err
		}
	}
	j.res.notef("host: %s", whole.describe())
	j.report(r6)
	if j.t != nil {
		j.layerProbes()
	}
	j.closingOracle(r6)

	j.res.set("peak_rss_mb", peakRSSMB(), 1)
	if j.t != nil {
		j.res.set("trace.spans_dropped", float64(j.t.lost.Load()), 1)
		if o.spans != "" {
			if err := j.t.writeSpans(o.spans); err != nil {
				return nil, err
			}
		}
	}
	return j.res, nil
}

// peakRSSMB is this process's high-water resident set. One process runs one
// workload, so nothing leaks between workloads.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// raid5Meta is the identity record of the workload's RAID-5 directory.
func (j *journey) raid5Meta() durable.Meta {
	return durable.Meta{
		Version:   durable.MetaVersion,
		Kind:      durable.KindRAID5,
		BlockSize: j.w.block,
		Disks:     j.w.disks,
		Layout:    code56.LeftAsymmetric.String(),
	}
}

// backend is what the array's disks are opened on when the facade's own
// choice will not do: the file workload's flushless images (both runs) and
// the traced run's timing stores, neither of which the facade has an option
// to inject. nil means the facade builds the array, as a user would.
func (j *journey) backend() (vdisk.Backend, error) {
	var b vdisk.Backend
	if j.w.file {
		fb, err := filestore.NewBackend(j.dir)
		if err != nil {
			return nil, err
		}
		b = keepDir(flushlessBackend{fb, &j.dropped}, fb)
	}
	if j.t != nil {
		if b == nil {
			b = vdisk.MemBackend{}
		}
		b = wrapBackend(b, j.t)
	}
	return b, nil
}

// newRAID5 creates the workload's empty RAID-5: through the facade if it
// can, by the facade's own steps over the benchmark's backend if not.
func (j *journey) newRAID5() (*raid5.Array, error) {
	backend, err := j.backend()
	if err != nil {
		return nil, err
	}
	if backend == nil {
		return code56.NewRAID5Array(j.w.disks, code56.WithBlockSize(j.w.block))
	}
	disks, err := vdisk.NewArrayBackend(j.w.disks, j.w.block, backend)
	if err != nil {
		return nil, err
	}
	if j.w.file {
		if err := durable.Save(j.dir, j.raid5Meta()); err != nil {
			disks.Close()
			return nil, err
		}
	}
	return raid5.Wrap(disks, j.w.disks, code56.LeftAsymmetric)
}

// reopenRAID5 reassembles the directory's RAID-5 from its images, as
// code56.OpenRAID5Array does.
func (j *journey) reopenRAID5() (*raid5.Array, error) {
	backend, err := j.backend()
	if err != nil {
		return nil, err
	}
	ids, err := filestore.Scan(j.dir)
	if err != nil {
		return nil, err
	}
	disks, err := vdisk.NewArrayFrom(j.w.block, backend, ids)
	if err != nil {
		return nil, err
	}
	return raid5.Wrap(disks, j.w.disks, code56.LeftAsymmetric)
}

// fill writes every block's version-0 content and each row's parity
// straight to the disks: the cheapest way to a valid, seeded RAID-5, so
// set-up time is creation and media writes, not read-modify-write.
func (j *journey) fill(a *raid5.Array) error {
	m := j.w.disks
	bufs := make([][]byte, m-1)
	for k := range bufs {
		bufs[k] = make([]byte, j.w.block)
	}
	parity := make([]byte, j.w.block)
	for row := int64(0); row < j.w.rows(); row++ {
		for k := 0; k < m-1; k++ {
			blockContent(bufs[k], j.seed, row*int64(m-1)+int64(k), 0)
			if err := a.Disks().Disk(a.DataDisk(row, k)).Write(row, bufs[k]); err != nil {
				return err
			}
		}
		xorblk.XorMulti(parity, bufs...)
		if err := a.Disks().Disk(a.ParityDisk(row)).Write(row, parity); err != nil {
			return err
		}
	}
	return a.Disks().Sync()
}

// setup creates and fills the array setupReps times, keeps the last one and
// reports the median time. Discarded arrays are released to the OS first,
// so peak_rss_mb is one array's footprint, not an accident of GC timing.
func (j *journey) setup() error {
	if j.t != nil {
		j.t.on.Store(false)
		defer j.t.on.Store(true)
	}
	reps := setupReps
	if j.smoke {
		reps = 1
	}
	var times, walls []float64 // granted and wall-clock seconds
	for i := 0; i < reps; i++ {
		if j.r5 != nil {
			if err := j.r5.Disks().Close(); err != nil {
				return err
			}
			j.r5 = nil
			debug.FreeOSMemory()
		}
		if j.dir != "" {
			if err := os.RemoveAll(j.dir); err != nil {
				return err
			}
		}
		win, start := openWindow(), time.Now()
		a, err := j.newRAID5()
		if err != nil {
			return err
		}
		if err := j.fill(a); err != nil {
			a.Disks().Close()
			return err
		}
		wall := time.Since(start).Seconds()
		walls = append(walls, wall)
		times = append(times, wall*win.granted())
		j.r5 = a
	}
	j.sh = newShadow(j.seed, j.w.blocks())
	j.res.set("setup_s", median(times), len(times))
	j.res.notef("setup_s: median %.4f s of wall-clock time", median(walls))
	return nil
}

// serve starts the block server on loopback with one tenant and one volume.
// The volume's BlockIO is swapped to each migrator as it is created.
func (j *journey) serve() (stop func(), err error) {
	srv := serve.NewServer(j.reg)
	tenant, err := srv.AddTenant("bench", serve.QoS{})
	if err != nil {
		return nil, err
	}
	// Until the first migrator exists the volume answers from the bare
	// RAID-5; nothing reads or writes it before then.
	j.vol, err = tenant.AddVolume("v0", j.r5, j.w.blocks())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(serve.Limit(ln, 64, j.reg))
	}()
	j.base = fmt.Sprintf("http://%s/v1/t/bench/v/v0/b/", ln.Addr())
	return func() {
		hs.Close()
		<-served
	}, nil
}

// newMigrator prepares a migration of the current RAID-5 with default
// options (one conversion worker, checkpoint every 16 stripes) and points
// the served volume at it.
func (j *journey) newMigrator() (*code56.OnlineMigrator, error) {
	var opts []code56.Option
	if j.w.checkpoint > 0 {
		opts = append(opts, code56.WithCheckpointInterval(j.w.checkpoint))
	}
	mig, err := code56.NewMigrator(j.r5, j.w.rows(), opts...)
	if err != nil {
		return nil, err
	}
	if j.w.file && mig.Journal() == nil {
		return nil, errors.New("file-backed migration is not journaled: the backend hides Dir()")
	}
	mig.SetTelemetry(j.reg, nil)
	j.vol.SetIO(wrapIO(serve.MigratorIO{M: mig}, j.t))
	return mig, nil
}

// backToRAID5 undoes a finished conversion so the next repetition converts
// the same filled disks: the data disks were never touched (that is the
// paper's property), so only the added disk goes. In memory that is
// Downgrade; on disk the added image and the WAL are deleted, the RAID-5
// identity is saved again and the directory reopened.
func (j *journey) backToRAID5(mig *code56.OnlineMigrator) error {
	if !j.w.file {
		r6, err := mig.Result()
		if err != nil {
			return err
		}
		return code56.Downgrade(r6)
	}
	if err := mig.Journal().Close(); err != nil {
		return err
	}
	if err := j.r5.Disks().Close(); err != nil {
		return err
	}
	for _, name := range []string{filestore.DiskFileName(j.w.disks), durable.WALFile} {
		if err := os.Remove(filepath.Join(j.dir, name)); err != nil {
			return err
		}
	}
	if err := durable.Save(j.dir, j.raid5Meta()); err != nil {
		return err
	}
	a, err := j.reopenRAID5()
	if err != nil {
		return err
	}
	j.r5 = a
	return nil
}

// storeSnap is the store tally at one instant; deltas give a phase's share.
type storeSnap struct {
	reads, writes, syncs    int64
	readNs, writeNs, syncNs int64
}

func (j *journey) storeSnap() storeSnap {
	if j.t == nil {
		return storeSnap{}
	}
	s := &j.t.store
	return storeSnap{
		s.reads.Load(), s.writes.Load(), s.syncs.Load(),
		s.readNs.Load(), s.writeNs.Load(), s.syncNs.Load(),
	}
}

func (a storeSnap) since(b storeSnap) storeSnap {
	return storeSnap{
		a.reads - b.reads, a.writes - b.writes, a.syncs - b.syncs,
		a.readNs - b.readNs, a.writeNs - b.writeNs, a.syncNs - b.syncNs,
	}
}

// busy is the time some store call was running. Calls from different
// goroutines may overlap, so under parallel work it can exceed wall time.
func (a storeSnap) busy() time.Duration { return time.Duration(a.readNs + a.writeNs + a.syncNs) }

// closingOracle is the last word on correctness: the array the run ends
// with must verify stripe by stripe and hold every acknowledged write —
// and, on disk, must still do so after being closed and reopened from
// nothing but its directory.
func (j *journey) closingOracle(r6 *code56.RAID6) {
	rep := j.sh.check(r6, j.w.stripes)
	if j.w.file && rep.ok() {
		if err := r6.Disks().Close(); err != nil {
			j.res.fault("closing the array: %v", err)
			return
		}
		reopened, err := code56.OpenRAID6Array(j.dir)
		if err != nil {
			j.res.fault("reopening %s: %v", j.dir, err)
			return
		}
		rep = j.sh.check(reopened, j.w.stripes)
		// run's deferred Close closes j.r5's disks, which are the ones just
		// closed; closing a closed file only returns an error. The reopened
		// handles are closed here.
		reopened.Disks().Close()
	}
	if !rep.ok() {
		j.res.fault("closing oracle: %d stripes do not verify, %d blocks lost their last acknowledged write; first: %s",
			rep.stripesBad, rep.blocksBad, rep.first)
	}
	j.res.notef("oracle: %d stripes verified, %d blocks read back", j.w.stripes, len(j.sh.ver))
}

var bg = context.Background()
