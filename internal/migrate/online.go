package migrate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// OnlineMigrator implements the paper's Algorithm 2: bidirectional online
// conversion between a RAID-5 and a Code 5-6 RAID-6. From the moment it is
// built the disks are served as the RAID-6 they are becoming, a raid6.Array
// whose diagonal-parity disk holds nothing yet above the converted stripes:
// its blocks there are stale (vdisk.Disk.MarkStale). The conversion thread —
// a parallel.Pass over the stripes — is that array's rebuild of the disk,
// stripe by stripe, and the application keeps reading and writing through
// the migrator, which is the array's ReadBlock and WriteBlock:
//
//   - a read touches the block's disk alone and, if that fails, decodes
//     around it: around up to two lost disks on a converted stripe, one on a
//     stripe whose diagonal parities are still stale;
//   - a write is the RAID-6 small write, whose fold into a stale diagonal
//     parity is dropped — the RAID-5 two reads and two writes until its
//     stripe is converted, three and three after. It holds the stripe's lock
//     (vdisk.Array.StripeLock) shared and the conversion holds it exclusive,
//     so the parity the conversion writes is that of the data on the disks,
//     and every write after it folds into it.
//
// The RAID-5's block layout is untouched — that is Code 5-6's design — so
// application block addresses mean the same thing before, during and after
// the migration. The throttle alone sets how much the conversion takes from
// foreground I/O.
type OnlineMigrator struct {
	r5      *raid5.Array
	code    *core.Code56
	rows    int64 // RAID-5 rows covered by the conversion
	stripes int64
	// r6 is the RAID-6 view of the disks, diagonal-parity disk included, that
	// serves the application: the conversion is its rebuild of column p-1.
	r6 *raid6.Array

	// pass walks the stripes: its do is convertStripe, its after stripeDone,
	// and a stripe's bit in it says the stripe's diagonal parities are on the
	// new disk. live says the conversion is running. With its two tallies
	// they are all a write touches here, so a write takes no mu.
	pass            *parallel.Pass
	live            atomic.Bool
	writeInterrupts atomic.Int64
	diagonalUpdates atomic.Int64

	mu       sync.Mutex
	started  bool //c56:guardedby mu
	finished bool //c56:guardedby mu
	done     chan struct{}
	// onProgress, if set, is called (without locks held) after each
	// stripe completes.
	onProgress func(converted, total int64) //c56:guardedby mu
	// journal, if attached, records begin/watermark/finish intent records so a
	// crash mid-migration reopens to a resumable state (nil in memory).
	journal *Journal //c56:guardedby mu
	// faultsRepaired is MigrationStats.FaultsRepaired.
	faultsRepaired int64 //c56:guardedby mu

	// tel is rebound only before Start (see SetTelemetry), so the running
	// migration reads it without the lock.
	tel onlineTel
	// span is the migrate.online root span, set once by StartContext.
	span *telemetry.Span //c56:guardedby mu
}

// onlineTel holds the migrator's bound telemetry instruments (see README
// "Telemetry" for the metric reference).
type onlineTel struct {
	tr           *telemetry.Tracer
	converted    *telemetry.Counter // stripes converted
	interrupts   *telemetry.Counter // app writes served while the conversion ran
	diagUpd      *telemetry.Counter // writes that folded into a diagonal parity
	appReads     *telemetry.Counter // application reads served
	appWrites    *telemetry.Counter // application writes served
	faultRepairs *telemetry.Counter // faulty blocks healed by the conversion
	xors         *telemetry.Counter // conversion XORs (Equation 2 evaluations)
	progress     *telemetry.Gauge   // contiguous converted-stripe watermark
	// stripeRate feeds the live stripes/s windows behind
	// ProgressReport.RecentStripesPerSec and the migrate.stripe_rate series.
	stripeRate *telemetry.Rate
}

func bindOnlineTel(reg *telemetry.Registry, tr *telemetry.Tracer) onlineTel {
	return onlineTel{
		tr:           tr,
		converted:    reg.Counter("migrate.stripes_converted"),
		interrupts:   reg.Counter("migrate.write_interrupts"),
		diagUpd:      reg.Counter("migrate.diagonal_updates"),
		appReads:     reg.Counter("migrate.app_reads"),
		appWrites:    reg.Counter("migrate.app_writes"),
		faultRepairs: reg.Counter("migrate.fault_repairs"),
		xors:         reg.Counter("migrate.conversion_xors"),
		progress:     reg.Gauge("migrate.progress_stripes"),
		stripeRate:   reg.Rate("migrate.stripe_rate"),
	}
}

// MigrationStats counts the online conversion's interactions with the
// foreground workload.
type MigrationStats struct {
	// StripesConverted counts completed stripe conversions.
	StripesConverted int64
	// StripesRedone is always 0: a write and the conversion of its stripe
	// exclude each other, so no stripe is converted twice. (The field stays
	// for the benchmark, which reads it.)
	StripesRedone int64
	// WriteInterrupts counts application writes served while the
	// conversion was active.
	WriteInterrupts int64
	// DiagonalUpdates counts writes that also updated the diagonal parity
	// of a stripe converted before they began.
	DiagonalUpdates int64
	// FaultsRepaired counts blocks the conversion found unreadable (latent
	// or persistent-transient errors), decoded from the stripe's redundancy,
	// and rewrote in place.
	FaultsRepaired int64
}

// NewOnlineMigrator prepares a migration of the given RAID-5 array to a
// Code 5-6 RAID-6. rows is the number of RAID-5 stripe rows holding data;
// it must be a positive multiple of p-1 (one Code 5-6 stripe absorbs p-1
// rows). The array must have p-1 disks, p prime. LeftAsymmetric uses the
// paper's default Code 5-6, RightAsymmetric the mirrored orientation of the
// paper's Fig. 7 — either way the existing parities are already in place.
// The symmetric layouts are refused: raid6 numbers a stripe's data cells
// row-major, so it would hand back another block for half the addresses.
//
// It adds the diagonal-parity disk (Algorithm 2, Step 2) — unless a resumed
// migration already has it — and marks its blocks stale from the first row
// of stripe 0 (ResumeFrom moves the mark to its stripe).
func NewOnlineMigrator(a *raid5.Array, rows int64) (*OnlineMigrator, error) {
	p := a.M() + 1
	if !layout.IsPrime(p) {
		return nil, fmt.Errorf("migrate: %d disks + 1 = %d is not prime; use NewVirtualPlan for arbitrary sizes", a.M(), p)
	}
	orient := core.Left
	switch a.Layout() {
	case raid5.RightAsymmetric:
		orient = core.Right
	case raid5.LeftSymmetric, raid5.RightSymmetric:
		return nil, fmt.Errorf("migrate: a %s RAID-5 cannot be migrated: the RAID-6 it becomes numbers data blocks row-major, the asymmetric order, and would permute this array's logical blocks", a.Layout())
	}
	if rows <= 0 || rows%int64(p-1) != 0 {
		return nil, fmt.Errorf("migrate: rows = %d must be a positive multiple of %d", rows, p-1)
	}
	code, err := core.NewOriented(p, orient)
	if err != nil {
		return nil, err
	}
	disks := a.Disks()
	if disks.Len() < p {
		if _, err := disks.Attach(); err != nil {
			return nil, fmt.Errorf("migrate: adding diagonal-parity disk: %w", err)
		}
	}
	r6, err := raid6.Wrap(code, disks)
	if err != nil {
		return nil, err
	}
	m := &OnlineMigrator{
		r5:      a,
		code:    code,
		rows:    rows,
		stripes: rows / int64(p-1),
		r6:      r6,
		done:    make(chan struct{}),
		tel:     bindOnlineTel(nil, nil),
	}
	m.pass = parallel.NewPass(m.stripes, m.convertStripe, m.stripeDone)
	m.markStaleFrom(0)
	return m, nil
}

// markStaleFrom declares the diagonal parities from stripe st on not yet
// written, and those below written: the conversion's watermark on the disk.
func (m *OnlineMigrator) markStaleFrom(st int64) {
	m.r5.Disks().Disk(m.code.P() - 1).MarkStale(st * int64(m.code.P()-1))
}

// SetTelemetry rebinds the migrator's counters, progress gauge and tracer.
// Pass nil for either argument to use the process-wide defaults. Call
// before Start.
func (m *OnlineMigrator) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tel = bindOnlineTel(reg, tr)
}

// Code returns the Code 5-6 instance used by the migration.
func (m *OnlineMigrator) Code() *core.Code56 { return m.code }

// BlockSize returns the underlying array's block size. The migrator serves
// application I/O in whole blocks of this size (see Read / Write).
func (m *OnlineMigrator) BlockSize() int { return m.r5.BlockSize() }

// StripeConversionBytes returns how many bytes of disk I/O converting one
// stripe costs: the data blocks each diagonal chain reads plus the parity
// block it writes — the unit a bandwidth timetable divides a target rate by
// to derive the per-stripe throttle sleep.
func (m *OnlineMigrator) StripeConversionBytes() int64 {
	p := m.code.P()
	blocks := 0
	for i := 0; i < p-1; i++ {
		blocks += len(m.code.Chains()[p-1+i].Covers) + 1
	}
	return int64(blocks) * int64(m.r5.BlockSize())
}

// SetThrottle makes each conversion worker sleep d between stripes,
// bounding its interference with foreground I/O; zero or less disables it.
// It is safe to call while the migration runs, and a change takes effect at
// once: workers sleeping out the old interval are woken and pace their next
// stripes by the new one, so a faster rate never waits out a stale sleep.
func (m *OnlineMigrator) SetThrottle(d time.Duration) { m.pass.SetThrottle(d) }

// Throttle returns the current per-stripe pacing sleep (0 = unthrottled).
func (m *OnlineMigrator) Throttle() time.Duration { return m.pass.Report().Throttle }

// SetParallelism sets how many stripes are converted concurrently (default
// 1, the paper's single conversion thread): parallelism trades foreground
// interference for conversion speed. Call before Start.
func (m *OnlineMigrator) SetParallelism(k int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	if k < 1 {
		return fmt.Errorf("migrate: parallelism %d must be >= 1", k)
	}
	m.pass.SetWorkers(k)
	return nil
}

// SetProgressFunc installs a callback invoked (without locks held) after
// every converted stripe. Install before Start.
func (m *OnlineMigrator) SetProgressFunc(fn func(converted, total int64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onProgress = fn
}

// ResumeFrom sets the conversion cursor for resuming an interrupted migration:
// stripes below it are taken as converted, their diagonal parities written,
// and those from it on as stale. Call it before Start and any I/O.
func (m *OnlineMigrator) ResumeFrom(stripe int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	if stripe < 0 || stripe > m.stripes {
		return fmt.Errorf("migrate: resume stripe %d outside [0,%d]", stripe, m.stripes)
	}
	m.pass.ResumeFrom(stripe)
	m.markStaleFrom(stripe)
	return nil
}

// Pause blocks the conversion at the next stripe boundaries and returns
// once every conversion worker is parked (or the conversion finished).
// Application I/O continues; Resume restarts the conversion.
func (m *OnlineMigrator) Pause() {
	m.pass.Pause()
	m.event("migrate.pause")
}

// Resume releases a Pause.
func (m *OnlineMigrator) Resume() {
	m.event("migrate.resume")
	m.pass.Resume()
}

// event records name on the migration's span, with the watermark.
func (m *OnlineMigrator) event(name string) {
	m.mu.Lock()
	span := m.span
	m.mu.Unlock()
	span.Event(name, telemetry.A("at_stripe", m.pass.Report().Done))
}

// Start launches the conversion goroutine (Algorithm 2, Step 3).
func (m *OnlineMigrator) Start() error {
	return m.StartContext(context.Background())
}

// StartContext is Start bound to a context: when ctx is cancelled the
// conversion workers stop at the next stripe boundary and Wait returns
// ctx's error. Cancellation never corrupts the array — the watermark
// (Progress) only advances over fully converted stripes, and application
// reads and writes keep working throughout. A cancelled migration is resumed
// by a new migrator's ResumeFrom(watermark); diagonal blocks written above it
// are simply rewritten. A StartContext that fails has started nothing and may
// be called again.
func (m *OnlineMigrator) StartContext(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	if m.journal != nil {
		err := m.journal.begin(BeginRecord{
			Rows:      m.rows,
			BlockSize: m.r5.BlockSize(),
			DataDisks: m.code.P() - 1,
			Layout:    m.r5.Layout().String(),
		})
		if err != nil {
			return err
		}
	}
	rep := m.pass.Report()
	m.span = m.tel.tr.StartSpan("migrate.online",
		telemetry.A("stripes", m.stripes),
		telemetry.A("disks", m.code.P()-1),
		telemetry.A("resume_from", rep.Done),
		telemetry.A("parallelism", rep.Workers))
	m.started = true
	m.live.Store(true)
	go m.run(ctx)
	return nil
}

// Wait blocks until the conversion thread finishes and returns its error.
func (m *OnlineMigrator) Wait() error {
	<-m.done
	return m.pass.Report().Err
}

// Progress returns how many of the total stripes are fully converted.
func (m *OnlineMigrator) Progress() (converted, total int64) {
	rep := m.pass.Report()
	return rep.Done, rep.Total
}

// ProgressReport is a point-in-time view of a running (or finished)
// migration: the conversion pass's report and the interaction counters.
type ProgressReport struct {
	// Converted is the contiguous converted-stripe watermark; Total is
	// the migration's stripe count.
	Converted, Total int64
	// Started and Finished report the migration's lifecycle state.
	Started, Finished bool
	// Paused reports an explicit Pause() in effect.
	Paused bool
	// Workers is how many conversion goroutines are still running; Parked
	// is how many of them are waiting out a Pause.
	Workers, Parked int
	// Error is the terminal error's message, empty while healthy (a string,
	// so the report serializes over the observability plane's /progress).
	Error string
	// Elapsed is the time since Start (frozen once the conversion ends).
	Elapsed time.Duration
	// StripesPerSec is the mean conversion rate since Start (0 before it);
	// the stripes a resumed migration found converted do not count.
	StripesPerSec float64
	// RecentStripesPerSec is the smoothed current conversion rate (the
	// migrate.stripe_rate EWMA): unlike the mean it reacts within
	// seconds to a throttle change or a pause.
	RecentStripesPerSec float64
	// ETA estimates the remaining conversion time from the mean rate;
	// zero when unknown (not started or no stripes converted yet).
	ETA time.Duration
	// Stats snapshots the interaction counters at the same instant.
	Stats MigrationStats
}

// State names the migration's lifecycle phase: "pending", "running",
// "paused", "finished" or "failed". It is what the observability plane's
// health checker and the watch mode display.
func (p ProgressReport) State() string {
	switch {
	case !p.Started:
		return "pending"
	case p.Error != "":
		return "failed"
	case p.Finished:
		return "finished"
	case p.Paused:
		return "paused"
	default:
		return "running"
	}
}

// Fraction returns the converted fraction in [0, 1].
func (p ProgressReport) Fraction() float64 {
	if p.Total == 0 {
		return 1
	}
	return float64(p.Converted) / float64(p.Total)
}

// ProgressSnapshot returns a progress report for live reporting (the CLIs'
// percent / stripes-per-second / ETA line).
func (m *OnlineMigrator) ProgressSnapshot() ProgressReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := m.pass.Report()
	r := ProgressReport{
		Converted:     rep.Done,
		Total:         rep.Total,
		Started:       m.started,
		Finished:      m.finished,
		Paused:        rep.Paused,
		Workers:       rep.Workers,
		Parked:        rep.Parked,
		Elapsed:       rep.Elapsed,
		StripesPerSec: rep.PerSec,
		ETA:           rep.ETA,
		Stats: MigrationStats{
			StripesConverted: rep.Ran,
			WriteInterrupts:  m.writeInterrupts.Load(),
			DiagonalUpdates:  m.diagonalUpdates.Load(),
			FaultsRepaired:   m.faultsRepaired,
		},
	}
	if rep.Err != nil {
		r.Error = rep.Err.Error()
	}
	if m.started {
		r.RecentStripesPerSec = m.tel.stripeRate.Snapshot().EWMA
	}
	return r
}

// Stats returns a snapshot of the migration's interaction counters.
func (m *OnlineMigrator) Stats() MigrationStats { return m.ProgressSnapshot().Stats }

// Result wraps the converted disks as a RAID-6 array. Call after Wait.
func (m *OnlineMigrator) Result() (*raid6.Array, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.finished {
		return nil, errors.New("migrate: conversion not finished")
	}
	if err := m.pass.Report().Err; err != nil {
		return nil, err
	}
	return m.r6, nil
}

// run is the conversion thread of Algorithm 2: the pass and, once every
// stripe is converted, the journal's commit.
func (m *OnlineMigrator) run(ctx context.Context) {
	defer close(m.done)
	err := m.pass.Run(ctx)
	m.mu.Lock()
	j, span := m.journal, m.span
	m.mu.Unlock()
	switch {
	case err == nil && j != nil:
		// The final checkpoint, the finish record, and the atomic meta flip
		// to RAID-6 (all idempotent; a crash inside redoes the remainder on
		// the next ResumeMigration).
		if err = j.finish(m.stripes); err != nil {
			m.pass.Fail(err)
		}
	case err != nil && errors.Is(err, ctx.Err()):
		m.event("migrate.cancelled")
	}
	m.live.Store(false)
	m.mu.Lock()
	m.finished = true
	m.mu.Unlock()
	pr := m.ProgressSnapshot()
	m.tel.progress.Set(pr.Converted) // stripeDone's watermarks may land out of order
	st := pr.Stats
	attrs := []telemetry.Attr{
		telemetry.A("stripes_converted", st.StripesConverted),
		telemetry.A("write_interrupts", st.WriteInterrupts),
		telemetry.A("diagonal_updates", st.DiagonalUpdates),
	}
	if err != nil {
		attrs = append(attrs, telemetry.A("error", err.Error()))
	}
	span.End(attrs...)
}

// stripeDone follows each converted stripe, with the watermark as of it:
// telemetry, the journal's checkpoint, the progress callback.
func (m *OnlineMigrator) stripeDone(watermark int64) error {
	m.tel.converted.Inc()
	m.tel.stripeRate.Inc()
	m.tel.progress.Set(watermark)
	m.mu.Lock()
	fn, j := m.onProgress, m.journal
	m.mu.Unlock()
	if j != nil {
		// watermark was read before the checkpoint's disk sync, so the
		// journaled watermark never claims unsynced stripes.
		if err := j.maybeCheckpoint(watermark); err != nil {
			return err
		}
	}
	if fn != nil {
		fn(watermark, m.stripes)
	}
	return nil
}

// convertStripe computes and writes the p-1 diagonal parity blocks of one
// stripe (Algorithm 2's conversion thread: read the data blocks, calculate
// the diagonal parity per Equation 2, write it): the RAID-6 view's rebuild of
// column p-1 from its compiled schedule, or, when a read meets a bad sector
// or a transient error, from a decode of the stripe (repair). A fail-stopped
// disk stops the conversion at its watermark; after Replace and Rebuild a new
// migrator resumes from there. All of it, the stripe's bit included, happens
// under the stripe's exclusive lock, so the parity written is that of the
// data on the disks and every later write folds into it.
//
//c56:noalloc
func (m *OnlineMigrator) convertStripe(st int64) error {
	lk := m.r5.Disks().StripeLock(st)
	lk.Lock()
	defer lk.Unlock()
	p := m.code.P()
	diagonal := layout.Columns{}.With(p - 1)
	err := m.r6.RebuildColumnsHeld(st, diagonal)
	if vdisk.IsDegradable(err) && !errors.Is(err, vdisk.ErrFailed) {
		err = m.repair(st, diagonal) //lint:allow noalloc a stripe with a bad sector is decoded whole; the compiled schedule is the steady state
	}
	if err != nil {
		return fmt.Errorf("migrate: converting stripe %d: %w", st, err)
	}
	m.tel.xors.Add(int64((p - 1) * (p - 3))) // Equation 2: a chain of p-2 blocks is p-3 XORs, on either path
	m.pass.Mark(st)
	return nil
}

// repair converts stripe st by decoding it whole (raid6.RepairColumnsHeld),
// which also rewrites the blocks it could not read, so the conversion leaves
// the array healthier than it found it. Stripe held, exclusive.
func (m *OnlineMigrator) repair(st int64, diagonal layout.Columns) error {
	healed, err := m.r6.RepairColumnsHeld(st, diagonal)
	if healed > 0 {
		m.mu.Lock()
		m.faultsRepaired += int64(healed)
		span := m.span
		m.mu.Unlock()
		m.tel.faultRepairs.Add(int64(healed))
		span.Event("migrate.fault_repaired", telemetry.A("stripe", st), telemetry.A("blocks", healed))
	}
	return err
}

// rowOf returns the RAID-5 row of an application block in the migrated region.
func (m *OnlineMigrator) rowOf(logical int64) (int64, error) {
	row, _ := m.r5.Locate(logical)
	if logical < 0 || row >= m.rows {
		return 0, fmt.Errorf("migrate: block %d beyond migrated region (%d rows)", logical, m.rows)
	}
	return row, nil
}

// Read serves an application read (Algorithm 2's online thread): the RAID-6
// view's, which waits for the conversion only to decode on its stripe.
func (m *OnlineMigrator) Read(logical int64, buf []byte) error {
	if _, err := m.rowOf(logical); err != nil {
		return err
	}
	m.tel.appReads.Inc()
	return m.r6.ReadBlock(logical, buf)
}

// Write serves an application write: the RAID-6 view's, a small write beside
// every other one (see OnlineMigrator).
func (m *OnlineMigrator) Write(logical int64, data []byte) error {
	row, err := m.rowOf(logical)
	if err != nil {
		return err
	}
	m.tel.appWrites.Inc()
	if m.live.Load() {
		m.writeInterrupts.Add(1)
		m.tel.interrupts.Inc()
	}
	converted := m.pass.Done(row / int64(m.code.P()-1))
	if err := m.r6.WriteBlock(logical, data); err != nil {
		return err
	}
	if converted {
		m.diagonalUpdates.Add(1)
		m.tel.diagUpd.Inc()
	}
	return nil
}

// Downgrade converts a Code 5-6 RAID-6 back to a RAID-5 (the paper's
// RAID-6→RAID-5 direction): it detaches the diagonal-parity disk and closes
// its store. The remaining disks form the original RAID-5 unchanged.
func Downgrade(a *raid6.Array) error {
	if _, ok := a.Code().(*core.Code56); !ok {
		return fmt.Errorf("migrate: downgrade requires Code 5-6, got %s", a.Code().Name())
	}
	d := a.Disks().RemoveLast()
	if d == nil {
		return errors.New("migrate: empty array")
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("migrate: closing the detached disk: %w", err)
	}
	return nil
}
