package migrate

import (
	"context"
	"fmt"
	"math/rand"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// Executor replays a Plan against simulated disks, so that (a) the plan's
// I/O accounting is validated against real per-disk counters and (b) the
// conversion's correctness is validated by verifying every resulting RAID-6
// stripe and the integrity of all user data.
type Executor struct {
	plan      *Plan
	blockSize int
	disks     *vdisk.Array
	geom      layout.Geometry
	// want remembers every source data block for post-conversion
	// integrity checks, keyed by stripe and cell.
	want map[int]map[layout.Coord][]byte

	reg *telemetry.Registry
	tr  *telemetry.Tracer
}

// SetTelemetry rebinds the executor's counters and tracer (and those of
// its disks). Pass nil for either argument to use the process-wide
// defaults. Call before RunContext.
func (e *Executor) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	e.reg, e.tr = reg, tr
	e.disks.SetTelemetry(reg, tr)
}

// NewExecutor sets up source disks populated with random data laid out per
// the plan's overlays (data blocks plus consistent RAID-5 parities), plus
// the disks the conversion adds. Disk i serves target column Virtual+i.
func NewExecutor(plan *Plan, blockSize int, seed int64) *Executor {
	e := &Executor{
		plan:      plan,
		blockSize: blockSize,
		geom:      plan.Conv.Code.Geometry(),
		want:      make(map[int]map[layout.Coord][]byte),
	}
	e.disks = vdisk.NewArray(e.geom.Cols-plan.Virtual, blockSize)

	r := rand.New(rand.NewSource(seed))
	for st := 0; st < plan.Period; st++ {
		ov := buildOverlay(plan.Conv, st)
		e.want[st] = make(map[layout.Coord][]byte)
		// Per-row parity accumulators.
		parity := make(map[int][]byte)
		for rowIdx, row := range ov.DataRows {
			parity[row] = make([]byte, blockSize)
			_ = rowIdx
		}
		for row, classes := range ov.Class {
			for col, cl := range classes {
				if cl != OldData {
					continue
				}
				b := make([]byte, blockSize)
				r.Read(b)
				c := layout.Coord{Row: row, Col: col}
				e.want[st][c] = b
				e.mustWrite(st, c, b)
				if acc, ok := parity[row]; ok {
					xorblk.Xor(acc, b)
				}
			}
		}
		for i, row := range ov.DataRows {
			c := layout.Coord{Row: row, Col: ov.OldParityCol[i]}
			e.mustWrite(st, c, parity[row])
		}
	}
	e.disks.ResetStats()
	return e
}

// Disks exposes the executor's disk array (for stats assertions).
func (e *Executor) Disks() *vdisk.Array { return e.disks }

func (e *Executor) disk(c layout.Coord) *vdisk.Disk {
	return e.disks.Disk(c.Col - e.plan.Virtual)
}

func (e *Executor) addr(st int, c layout.Coord) int64 {
	return int64(st)*int64(e.geom.Rows) + int64(c.Row)
}

func (e *Executor) mustWrite(st int, c layout.Coord, b []byte) {
	if err := e.disk(c).Write(e.addr(st, c), b); err != nil {
		panic(err)
	}
}

// imageKey identifies a cached block.
type imageKey struct {
	stripe int
	cell   layout.Coord
}

// RunContext executes the plan with independent stripes of each phase
// spread over internal/parallel's pool (parallel.WithWorkers). It returns an
// error if an operation needs a block that is neither scheduled for reading
// nor cached — which would mean the planner's read accounting is wrong.
// Every operation of a plan reads, caches and writes blocks of its own stripe
// only — the conversion-memory cache is keyed by stripe — so stripes within
// a phase commute; phases stay strictly ordered (a barrier between them
// models the plan's "conversion memory drains between phases" rule). The
// telemetry counters and the resulting disk image are the same for any
// worker count.
func (e *Executor) RunContext(ctx context.Context, opts ...parallel.Option) error {
	reads := e.reg.Counter("migrate.exec.reads")
	writes := e.reg.Counter("migrate.exec.writes")
	xors := e.reg.Counter("migrate.exec.xors")

	// Group ops into contiguous phases, then by stripe within each phase
	// (first-appearance order, op order within a stripe preserved).
	type phaseGroup struct {
		phase   int
		stripes [][]Op
	}
	var (
		phases []*phaseGroup
		cur    *phaseGroup
		slot   map[int]int
	)
	for _, op := range e.plan.Ops {
		if cur == nil || op.Phase != cur.phase {
			cur = &phaseGroup{phase: op.Phase}
			slot = make(map[int]int)
			phases = append(phases, cur)
		}
		j, ok := slot[op.Stripe]
		if !ok {
			j = len(cur.stripes)
			slot[op.Stripe] = j
			cur.stripes = append(cur.stripes, nil)
		}
		cur.stripes[j] = append(cur.stripes[j], op)
	}

	for _, pg := range phases {
		phaseSpan := e.tr.StartSpan("migrate.exec.phase",
			telemetry.A("phase", pg.phase),
			telemetry.A("name", e.plan.PhaseNames[pg.phase]),
			telemetry.A("conversion", e.plan.Conv.Label()))
		// One stripe group's working set spans the stripe's rows on every
		// real disk; batch claims to that footprint (parallel.ForEachBatch).
		stripeBytes := int64(e.geom.Rows) * int64(e.disks.Len()) * int64(e.blockSize)
		err := parallel.ForEachBatch(ctx, int64(len(pg.stripes)), stripeBytes, func(i int64) error {
			return e.runStripeOps(pg.stripes[i], reads, writes, xors)
		}, opts...)
		if err != nil {
			phaseSpan.End(telemetry.A("error", err.Error()))
			return err
		}
		phaseSpan.End()
	}
	return nil
}

// runStripeOps executes one stripe's ops of one phase against its private
// conversion-memory cache. Conversion-memory block buffers are rented from
// bufpool for the duration of the stripe; the rented list (not the image
// map) owns them, because OpMigrate stores the same buffer under two keys.
func (e *Executor) runStripeOps(ops []Op, reads, writes, xors *telemetry.Counter) error {
	image := make(map[imageKey][]byte, len(ops))
	rented := make([][]byte, 0, len(ops)+1)
	defer func() {
		for _, b := range rented {
			bufpool.Put(b)
		}
	}()
	zero := bufpool.GetZero(e.blockSize)
	rented = append(rented, zero)
	var contribs [][]byte
	for _, op := range ops {
		for _, c := range op.Reads {
			buf := bufpool.Get(e.blockSize)
			rented = append(rented, buf)
			if err := e.disk(c).Read(e.addr(op.Stripe, c), buf); err != nil {
				return err
			}
			reads.Inc()
			image[imageKey{op.Stripe, c}] = buf
		}
		switch op.Kind {
		case OpReuse:
			// Zero I/O by design.
		case OpInvalidate:
			if err := e.disk(op.Cell).Write(e.addr(op.Stripe, op.Cell), zero); err != nil {
				return err
			}
			writes.Inc()
			image[imageKey{op.Stripe, op.Cell}] = zero
		case OpMigrate:
			b, ok := image[imageKey{op.Stripe, op.From}]
			if !ok {
				return fmt.Errorf("migrate: op needs %v of stripe %d but it is neither read nor cached", op.From, op.Stripe)
			}
			if err := e.disk(op.Cell).Write(e.addr(op.Stripe, op.Cell), b); err != nil {
				return err
			}
			writes.Inc()
			image[imageKey{op.Stripe, op.Cell}] = b
			e.disk(op.From).Trim(e.addr(op.Stripe, op.From))
		case OpGenerate:
			acc := bufpool.Get(e.blockSize)
			rented = append(rented, acc)
			contribs = contribs[:0]
			for _, c := range op.Contribs {
				b, ok := image[imageKey{op.Stripe, c}]
				if !ok {
					return fmt.Errorf("migrate: generate %v needs %v of stripe %d but it is neither read nor cached", op.Cell, c, op.Stripe)
				}
				contribs = append(contribs, b)
			}
			xorblk.XorMulti(acc, contribs...)
			xors.Add(int64(op.XORs))
			if err := e.disk(op.Cell).Write(e.addr(op.Stripe, op.Cell), acc); err != nil {
				return err
			}
			writes.Inc()
			image[imageKey{op.Stripe, op.Cell}] = acc
		}
	}
	return nil
}

// VerifyResult checks that every stripe of the converted array satisfies all
// of the target code's parity chains (virtual cells read as zero) and that
// every source data block survived unchanged. Call after RunContext.
func (e *Executor) VerifyResult() error {
	code := e.plan.Conv.Code
	for st := 0; st < e.plan.Period; st++ {
		s := layout.NewStripe(e.geom, e.blockSize)
		for row := 0; row < e.geom.Rows; row++ {
			for col := e.plan.Virtual; col < e.geom.Cols; col++ {
				c := layout.Coord{Row: row, Col: col}
				if err := e.disk(c).Read(e.addr(st, c), s.Block(c)); err != nil {
					return err
				}
			}
		}
		if !layout.Verify(code, s) {
			return fmt.Errorf("migrate: stripe %d of %s is not a consistent RAID-6 stripe", st, e.plan.Conv.Label())
		}
		for c, want := range e.want[st] {
			if !xorblk.Equal(s.Block(c), want) {
				return fmt.Errorf("migrate: stripe %d: data block %v corrupted by conversion", st, c)
			}
		}
	}
	return nil
}

// DiskIOTotals returns the reads and writes each disk served during the run
// (indexes are real-disk indexes: target column minus Virtual).
func (e *Executor) DiskIOTotals() (reads, writes []int) {
	n := e.disks.Len()
	reads = make([]int, n)
	writes = make([]int, n)
	for i := 0; i < n; i++ {
		s := e.disks.Disk(i).Stats()
		reads[i] = int(s.Reads)
		writes[i] = int(s.Writes)
	}
	return reads, writes
}
