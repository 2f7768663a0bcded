// Package raid6 implements a RAID-6 array driver over any layout.Code: it
// maps logical data blocks onto stripes of the code's geometry, maintains
// parities on writes, serves degraded reads under one or two disk failures,
// and rebuilds replaced disks. The migration engine produces arrays driven
// by this package (with Code 5-6 as the code) from RAID-5 arrays.
package raid6

import (
	"errors"
	"fmt"

	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// ErrTooManyFailures is returned when an operation needs more surviving
// columns than are available.
var ErrTooManyFailures = errors.New("raid6: failures exceed fault tolerance")

// Array is a RAID-6 array using an erasure code over vdisk-backed disks.
// Disk i of the array stores column i of every stripe; stripe s occupies
// disk blocks [s*Rows, (s+1)*Rows).
type Array struct {
	code      layout.Code
	disks     *vdisk.Array
	blockSize int
	geom      layout.Geometry
	dataCells []layout.Coord
	rotate    bool
	tel       tel
	// encodeXORs is the XOR count of one full-stripe encode: for each
	// chain, members fold into the parity with len(Covers)-1 XORs.
	encodeXORs int64

	// The fields below are derived caches that keep the per-stripe hot
	// paths allocation-free: the code's chains and each cell's update cascade
	// are resolved once (Code.Chains may rebuild its slice per call and
	// layout.ChainsCovering allocates), the encoder carries the
	// pre-resolved chain order plus pooled scratch, the decoder the compiled
	// recovery plans of every column set met so far, and stripes for
	// load/encode/scrub cycles are recycled instead of allocated.
	chains []layout.Chain
	// cascade[i] lists the chains whose parity absorbs a change of cell i
	// (geom.Index order): the chains covering the cell, then those covering
	// their parities, and so on (RDP's diagonals cover the row-parity column;
	// HDP's horizontal chains cover the anti-diagonal parities). The chain
	// graph is acyclic, so the list is finite; a chain reached along two
	// paths is listed twice, and its parity absorbs the delta twice.
	cascade [][]int
	enc     *layout.Encoder
	dec     *layout.Decoder
	stripes *layout.StripePool
}

// tel holds the array's bound telemetry instruments (see README
// "Telemetry" for the metric reference).
type tel struct {
	tr            *telemetry.Tracer
	blockReads    *telemetry.Counter // ReadBlock/ReadCell calls served
	blockWrites   *telemetry.Counter // WriteBlock calls served
	degradedReads *telemetry.Counter // reads answered by reconstruction
	degradedFast  *telemetry.Counter // degraded reads served from a recovery plan
	parityUpdates *telemetry.Counter // parity cells written
	xors          *telemetry.Counter // block XOR operations
	stripeEncodes *telemetry.Counter // full-stripe parity generations
	rebuilt       *telemetry.Counter // blocks rebuilt onto replaced disks
	scrubRepairs  *telemetry.Counter // blocks rewritten by scrub repair
}

func bindTel(reg *telemetry.Registry, tr *telemetry.Tracer) tel {
	return tel{
		tr:            tr,
		blockReads:    reg.Counter("raid6.block_reads"),
		blockWrites:   reg.Counter("raid6.block_writes"),
		degradedReads: reg.Counter("raid6.degraded_reads"),
		degradedFast:  reg.Counter("raid6.degraded_fast_path"),
		parityUpdates: reg.Counter("raid6.parity_updates"),
		xors:          reg.Counter("raid6.xors"),
		stripeEncodes: reg.Counter("raid6.stripe_encodes"),
		rebuilt:       reg.Counter("raid6.blocks_rebuilt"),
		scrubRepairs:  reg.Counter("raid6.scrub_repairs"),
	}
}

func encodeXORCount(code layout.Code) int64 {
	var n int64
	for _, ch := range code.Chains() {
		if len(ch.Covers) > 1 {
			n += int64(len(ch.Covers) - 1)
		}
	}
	return n
}

// New creates a RAID-6 array for the code over fresh disks.
func New(code layout.Code, blockSize int) *Array {
	g := code.Geometry()
	return newArray(code, vdisk.NewArray(g.Cols, blockSize), blockSize)
}

// newArray builds an Array and its derived hot-path caches.
func newArray(code layout.Code, disks *vdisk.Array, blockSize int) *Array {
	g := code.Geometry()
	return &Array{
		code:       code,
		disks:      disks,
		blockSize:  blockSize,
		geom:       g,
		dataCells:  layout.DataElements(code),
		tel:        bindTel(nil, nil),
		encodeXORs: encodeXORCount(code),
		chains:     code.Chains(),
		cascade:    updateCascades(code),
		enc:        layout.NewEncoder(code),
		dec:        layout.NewDecoder(code),
		stripes:    layout.NewStripePool(g, blockSize),
	}
}

// updateCascades resolves Array.cascade for every cell of the code.
func updateCascades(code layout.Code) [][]int {
	g := code.Geometry()
	chains := code.Chains()
	cascade := make([][]int, g.Elements())
	for i := range cascade {
		for queue := []layout.Coord{g.CoordOf(i)}; len(queue) > 0; queue = queue[1:] {
			for _, ci := range layout.ChainsCovering(code, queue[0]) {
				cascade[i] = append(cascade[i], ci)
				queue = append(queue, chains[ci].Parity)
			}
		}
	}
	return cascade
}

// SetTelemetry rebinds the array's counters and tracer (and those of the
// underlying disks). Pass nil for either argument to use the process-wide
// defaults.
func (a *Array) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	a.tel = bindTel(reg, tr)
	a.disks.SetTelemetry(reg, tr)
}

// Wrap builds an Array over an existing disk array (the migration engine's,
// a RAID-5's). Its first Geometry().Cols disks hold the code's columns; any
// past them — a RAID-5's half-filled diagonal-parity disk mid-migration — are
// left alone.
func Wrap(code layout.Code, disks *vdisk.Array) (*Array, error) {
	g := code.Geometry()
	if disks.Len() < g.Cols {
		return nil, fmt.Errorf("raid6: %d disks for a %d-column code", disks.Len(), g.Cols)
	}
	return newArray(code, disks, disks.BlockSize()), nil
}

// Code returns the erasure code in use.
func (a *Array) Code() layout.Code { return a.code }

// Disks exposes the underlying disk array.
//
//c56:noalloc
func (a *Array) Disks() *vdisk.Array { return a.disks }

// BlockSize returns the block size in bytes.
func (a *Array) BlockSize() int { return a.blockSize }

// DataPerStripe returns the number of logical data blocks per stripe.
func (a *Array) DataPerStripe() int { return len(a.dataCells) }

// Locate maps a logical data block to its stripe index and cell coordinate.
//
//c56:noalloc
func (a *Array) Locate(logical int64) (stripe int64, cell layout.Coord) {
	n := int64(len(a.dataCells))
	return logical / n, a.dataCells[logical%n]
}

// blockAddr returns the disk block address of cell c in stripe s.
//
//c56:noalloc
func (a *Array) blockAddr(stripe int64, c layout.Coord) int64 {
	return stripe*int64(a.geom.Rows) + int64(c.Row)
}

// readCell reads one cell into buf directly from its disk (honoring the
// per-stripe rotation when enabled).
//
//c56:noalloc
func (a *Array) readCell(stripe int64, c layout.Coord, buf []byte) error {
	return a.diskFor(stripe, c.Col).Read(a.blockAddr(stripe, c), buf)
}

// writeCell writes one cell.
//
//c56:noalloc
func (a *Array) writeCell(stripe int64, c layout.Coord, data []byte) error {
	return a.diskFor(stripe, c.Col).Write(a.blockAddr(stripe, c), data)
}

// swapCell stores data as one cell and hands back the cell's old contents.
//
//c56:noalloc
func (a *Array) swapCell(stripe int64, c layout.Coord, data, old []byte) error {
	return a.diskFor(stripe, c.Col).Swap(a.blockAddr(stripe, c), data, old)
}

// xorCell folds delta into one cell where it lies.
//
//c56:noalloc
func (a *Array) xorCell(stripe int64, c layout.Coord, delta []byte) error {
	return a.diskFor(stripe, c.Col).Xor(a.blockAddr(stripe, c), delta)
}

// failedColumns returns the failed disks. It stops at layout.MaxColumns of
// them, one past any code's fault tolerance: beyond that the set only has to
// say "too many".
//
//c56:noalloc
func (a *Array) failedColumns() layout.Columns {
	var f layout.Columns
	for i := 0; i < a.geom.Cols && f.Len() < layout.MaxColumns; i++ {
		if a.disks.Disk(i).Failed() {
			f = f.With(i)
		}
	}
	return f
}

// readColumn reads column col of the stripe into s with one ranged disk
// call: a column's rows are contiguous on its disk.
//
//c56:noalloc
func (a *Array) readColumn(stripe int64, col int, s *layout.Stripe) error {
	return a.diskFor(stripe, col).ReadBlocks(a.blockAddr(stripe, layout.Coord{Col: col}), s.Column(col))
}

// writeColumn writes column col of s to the stripe with one ranged disk call.
//
//c56:noalloc
func (a *Array) writeColumn(stripe int64, col int, s *layout.Stripe) error {
	return a.diskFor(stripe, col).WriteBlocks(a.blockAddr(stripe, layout.Coord{Col: col}), s.Column(col))
}

// loadStripe reads every column of stripe s from non-failed disks and returns
// the stripe plus the erasure set of unreadable cells; those whose read
// returned ErrLatent are also appended to latent, unless it is nil. The stripe
// comes from the array's pool — callers hand it back with a.stripes.Put when
// done. The erasure set is nil while the stripe is fully readable, so the
// healthy path allocates nothing.
//
//c56:noalloc
func (a *Array) loadStripe(stripe int64, latent *[]layout.Coord) (*layout.Stripe, layout.ErasureSet, error) {
	s := a.stripes.Get()
	var es layout.ErasureSet
	for j := 0; j < a.geom.Cols; j++ {
		var err error
		if es, err = a.loadColumn(stripe, j, s, es, latent); err != nil {
			a.stripes.Put(s)
			return nil, nil, err
		}
	}
	return s, es, nil
}

// loadColumn reads one column of the stripe into s and adds its unreadable
// cells to es. A fail-stopped disk erases the whole column; a column that
// fails on a bad sector, or on a block not yet rebuilt, is read again cell by
// cell, so only the cells that are really unreadable are erased.
//
//c56:noalloc
func (a *Array) loadColumn(stripe int64, col int, s *layout.Stripe, es layout.ErasureSet, latent *[]layout.Coord) (layout.ErasureSet, error) {
	colErr := a.readColumn(stripe, col, s)
	if colErr == nil || !vdisk.IsDegradable(colErr) {
		return es, colErr
	}
	diskFailed := errors.Is(colErr, vdisk.ErrFailed)
	for r := 0; r < a.geom.Rows; r++ {
		c := layout.Coord{Row: r, Col: col}
		if !diskFailed {
			err := a.readCell(stripe, c, s.Block(c))
			if err == nil {
				continue
			}
			if !vdisk.IsDegradable(err) {
				return es, err
			}
			if latent != nil && errors.Is(err, vdisk.ErrLatent) {
				*latent = append(*latent, c) //lint:allow noalloc only scrub keeps this list, and only of a stripe with bad sectors
			}
		}
		s.Zero(c)
		if es == nil {
			es = make(layout.ErasureSet) //lint:allow noalloc erasure bookkeeping exists only once cells are unreadable
		}
		es[c] = true //lint:allow noalloc erasure bookkeeping exists only once cells are unreadable
	}
	return es, nil
}

// ReadBlock reads logical data block L, reconstructing if the holding disk
// (or a needed block) is unavailable (see degradedRead).
//
//c56:noalloc
func (a *Array) ReadBlock(logical int64, buf []byte) error {
	a.tel.blockReads.Inc()
	stripe, cell := a.Locate(logical)
	err := a.readCell(stripe, cell, buf)
	if err == nil {
		return nil
	}
	if !vdisk.IsDegradable(err) {
		return err
	}
	return a.degradedRead(stripe, cell, buf)
}

// ReadCell reads an arbitrary stripe cell (data or parity), reconstructing
// if the cell's disk is unavailable. Migration tooling uses it to serve
// RAID-5-addressed blocks through the RAID-6 redundancy.
func (a *Array) ReadCell(stripe int64, cell layout.Coord, buf []byte) error {
	a.tel.blockReads.Inc()
	err := a.readCell(stripe, cell, buf)
	if err == nil {
		return nil
	}
	if !vdisk.IsDegradable(err) {
		return err
	}
	return a.degradedRead(stripe, cell, buf)
}

// degradedRead serves a read whose direct cell access failed, from the
// recovery plan of the lost columns (see lostColumns) plus the cell's own: it
// reads only the surviving cells whose XOR is the cell — its stretch of the
// recovery chains, a run of adjacent rows of a column per disk call — and
// folds them into buf. With one column lost that is one of the cell's
// shortest chains, p-2 reads and p-3 XORs in Code 5-6, the paper's
// single-block decode bound; the chain may be diagonal, which is why a disk
// stale in the stripe counts as lost. If a source turns out unreadable, or the
// columns have no plan (more of them than the code tolerates, or a pattern
// peeling cannot solve), it falls back to loading the whole stripe and running
// the full decoder on exactly the unreadable cells; the cell is served once
// decoded, whatever else of the stripe is not. It holds the stripe exclusive:
// its sources must not lie either side of a small write.
//
//c56:noalloc
func (a *Array) degradedRead(stripe int64, cell layout.Coord, buf []byte) error {
	a.tel.degradedReads.Inc()
	lk := a.disks.StripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()
	if plan := a.dec.ColumnPlan(a.lostColumns(stripe, cell.Col)); plan != nil {
		r := runs.Get().(*run)
		defer runs.Put(r)
		if r.scheds[0] = plan.SourceRuns(cell); r.scheds[0] != nil && a.fold(stripe, 1, r, buf) == nil {
			folds := r.scheds[0]
			xors := int64(-1) // the XOR of n sources is n-1 XORs
			for i := range folds {
				for _, l := range folds[i].Runs {
					xors += int64(l.N)
				}
			}
			a.tel.xors.Add(xors)
			a.tel.degradedFast.Inc()
			return nil
		}
	}
	s, es, err := a.loadStripe(stripe, nil)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if _, err := a.dec.Reconstruct(s, es); err != nil && es[cell] { //lint:allow noalloc the fallback decodes the whole stripe; reads served from a plan are the steady state
		return fmt.Errorf("%w: %w", ErrTooManyFailures, err)
	}
	copy(buf, s.Block(cell))
	return nil
}

// lostColumns returns col and the logical columns the stripe has on disks
// that cannot serve it: failed ones, and ones with a block of the stripe not
// yet rebuilt (a replaced disk, the migrator's diagonal-parity disk above its
// watermark). It returns the empty set when the result would not fit, which
// no plan serves either.
//
//c56:noalloc
func (a *Array) lostColumns(stripe int64, col int) layout.Columns {
	cols := layout.Columns{}.With(col)
	base, rows := a.blockAddr(stripe, layout.Coord{}), int64(a.geom.Rows)
	for i := 0; i < a.geom.Cols; i++ {
		if d := a.disks.Disk(i); d.Failed() || d.Stale(base, rows) {
			c := a.colOnDisk(stripe, i)
			if !cols.Has(c) && cols.Len() == layout.MaxColumns {
				return layout.Columns{}
			}
			cols = cols.With(c)
		}
	}
	return cols
}

// WriteBlock writes logical data block L: writePartialStripe of one block.
//
//c56:noalloc
func (a *Array) WriteBlock(logical int64, data []byte) error {
	if len(data) != a.blockSize {
		return fmt.Errorf("raid6: write of %d bytes, want %d", len(data), a.blockSize)
	}
	a.tel.blockWrites.Inc()
	n := int64(len(a.dataCells))
	return a.writePartialStripe(logical/n, logical%n, data)
}

// EncodeStripe recomputes and writes all parities of stripe s from its data
// cells (full-stripe parity generation).
//
//c56:noalloc
func (a *Array) EncodeStripe(stripe int64) error {
	lk := a.disks.StripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()
	s, es, err := a.loadStripe(stripe, nil)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if len(es) > 0 {
		return fmt.Errorf("%w: cannot encode with failures present", ErrTooManyFailures)
	}
	a.enc.Encode(s)
	a.tel.stripeEncodes.Inc()
	a.tel.xors.Add(a.encodeXORs)
	for _, ch := range a.chains {
		if err := a.writeCell(stripe, ch.Parity, s.Block(ch.Parity)); err != nil {
			return err
		}
		a.tel.parityUpdates.Inc()
	}
	return nil
}

// VerifyStripe reports whether every parity chain of stripe s holds.
func (a *Array) VerifyStripe(stripe int64) (bool, error) {
	lk := a.disks.StripeLock(stripe)
	lk.Lock()
	s, es, err := a.loadStripe(stripe, nil)
	lk.Unlock()
	if err != nil {
		return false, err
	}
	defer a.stripes.Put(s)
	if len(es) > 0 {
		return false, fmt.Errorf("%w: cannot verify with failures present", ErrTooManyFailures)
	}
	return a.enc.Verify(s), nil
}
