// Package raid5 implements a RAID-5 array over the vdisk substrate: the
// starting point of every conversion the paper studies. All four standard
// parity placements are supported; the paper's default is left-asymmetric,
// whose rotation is what Code 5-6's horizontal parity anti-diagonal mirrors.
//
// A RAID-5 is a one-parity code (DESIGN §4.22): this package holds only its md
// address map, as a layout.Code, and raid6's array over that code serves every
// read, write, rebuild and scrub.
//
// Addressing: the array exposes logical data blocks 0..N-1. Logical block L
// lives in stripe row L/(m-1) at in-row position L%(m-1); each row has one
// parity block on the disk chosen by the layout's rotation. A stripe is one
// rotation period, m rows: the p-1 rows of the Code 5-6 stripe these disks
// may become, so the RAID-5, the migrator and the RAID-6 lock the same thing.
package raid5

import (
	"fmt"

	"code56/internal/layout"
	"code56/internal/raid6"
	"code56/internal/vdisk"
)

// Layout selects the parity rotation and data placement convention
// (following the Linux md naming).
type Layout int

const (
	// LeftAsymmetric: parity rotates from the last disk leftward; data
	// fills left-to-right skipping the parity disk. The paper's default.
	LeftAsymmetric Layout = iota
	// LeftSymmetric: parity as LeftAsymmetric; data starts just after the
	// parity disk and wraps (the Linux md default).
	LeftSymmetric
	// RightAsymmetric: parity rotates from the first disk rightward; data
	// fills left-to-right skipping the parity disk.
	RightAsymmetric
	// RightSymmetric: parity as RightAsymmetric; data starts just after
	// the parity disk and wraps.
	RightSymmetric
)

// String returns the md-style layout name.
func (l Layout) String() string {
	switch l {
	case LeftAsymmetric:
		return "left-asymmetric"
	case LeftSymmetric:
		return "left-symmetric"
	case RightAsymmetric:
		return "right-asymmetric"
	case RightSymmetric:
		return "right-symmetric"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ParityDisk returns the disk holding row's parity block in an array of m
// disks.
//
//c56:noalloc
func (l Layout) ParityDisk(m int, row int64) int {
	r := int(row % int64(m))
	if l == LeftAsymmetric || l == LeftSymmetric {
		return m - 1 - r
	}
	return r
}

// DataDisk returns the disk holding in-row data position k (0 <= k < m-1)
// of the given row in an array of m disks.
//
//c56:noalloc
func (l Layout) DataDisk(m int, row int64, k int) int {
	pd := l.ParityDisk(m, row)
	if l == LeftSymmetric || l == RightSymmetric {
		return (pd + 1 + k) % m
	}
	if k < pd {
		return k
	}
	return k + 1
}

// ErrDoubleFailure is returned when an operation cannot complete because a
// row has lost two blocks — two failed disks, or a bad sector beside a lost
// block — the exact scenario RAID-5 cannot survive and the paper's motivation
// for migrating to RAID-6. It is raid6's error under its RAID-5 name.
var ErrDoubleFailure = raid6.ErrTooManyFailures

// code is the RAID-5 of m disks as a layout.Code: an m × m stripe, each row
// one horizontal chain whose parity sits on the layout's ParityDisk and whose
// covers are the row's data disks in md order.
type code struct {
	m      int
	layout Layout
	chains []layout.Chain
}

func newCode(m int, l Layout) (*code, error) {
	if m < 3 {
		return nil, fmt.Errorf("raid5: need at least 3 disks, got %d", m)
	}
	c := &code{m: m, layout: l, chains: make([]layout.Chain, m)}
	for r := range c.chains {
		c.chains[r] = layout.Chain{Kind: layout.ParityH, Parity: layout.Coord{Row: r, Col: l.ParityDisk(m, int64(r))}}
		for k := 0; k < m-1; k++ {
			c.chains[r].Covers = append(c.chains[r].Covers, layout.Coord{Row: r, Col: l.DataDisk(m, int64(r), k)})
		}
	}
	return c, nil
}

func (c *code) Name() string              { return "raid5-" + c.layout.String() }
func (c *code) Geometry() layout.Geometry { return layout.Geometry{Rows: c.m, Cols: c.m} }
func (c *code) Chains() []layout.Chain    { return c.chains }
func (c *code) FaultTolerance() int       { return 1 }
func (c *code) Kind(row, col int) layout.Kind {
	if col == c.layout.ParityDisk(c.m, int64(row)) {
		return layout.ParityH
	}
	return layout.Data
}

// DataOrder lists the data cells in logical order, row by row and each row in
// md order, for layout.DataElements: a symmetric layout does not number a
// row's blocks left to right.
func (c *code) DataOrder() []layout.Coord {
	out := make([]layout.Coord, 0, c.m*(c.m-1))
	for _, ch := range c.chains {
		out = append(out, ch.Covers...)
	}
	return out
}

// Array is a RAID-5 array of m >= 3 disks: the raid6.Array over its code, with
// the md address map beside it.
type Array struct {
	*raid6.Array
	m      int
	layout Layout
}

// New creates a RAID-5 array over m fresh disks.
func New(m, blockSize int, l Layout) (*Array, error) {
	c, err := newCode(m, l)
	if err != nil {
		return nil, err
	}
	return &Array{Array: raid6.New(c, blockSize), m: m, layout: l}, nil
}

// Wrap builds a RAID-5 view over existing disks (e.g. reopened from a durable
// directory). The first m disks serve the RAID-5; extra disks — such as a
// partially filled diagonal-parity disk from an interrupted migration — are
// left untouched.
func Wrap(disks *vdisk.Array, m int, l Layout) (*Array, error) {
	c, err := newCode(m, l)
	if err != nil {
		return nil, err
	}
	r6, err := raid6.Wrap(c, disks)
	if err != nil {
		return nil, err
	}
	return &Array{Array: r6, m: m, layout: l}, nil
}

// SetRotation hides raid6.Array's and refuses: the layout is a RAID-5's
// rotation, and Locate and a migration read the disks by it.
func (a *Array) SetRotation(on bool) error {
	if on {
		return fmt.Errorf("raid5: a %s RAID-5 cannot be rotated: its layout places the parity", a.layout)
	}
	return nil
}

// M returns the number of disks.
func (a *Array) M() int { return a.m }

// Layout returns the parity placement convention.
func (a *Array) Layout() Layout { return a.layout }

// ParityDisk returns the disk holding row's parity block.
//
//c56:noalloc
func (a *Array) ParityDisk(row int64) int { return a.layout.ParityDisk(a.m, row) }

// DataDisk returns the disk holding in-row data position k (0 <= k < m-1)
// of the given row.
//
//c56:noalloc
func (a *Array) DataDisk(row int64, k int) int { return a.layout.DataDisk(a.m, row, k) }

// Locate maps a logical data block to its (row, disk) location.
//
//c56:noalloc
func (a *Array) Locate(logical int64) (row int64, disk int) {
	row = logical / int64(a.m-1)
	return row, a.DataDisk(row, int(logical%int64(a.m-1)))
}
