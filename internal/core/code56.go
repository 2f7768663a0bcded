// Package core implements Code 5-6, the MDS RAID-6 array code proposed by
// Wu, He, Li and Guo (ICPP 2015) to accelerate online RAID-5 → RAID-6
// migration.
//
// A Code 5-6 stripe is a (p-1)-row × p-column matrix, p prime. The last
// column holds diagonal parities; inside the remaining (p-1)×(p-1) square
// the horizontal parities sit on the anti-diagonal — exactly where a
// left-asymmetric RAID-5 of p-1 disks keeps its parity. Migration to RAID-6
// therefore adds one disk and computes only the diagonal column.
//
// Encoding equations (paper Eq. 1 and 2; rows and columns are 0-indexed):
//
//	horizontal: C[i][p-2-i] = XOR_{j != p-2-i} C[i][j]          (j in 0..p-2)
//	diagonal:   C[i][p-1]   = XOR_{j != i} C[(i-j-1) mod p][j]  (j in 0..p-2)
//
// The exclusion j == i in the diagonal equation is exactly the term whose
// row index would be p-1, a row that does not exist; and the diagonal chains
// by construction never contain a horizontal parity cell (the row index
// (i-j-1) mod p equals the anti-diagonal row p-2-j only when i = p-1).
// Consequently every data element belongs to exactly one horizontal and one
// diagonal chain — the optimal update complexity property of §III-E.
package core

import (
	"fmt"

	"code56/internal/layout"
)

// Orientation selects which RAID-5 parity placement the horizontal parities
// mirror (paper Fig. 7 extends Code 5-6 to right-symmetric/asymmetric
// RAID-5 layouts).
type Orientation int

const (
	// Left mirrors left-symmetric/asymmetric RAID-5: the horizontal
	// parity of row i sits at column p-2-i (anti-diagonal).
	Left Orientation = iota
	// Right mirrors right-symmetric/asymmetric RAID-5: the horizontal
	// parity of row i sits at column i (main diagonal); the diagonal
	// chains are the column-mirrored image of the Left layout.
	Right
)

// Code56 is Code 5-6 for p disks. It implements layout.Code. The zero value
// is not usable; construct with New or NewOriented.
type Code56 struct {
	p      int
	orient Orientation
	chains []layout.Chain
}

// New returns Code 5-6 for p disks with the default (left) orientation.
// p must be prime and at least 3.
func New(p int) (*Code56, error) { return NewOriented(p, Left) }

// NewOriented returns Code 5-6 for p disks with the given orientation.
func NewOriented(p int, o Orientation) (*Code56, error) {
	if !layout.IsPrime(p) || p < 3 {
		return nil, fmt.Errorf("core: p = %d must be a prime >= 3", p)
	}
	c := &Code56{p: p, orient: o}
	c.chains = c.buildChains()
	return c, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// constant p.
func MustNew(p int) *Code56 {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// P returns the prime parameter (= number of disks).
//
//c56:noalloc
func (c *Code56) P() int { return c.p }

// Orientation returns the layout orientation.
func (c *Code56) Orientation() Orientation { return c.orient }

// Name implements layout.Code.
func (c *Code56) Name() string {
	if c.orient == Right {
		return "code56r"
	}
	return "code56"
}

// Geometry implements layout.Code: (p-1) rows × p columns.
func (c *Code56) Geometry() layout.Geometry {
	return layout.Geometry{Rows: c.p - 1, Cols: c.p, P: c.p}
}

// FaultTolerance implements layout.Code.
func (c *Code56) FaultTolerance() int { return 2 }

// col maps a logical (Left-layout) column index in 0..p-2 to the physical
// column for the configured orientation. The diagonal parity column p-1 is
// fixed under both orientations.
func (c *Code56) col(j int) int {
	if c.orient == Right && j < c.p-1 {
		return c.p - 2 - j
	}
	return j
}

// HParityCol returns the physical column holding the horizontal parity of
// row i.
func (c *Code56) HParityCol(i int) int { return c.col(c.p - 2 - i) }

// Kind implements layout.Code.
func (c *Code56) Kind(row, col int) layout.Kind {
	p := c.p
	if col == p-1 {
		return layout.ParityD
	}
	if col == c.HParityCol(row) {
		return layout.ParityH
	}
	return layout.Data
}

// DiagonalChainOf returns the index i of the diagonal chain (i.e. the row of
// the diagonal parity element C[i][p-1]) covering the data element at
// (row, col). It panics if the cell is not a data element.
func (c *Code56) DiagonalChainOf(row, col int) int {
	if c.Kind(row, col) != layout.Data {
		panic(fmt.Sprintf("core: %v is not a data cell", layout.Coord{Row: row, Col: col}))
	}
	// Invert the physical column back to the logical Left-layout column.
	j := col
	if c.orient == Right {
		j = c.p - 2 - col
	}
	// row = (i - j - 1) mod p  =>  i = (row + j + 1) mod p.
	return (row + j + 1) % c.p
}

// buildChains constructs the p-1 horizontal and p-1 diagonal parity chains.
func (c *Code56) buildChains() []layout.Chain {
	p := c.p
	chains := make([]layout.Chain, 0, 2*(p-1))
	// Horizontal: row i, parity at logical column p-2-i.
	for i := 0; i < p-1; i++ {
		ch := layout.Chain{
			Kind:   layout.ParityH,
			Parity: layout.Coord{Row: i, Col: c.col(p - 2 - i)},
		}
		for j := 0; j < p-1; j++ {
			if j == p-2-i {
				continue
			}
			ch.Covers = append(ch.Covers, layout.Coord{Row: i, Col: c.col(j)})
		}
		chains = append(chains, ch)
	}
	// Diagonal: parity C[i][p-1] covers C[(i-j-1) mod p][j] for logical
	// j in 0..p-2, j != i.
	for i := 0; i < p-1; i++ {
		ch := layout.Chain{
			Kind:   layout.ParityD,
			Parity: layout.Coord{Row: i, Col: p - 1},
		}
		for j := 0; j < p-1; j++ {
			if j == i {
				continue
			}
			r := ((i-j-1)%p + p) % p
			ch.Covers = append(ch.Covers, layout.Coord{Row: r, Col: c.col(j)})
		}
		chains = append(chains, ch)
	}
	return chains
}

// Chains implements layout.Code.
func (c *Code56) Chains() []layout.Chain { return c.chains }

var _ layout.Code = (*Code56)(nil)
