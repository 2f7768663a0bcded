// Package layout defines the shared framework for XOR-based MDS array codes.
//
// Every RAID-6 code in this repository (Code 5-6, RDP, EVENODD, X-Code,
// P-Code, H-Code, HDP) is declared as a stripe geometry plus a set of parity
// chains. A parity chain is a set of element coordinates whose XOR is the
// zero block: one member is the parity element, the rest are the elements it
// covers. Declaring codes this way gives us, for free and uniformly across
// codes:
//
//   - a generic encoder (compute each parity from its chain),
//   - a generic verifier (every chain must XOR to zero),
//   - a generic peeling decoder (iteratively recover elements from chains
//     with a single missing member),
//   - a generic GF(2) Gaussian-elimination decoder for patterns peeling
//     cannot reach (EVENODD's S-adjusted diagonals need this),
//   - structural introspection for the migration planner, which compares a
//     target code's chains against an existing RAID-5 layout to decide which
//     old parities survive a conversion untouched.
package layout

import "fmt"

// Kind classifies what a stripe cell holds.
type Kind int

const (
	// Data marks an ordinary data element.
	Data Kind = iota
	// ParityH marks a horizontal (row) parity element.
	ParityH
	// ParityD marks a diagonal parity element.
	ParityD
	// ParityA marks an anti-diagonal parity element (X-Code's second
	// parity family).
	ParityA
	// Unused marks a cell that exists in the rectangular stripe matrix but
	// holds nothing in this code's layout (no RAID-6 code here needs it,
	// but migration overlays use it for holes left by invalidated
	// parities).
	Unused
)

// String returns a short human-readable tag for the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case ParityH:
		return "parityH"
	case ParityD:
		return "parityD"
	case ParityA:
		return "parityA"
	case Unused:
		return "unused"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsParity reports whether the kind is any parity flavor.
func (k Kind) IsParity() bool {
	return k == ParityH || k == ParityD || k == ParityA
}

// Coord addresses one element inside a stripe: Row is the offset within the
// stripe, Col is the disk.
type Coord struct {
	Row, Col int
}

// String formats the coordinate as (row,col).
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Chain is one parity constraint: Parity XOR (XOR of Covers) == 0.
// Covers never contains Parity.
type Chain struct {
	// Kind is the parity family this chain belongs to (ParityH, ParityD,
	// or ParityA).
	Kind Kind
	// Parity is the coordinate of the parity element.
	Parity Coord
	// Covers lists the elements the parity protects.
	Covers []Coord
}

// Members returns the full constraint set: the parity element followed by
// every covered element.
func (ch Chain) Members() []Coord {
	m := make([]Coord, 0, len(ch.Covers)+1)
	m = append(m, ch.Parity)
	m = append(m, ch.Covers...)
	return m
}

// Geometry describes the shape of one stripe.
type Geometry struct {
	// Rows is the number of rows per stripe.
	Rows int
	// Cols is the number of disks (columns).
	Cols int
	// P is the prime parameter the code was constructed from.
	P int
}

// Elements returns Rows*Cols, the total number of cells per stripe.
func (g Geometry) Elements() int { return g.Rows * g.Cols }

// Contains reports whether c is a valid cell of the stripe.
//
//c56:noalloc
func (g Geometry) Contains(c Coord) bool {
	return c.Row >= 0 && c.Row < g.Rows && c.Col >= 0 && c.Col < g.Cols
}

// Index flattens a coordinate to a row-major index.
//
//c56:noalloc
func (g Geometry) Index(c Coord) int { return c.Row*g.Cols + c.Col }

// CoordOf is the inverse of Index.
//
//c56:noalloc
func (g Geometry) CoordOf(i int) Coord { return Coord{Row: i / g.Cols, Col: i % g.Cols} }

// Code is the interface every array code implements. Implementations must be
// stateless and safe for concurrent use.
type Code interface {
	// Name returns a short identifier, e.g. "code56" or "rdp".
	Name() string
	// Geometry returns the stripe shape.
	Geometry() Geometry
	// Chains returns every parity chain of one stripe. The returned slice
	// and its contents must not be mutated by callers; implementations
	// may cache it.
	Chains() []Chain
	// Kind classifies the cell at (row, col).
	Kind(row, col int) Kind
	// FaultTolerance returns the number of concurrent full-column
	// failures the code tolerates (2 for every RAID-6 code here).
	FaultTolerance() int
}

// DataElements returns the coordinates of every data cell of the code: in the
// code's own order if it declares one with a DataOrder() []Coord method (a
// symmetric RAID-5 numbers a row's blocks from its parity disk on), else in
// row-major order. It is the order logical blocks fill a stripe.
func DataElements(c Code) []Coord {
	if o, ok := c.(interface{ DataOrder() []Coord }); ok {
		return o.DataOrder()
	}
	g := c.Geometry()
	var out []Coord
	for r := 0; r < g.Rows; r++ {
		for j := 0; j < g.Cols; j++ {
			if c.Kind(r, j) == Data {
				out = append(out, Coord{r, j})
			}
		}
	}
	return out
}

// ParityElements returns the coordinates of every parity cell.
func ParityElements(c Code) []Coord {
	g := c.Geometry()
	var out []Coord
	for r := 0; r < g.Rows; r++ {
		for j := 0; j < g.Cols; j++ {
			if c.Kind(r, j).IsParity() {
				out = append(out, Coord{r, j})
			}
		}
	}
	return out
}

// ChainsCovering returns the indices (into c.Chains()) of every chain whose
// cover set includes the element at co. For codes with optimal update
// complexity this has length 2 for every data element.
func ChainsCovering(c Code, co Coord) []int {
	var out []int
	for i, ch := range c.Chains() {
		for _, m := range ch.Covers {
			if m == co {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// StorageEfficiency returns dataElements/totalElements for the code.
func StorageEfficiency(c Code) float64 {
	g := c.Geometry()
	return float64(len(DataElements(c))) / float64(g.Elements())
}
