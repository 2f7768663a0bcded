package layout

import (
	"fmt"
	"math/rand"
	"sync"

	"code56/internal/xorblk"
)

// Stripe holds the blocks of one stripe of an array code. Every block has
// the same size. The backing memory is column-major — a column's rows are
// contiguous, as they are on the disk holding that column — so Column hands
// a whole column to one ranged disk call.
type Stripe struct {
	Geom      Geometry
	BlockSize int
	backing   []byte   // column-major: block (r, c) starts at (c*Rows+r)*BlockSize
	blocks    [][]byte // views into backing, indexed by Geom.Index
}

// NewStripe allocates a zeroed stripe for the given geometry. All blocks are
// carved from one backing allocation.
func NewStripe(g Geometry, blockSize int) *Stripe {
	if blockSize <= 0 {
		panic(fmt.Sprintf("layout: invalid block size %d", blockSize))
	}
	s := &Stripe{
		Geom:      g,
		BlockSize: blockSize,
		backing:   make([]byte, g.Elements()*blockSize),
		blocks:    make([][]byte, g.Elements()),
	}
	for i := range s.blocks {
		c := g.CoordOf(i)
		off := (c.Col*g.Rows + c.Row) * blockSize
		s.blocks[i] = s.backing[off : off+blockSize : off+blockSize]
	}
	return s
}

// StripePool recycles stripes of one geometry and block size so per-stripe
// hot loops (encode, scrub, rebuild, degraded reads) reuse the same backing
// memory instead of allocating a fresh stripe each time. A pooled stripe
// comes back with unspecified contents — every consumer in this repository
// fills all cells (from disk reads or SetBlock) before reading them.
// Safe for concurrent use.
type StripePool struct {
	geom      Geometry
	blockSize int
	pool      sync.Pool
}

// NewStripePool returns a pool producing stripes of the given shape.
func NewStripePool(g Geometry, blockSize int) *StripePool {
	return &StripePool{geom: g, blockSize: blockSize}
}

// Get returns a stripe, reusing a returned one when available. Contents are
// unspecified.
//
//c56:noalloc
func (p *StripePool) Get() *Stripe {
	if s, _ := p.pool.Get().(*Stripe); s != nil {
		return s
	}
	return NewStripe(p.geom, p.blockSize) //lint:allow noalloc pool miss mints the stripe that later Gets recycle
}

// Put returns a stripe for reuse. The caller must not retain any reference
// to the stripe or its blocks. Stripes of a different shape are dropped.
//
//c56:noalloc
func (p *StripePool) Put(s *Stripe) {
	if s == nil || s.Geom != p.geom || s.BlockSize != p.blockSize {
		return
	}
	p.pool.Put(s)
}

// Block returns the block at coordinate c. The returned slice aliases the
// stripe's storage.
//
//c56:noalloc
func (s *Stripe) Block(c Coord) []byte {
	if !s.Geom.Contains(c) {
		panic(fmt.Sprintf("layout: coordinate %v outside %dx%d stripe", c, s.Geom.Rows, s.Geom.Cols))
	}
	return s.blocks[s.Geom.Index(c)]
}

// Column returns the Rows blocks of column col as one contiguous slice, row
// 0 first. The returned slice aliases the stripe's storage.
//
//c56:noalloc
func (s *Stripe) Column(col int) []byte {
	if col < 0 || col >= s.Geom.Cols {
		panic(fmt.Sprintf("layout: column %d outside %dx%d stripe", col, s.Geom.Rows, s.Geom.Cols))
	}
	n := s.Geom.Rows * s.BlockSize
	return s.backing[col*n : (col+1)*n : (col+1)*n]
}

// SetBlock copies b into the block at c. b must be exactly BlockSize long.
//
//c56:noalloc
func (s *Stripe) SetBlock(c Coord, b []byte) {
	if len(b) != s.BlockSize {
		panic(fmt.Sprintf("layout: block size %d, want %d", len(b), s.BlockSize))
	}
	copy(s.Block(c), b)
}

// Clone returns a deep copy of the stripe.
func (s *Stripe) Clone() *Stripe {
	out := NewStripe(s.Geom, s.BlockSize)
	copy(out.backing, s.backing)
	return out
}

// Zero clears the block at c.
//
//c56:noalloc
func (s *Stripe) Zero(c Coord) {
	b := s.Block(c)
	for i := range b {
		b[i] = 0
	}
}

// ZeroColumn clears every block in column col, modeling a failed disk whose
// contents are unknown (reconstruction must never read them).
func (s *Stripe) ZeroColumn(col int) {
	blocks := s.Column(col)
	for i := range blocks {
		blocks[i] = 0
	}
}

// FillRandom fills every data element (per code's classification) with
// pseudo-random bytes from r, leaving parity cells zero. Use Encode
// afterwards to make the stripe consistent.
func (s *Stripe) FillRandom(code Code, r *rand.Rand) {
	for _, c := range DataElements(code) {
		r.Read(s.Block(c))
	}
}

// Equal reports whether two stripes have the same geometry, block size and
// contents.
func (s *Stripe) Equal(o *Stripe) bool {
	if s.Geom != o.Geom || s.BlockSize != o.BlockSize {
		return false
	}
	return xorblk.Equal(s.backing, o.backing)
}

// Encode computes every parity element of the stripe from the data elements
// according to the code's chains. It returns the number of block XOR
// operations performed (the cost model's unit of computation).
//
// Chains may cover parity elements of other chains (RDP's diagonals cover
// the row-parity column), so parities are computed in dependency order:
// a chain is ready once none of its covered elements is itself an
// un-computed parity.
func Encode(code Code, s *Stripe) int {
	chains := code.Chains()
	pending := make(map[Coord]bool, len(chains))
	for _, ch := range chains {
		pending[ch.Parity] = true
	}
	done := make([]bool, len(chains))
	xors := 0
	var covers [][]byte // scratch reused across chains
	for remaining := len(chains); remaining > 0; {
		progress := false
		for i, ch := range chains {
			if done[i] {
				continue
			}
			ready := true
			for _, m := range ch.Covers {
				if pending[m] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			covers = covers[:0]
			for _, m := range ch.Covers {
				covers = append(covers, s.Block(m))
			}
			// The multi-source kernel folds several covers per pass over
			// the parity block; its return value is the chain's n-1 XOR
			// cost, keeping the accounting identical to one-at-a-time
			// folding.
			xors += xorblk.XorMulti(s.Block(ch.Parity), covers...)
			delete(pending, ch.Parity)
			done[i] = true
			remaining--
			progress = true
		}
		if !progress {
			panic(fmt.Sprintf("layout: %s has cyclic parity dependencies", code.Name()))
		}
	}
	return xors
}

// Verify reports whether every parity chain of the stripe XORs to zero.
func Verify(code Code, s *Stripe) bool {
	acc := make([]byte, s.BlockSize)
	var covers [][]byte
	for _, ch := range code.Chains() {
		copy(acc, s.Block(ch.Parity))
		covers = covers[:0]
		for _, m := range ch.Covers {
			covers = append(covers, s.Block(m))
		}
		xorblk.AccumulateMulti(acc, covers...)
		if !xorblk.IsZero(acc) {
			return false
		}
	}
	return true
}

// ErasureSet tracks which elements of a stripe are lost.
type ErasureSet map[Coord]bool

// EraseColumns zeroes the given columns of the stripe and returns the
// corresponding erasure set.
func EraseColumns(s *Stripe, cols ...int) ErasureSet {
	es := make(ErasureSet)
	for _, col := range cols {
		s.ZeroColumn(col)
		for r := 0; r < s.Geom.Rows; r++ {
			es[Coord{r, col}] = true
		}
	}
	return es
}

// EraseCells zeroes the given cells and returns them as an erasure set.
func EraseCells(s *Stripe, cells ...Coord) ErasureSet {
	es := make(ErasureSet)
	for _, c := range cells {
		s.Zero(c)
		es[c] = true
	}
	return es
}
