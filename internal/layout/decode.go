package layout

import (
	"errors"
	"fmt"

	"code56/internal/xorblk"
)

// ErrUnrecoverable is returned when an erasure pattern exceeds what the
// code's parity chains can solve.
var ErrUnrecoverable = errors.New("layout: erasure pattern is unrecoverable")

// DecodeStats reports the work a reconstruction performed, in the paper's
// cost units.
type DecodeStats struct {
	// XORs is the number of block XOR operations.
	XORs int
	// BlocksRead is the number of *distinct* surviving blocks read. The
	// hybrid single-disk recovery analysis (paper §III-E-4, Fig. 6) is a
	// comparison of this quantity between recovery strategies.
	BlocksRead int
	// Recovered is the number of erased blocks reconstructed.
	Recovered int
	// UsedElimination reports whether the Gaussian-elimination fallback
	// was needed (peeling alone was insufficient).
	UsedElimination bool
}

// SolveChain reconstructs the missing member of ch in place as the
// XOR of all other chain members, which must all be intact, in one fused
// fold. It adds the members it read to read and the work to st. The paper's
// own recovery algorithms (core's Algorithm 1 and hybrid recovery, the
// references the compiled plans are held to) are built from this primitive.
func SolveChain(s *Stripe, ch Chain, missing Coord, read map[Coord]bool, st *DecodeStats) {
	srcs := make([][]byte, 0, len(ch.Covers)+1)
	for _, m := range ch.Members() {
		if m == missing {
			continue
		}
		srcs = append(srcs, s.Block(m))
		read[m] = true
	}
	st.XORs += xorblk.XorMulti(s.Block(missing), srcs...)
	st.Recovered++
}

// SolveDecode recovers erased elements by GF(2) Gaussian elimination over
// the code's parity constraints. It handles every pattern that is linearly
// recoverable, including those peeling cannot reach (EVENODD's S-adjusted
// diagonal chains under double column failure). It mutates s in place; on
// success es is emptied.
func SolveDecode(code Code, s *Stripe, es ErasureSet) (DecodeStats, error) {
	return solveDecode(code, s, es, make([]uint64, (s.Geom.Elements()+63)/64))
}

// solveDecode is SolveDecode counting BlocksRead over read, a bitset of the
// cells an earlier phase already read, which it extends.
func solveDecode(code Code, s *Stripe, es ErasureSet, read []uint64) (DecodeStats, error) {
	var st DecodeStats
	st.UsedElimination = true
	if len(es) == 0 {
		return st, nil
	}
	// Index the unknowns.
	unknowns := make([]Coord, 0, len(es))
	idx := make(map[Coord]int, len(es))
	for c := range es {
		idx[c] = len(unknowns)
		unknowns = append(unknowns, c)
	}

	// Build one equation per chain that touches an unknown:
	// XOR(unknown members) = XOR(known members).
	type equation struct {
		vars  []uint64 // bitset over unknowns
		konst []byte
	}
	words := (len(unknowns) + 63) / 64
	var eqs []equation
	for _, ch := range code.Chains() {
		var vars []uint64
		var konst []byte
		for _, m := range ch.Members() {
			if j, erased := idx[m]; erased {
				if vars == nil {
					vars = make([]uint64, words)
				}
				vars[j/64] ^= 1 << (j % 64)
			} else {
				if konst == nil {
					konst = make([]byte, s.BlockSize)
				}
				xorblk.Xor(konst, s.Block(m))
				i := s.Geom.Index(m)
				read[i/64] |= 1 << (i % 64)
				st.XORs++
			}
		}
		if vars == nil {
			continue
		}
		if konst == nil {
			konst = make([]byte, s.BlockSize)
		}
		eqs = append(eqs, equation{vars: vars, konst: konst})
	}
	st.XORs -= len(eqs) // first XOR into a zero buffer is a copy, not an XOR

	// Forward elimination to row echelon form with back-substitution folded
	// in (reduce fully: Gauss-Jordan).
	pivotOf := make([]int, 0, len(unknowns)) // equation index per pivot column order
	pivotCol := make([]int, 0, len(unknowns))
	used := make([]bool, len(eqs))
	for col := 0; col < len(unknowns); col++ {
		pivot := -1
		for e := range eqs {
			if !used[e] && bitGet(eqs[e].vars, col) {
				pivot = e
				break
			}
		}
		if pivot < 0 {
			continue
		}
		used[pivot] = true
		pivotOf = append(pivotOf, pivot)
		pivotCol = append(pivotCol, col)
		for e := range eqs {
			if e != pivot && bitGet(eqs[e].vars, col) {
				for w := range eqs[e].vars {
					eqs[e].vars[w] ^= eqs[pivot].vars[w]
				}
				xorblk.Xor(eqs[e].konst, eqs[pivot].konst)
				st.XORs++
			}
		}
	}
	if len(pivotOf) < len(unknowns) {
		return st, fmt.Errorf("%w: rank %d < %d unknowns (%s)", ErrUnrecoverable, len(pivotOf), len(unknowns), code.Name())
	}
	// After Gauss-Jordan each pivot equation has exactly one variable left.
	for k, e := range pivotOf {
		col := pivotCol[k]
		if popcount(eqs[e].vars) != 1 {
			return st, fmt.Errorf("%w: non-diagonal solution matrix (%s)", ErrUnrecoverable, code.Name())
		}
		s.SetBlock(unknowns[col], eqs[e].konst)
		st.Recovered++
	}
	for c := range es {
		delete(es, c)
	}
	st.BlocksRead = popcount(read)
	return st, nil
}

// Reconstruct is Decoder.Reconstruct on a decoder built for the call; a
// caller that decodes more than once keeps a Decoder.
func Reconstruct(code Code, s *Stripe, es ErasureSet) (DecodeStats, error) {
	return NewDecoder(code).Reconstruct(s, es)
}

func bitGet(bs []uint64, i int) bool { return bs[i/64]&(1<<(i%64)) != 0 }
