package core

import (
	"fmt"
	"sync"

	"code56/internal/layout"
)

// logicalCol maps a physical column back to the Left-layout logical column
// the reconstruction math operates in. It is its own inverse composed with
// col().
func (c *Code56) logicalCol(physical int) int {
	if c.orient == Right && physical < c.p-1 {
		return c.p - 2 - physical
	}
	return physical
}

// hChain returns the horizontal parity chain of row i.
func (c *Code56) hChain(i int) layout.Chain { return c.chains[i] }

// dChain returns the diagonal parity chain with parity element C[i][p-1].
func (c *Code56) dChain(i int) layout.Chain { return c.chains[c.p-1+i] }

// RecoverSingle reconstructs one failed column in place using the plain
// (non-hybrid) strategy: horizontal chains if a data/horizontal column
// failed, re-encoding of the diagonal chains if the diagonal parity column
// failed. It returns decode statistics. The failed column's blocks are
// assumed zeroed/garbage and are fully rewritten.
func (c *Code56) RecoverSingle(s *layout.Stripe, failed int) (layout.DecodeStats, error) {
	p := c.p
	if failed < 0 || failed >= p {
		return layout.DecodeStats{}, fmt.Errorf("core: column %d out of range [0,%d)", failed, p)
	}
	var st layout.DecodeStats
	read := make(map[layout.Coord]bool)
	if failed == p-1 {
		for i := 0; i < p-1; i++ {
			layout.SolveChain(s, c.dChain(i), layout.Coord{Row: i, Col: p - 1}, read, &st)
		}
	} else {
		for i := 0; i < p-1; i++ {
			layout.SolveChain(s, c.hChain(i), layout.Coord{Row: i, Col: failed}, read, &st)
		}
	}
	st.BlocksRead = len(read)
	return st, nil
}

// ReconstructDouble implements the paper's Algorithm 1: reconstruction of
// any two concurrently failed columns. Columns are physical indices; their
// blocks are assumed lost and are fully rewritten in place.
func (c *Code56) ReconstructDouble(s *layout.Stripe, colA, colB int) (layout.DecodeStats, error) {
	return c.reconstructDouble(s, colA, colB, false)
}

// ReconstructDoubleParallel is ReconstructDouble with the two recovery
// chains of Case II executed concurrently, as Algorithm 1's "two cases
// start synchronously" suggests. The chains touch disjoint cells, so no
// synchronization beyond completion is needed.
func (c *Code56) ReconstructDoubleParallel(s *layout.Stripe, colA, colB int) (layout.DecodeStats, error) {
	return c.reconstructDouble(s, colA, colB, true)
}

func (c *Code56) reconstructDouble(s *layout.Stripe, colA, colB int, parallel bool) (layout.DecodeStats, error) {
	p := c.p
	if colA == colB {
		return layout.DecodeStats{}, fmt.Errorf("core: identical failed columns %d", colA)
	}
	for _, col := range []int{colA, colB} {
		if col < 0 || col >= p {
			return layout.DecodeStats{}, fmt.Errorf("core: column %d out of range [0,%d)", col, p)
		}
	}
	// Work in logical columns; sort so f1 < f2.
	f1, f2 := c.logicalCol(colA), c.logicalCol(colB)
	if f1 > f2 {
		f1, f2 = f2, f1
	}

	var st layout.DecodeStats
	read := make(map[layout.Coord]bool)

	// Case I: the diagonal parity column is among the failures.
	if f2 == p-1 {
		// Step 2-IA: every row has exactly one missing element in column
		// f1 (data or the row's horizontal parity); its horizontal chain
		// recovers it.
		for i := 0; i < p-1; i++ {
			layout.SolveChain(s, c.hChain(i), layout.Coord{Row: i, Col: c.col(f1)}, read, &st)
		}
		// Step 2-IB: re-encode the diagonal parity column.
		for i := 0; i < p-1; i++ {
			layout.SolveChain(s, c.dChain(i), layout.Coord{Row: i, Col: p - 1}, read, &st)
		}
		st.BlocksRead = len(read)
		return st, nil
	}

	// Case II: two data/horizontal columns failed; diagonal parity column
	// intact. Two independent recovery chains (paper Fig. 5).
	if parallel {
		var wg sync.WaitGroup
		var stA, stB layout.DecodeStats
		readA := make(map[layout.Coord]bool)
		readB := make(map[layout.Coord]bool)
		wg.Add(2)
		go func() { defer wg.Done(); c.recoveryChainA(s, f1, f2, readA, &stA) }()
		go func() { defer wg.Done(); c.recoveryChainB(s, f1, f2, readB, &stB) }()
		wg.Wait()
		st.XORs = stA.XORs + stB.XORs
		st.Recovered = stA.Recovered + stB.Recovered
		for co := range readA {
			read[co] = true
		}
		for co := range readB {
			read[co] = true
		}
	} else {
		c.recoveryChainA(s, f1, f2, read, &st)
		c.recoveryChainB(s, f1, f2, read, &st)
	}
	st.BlocksRead = len(read)
	return st, nil
}

// recoveryChainA runs the first recovery chain of Algorithm 1 Case II:
// starting point C[f2-f1-1][f1] (recovered by its diagonal chain), then
// alternating horizontal solves in column f2 and diagonal solves in column
// f1 until the endpoint C[p-2-f2][f2] (a horizontal parity element).
// Columns are logical.
func (c *Code56) recoveryChainA(s *layout.Stripe, f1, f2 int, read map[layout.Coord]bool, st *layout.DecodeStats) {
	p := c.p
	r := f2 - f1 - 1
	// Starting point: C[f2-f1-1][f1] is the only lost member of diagonal
	// chain f2 (that chain skips logical column f2 entirely).
	layout.SolveChain(s, c.dChain(f2), layout.Coord{Row: r, Col: c.col(f1)}, read, st)
	for {
		// Horizontal solve: row r's element in column f2 (the endpoint
		// iteration recovers the horizontal parity of row p-2-f2 itself).
		layout.SolveChain(s, c.hChain(r), layout.Coord{Row: r, Col: c.col(f2)}, read, st)
		if r == p-2-f2 {
			return
		}
		// Diagonal solve: the next lost element of column f1 shares the
		// diagonal chain i = <r+f2+1>_p with the element just recovered;
		// within chain i, column f1's member sits at row <i-f1-1>_p.
		r = ((r+f2-f1)%p + p) % p
		layout.SolveChain(s, c.dChain((r+f1+1)%p), layout.Coord{Row: r, Col: c.col(f1)}, read, st)
	}
}

// recoveryChainB runs the second recovery chain: starting point
// C[p-1-f2+f1][f2] (recovered by diagonal chain f1), then alternating
// horizontal solves in column f1 and diagonal solves in column f2 until the
// endpoint C[p-2-f1][f1].
func (c *Code56) recoveryChainB(s *layout.Stripe, f1, f2 int, read map[layout.Coord]bool, st *layout.DecodeStats) {
	p := c.p
	r := p - 1 - f2 + f1
	layout.SolveChain(s, c.dChain(f1), layout.Coord{Row: r, Col: c.col(f2)}, read, st)
	for {
		layout.SolveChain(s, c.hChain(r), layout.Coord{Row: r, Col: c.col(f1)}, read, st)
		if r == p-2-f1 {
			return
		}
		r = ((r+f1-f2)%p + p) % p
		layout.SolveChain(s, c.dChain((r+f2+1)%p), layout.Coord{Row: r, Col: c.col(f2)}, read, st)
	}
}
