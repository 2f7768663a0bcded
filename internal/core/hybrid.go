package core

import (
	"fmt"
	"math"

	"code56/internal/layout"
)

// RecoveryPlan describes how a single failed data/horizontal column will be
// rebuilt: for each lost row, whether the horizontal or the diagonal chain
// recovers it. The paper's §III-E-4 hybrid recovery (after Xiang et al.,
// SIGMETRICS'10) picks the mix minimizing the number of distinct blocks
// read; shared reads between chains are counted once.
type RecoveryPlan struct {
	// Failed is the physical failed column.
	Failed int
	// UseDiagonal[i] reports whether the lost element in row i is
	// recovered through its diagonal chain (false = horizontal chain).
	// The row holding the column's horizontal parity is always false:
	// a parity element belongs to no diagonal chain.
	UseDiagonal []bool
	// Reads is the number of distinct surviving blocks the plan reads.
	Reads int
}

// ConventionalReads returns the read cost of the naive single-disk rebuild
// (every element via its horizontal chain): (p-1)*(p-2) distinct blocks.
func (c *Code56) ConventionalReads() int { return (c.p - 1) * (c.p - 2) }

// exhaustiveLimit bounds the brute-force search: 2^(p-2) subsets are
// enumerated for p-2 <= exhaustiveLimit.
const exhaustiveLimit = 16

// PlanHybridRecovery computes a read-minimizing recovery plan for a single
// failed column holding data (any physical column except the diagonal
// parity column p-1). For p-2 <= 16 the optimum is found by exhaustive
// search over chain choices; beyond that a balanced alternating heuristic
// (the shape Xiang et al. prove optimal for RDP) is used.
func (c *Code56) PlanHybridRecovery(failed int) (RecoveryPlan, error) {
	p := c.p
	if failed < 0 || failed >= p-1 {
		return RecoveryPlan{}, fmt.Errorf("core: hybrid recovery needs a data/horizontal column, got %d", failed)
	}
	f := c.logicalCol(failed)
	parityRow := p - 2 - f // the row whose horizontal parity lives in the failed column

	// readSet returns the distinct surviving blocks read for a choice
	// vector over rows (excluding parityRow, which is always horizontal).
	evaluate := func(useDiag func(row int) bool) (int, []bool) {
		read := make(map[layout.Coord]bool)
		use := make([]bool, p-1)
		for i := 0; i < p-1; i++ {
			var ch layout.Chain
			if i != parityRow && useDiag(i) {
				use[i] = true
				ch = c.dChain(c.DiagonalChainOf(i, c.col(f)))
			} else {
				ch = c.hChain(i)
			}
			missing := layout.Coord{Row: i, Col: c.col(f)}
			for _, m := range ch.Members() {
				if m != missing {
					read[m] = true
				}
			}
		}
		return len(read), use
	}

	if p-2 <= exhaustiveLimit {
		best := math.MaxInt
		var bestUse []bool
		for mask := 0; mask < 1<<(p-1); mask++ {
			if mask&(1<<parityRow) != 0 {
				continue
			}
			n, use := evaluate(func(row int) bool { return mask&(1<<row) != 0 })
			if n < best {
				best, bestUse = n, use
			}
		}
		return RecoveryPlan{Failed: failed, UseDiagonal: bestUse, Reads: best}, nil
	}

	// Heuristic: recover the first half of the rows diagonally, the rest
	// horizontally, maximizing row-overlap between the two chain families.
	n, use := evaluate(func(row int) bool { return row < (p-1)/2 })
	return RecoveryPlan{Failed: failed, UseDiagonal: use, Reads: n}, nil
}

// ExecuteRecoveryPlan rebuilds the failed column in place per the plan and
// returns decode statistics; st.BlocksRead equals plan.Reads.
func (c *Code56) ExecuteRecoveryPlan(s *layout.Stripe, plan RecoveryPlan) (layout.DecodeStats, error) {
	p := c.p
	if plan.Failed < 0 || plan.Failed >= p-1 || len(plan.UseDiagonal) != p-1 {
		return layout.DecodeStats{}, fmt.Errorf("core: malformed recovery plan")
	}
	f := c.logicalCol(plan.Failed)
	var st layout.DecodeStats
	read := make(map[layout.Coord]bool)
	for i := 0; i < p-1; i++ {
		missing := layout.Coord{Row: i, Col: c.col(f)}
		var ch layout.Chain
		if plan.UseDiagonal[i] {
			ch = c.dChain(c.DiagonalChainOf(i, c.col(f)))
		} else {
			ch = c.hChain(i)
		}
		layout.SolveChain(s, ch, missing, read, &st)
	}
	st.BlocksRead = len(read)
	return st, nil
}
