package analysis

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"

	hcodepkg "code56/internal/codes/hcode"
)

// CrossCodeRecovery is one row of the cross-code single-disk recovery
// study: the paper's §III-E-4 notes the hybrid approach "can be used in
// many MDS codes"; this measures it for all of them.
type CrossCodeRecovery struct {
	Code              string
	P                 int
	ConventionalReads int
	HybridReads       int
	Saving            float64
}

// RecoveryAcrossCodes measures conventional vs hybrid single-disk rebuild
// reads per stripe for every code at the given prime (failed column 0; see
// recoveryReads).
func RecoveryAcrossCodes(p int) ([]CrossCodeRecovery, error) {
	var out []CrossCodeRecovery
	for name, code := range comparisonCodes(p) {
		conv, hybrid, err := recoveryReads(code, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, CrossCodeRecovery{
			Code:              name,
			P:                 p,
			ConventionalReads: conv,
			HybridReads:       hybrid,
			Saving:            1 - float64(hybrid)/float64(conv),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out, nil
}

// comparisonCodes is the line-up of the cross-code studies at prime p.
func comparisonCodes(p int) map[string]layout.Code {
	return map[string]layout.Code{
		"code56":  core.MustNew(p),
		"rdp":     rdp.MustNew(p),
		"evenodd": evenodd.MustNew(p),
		"xcode":   xcode.MustNew(p),
		"hcode":   hcodepkg.MustNew(p),
		"hdp":     hdp.MustNew(p),
		"pcode":   pcode.MustNew(p, pcode.VariantPMinus1),
	}
}

// recoveryReads returns how many distinct blocks of a stripe a rebuild of
// column failed reads: conventionally, every cell through its horizontal
// chain where it has one (the decoder's peeling, which visits those first),
// and by the hybrid recovery, the one-column plan a RAID-6 array rebuilds a
// disk with.
func recoveryReads(code layout.Code, failed int) (conventional, hybrid int, err error) {
	dec := layout.NewDecoder(code)
	es := layout.ErasureSet{}
	for r := 0; r < code.Geometry().Rows; r++ {
		es[layout.Coord{Row: r, Col: failed}] = true
	}
	peeled, plan := dec.Compile(es), dec.ColumnPlan(layout.Columns{}.With(failed))
	if plan == nil || !peeled.Complete() {
		return 0, 0, fmt.Errorf("column %d has no recovery plan", failed)
	}
	return peeled.Stats().BlocksRead, plan.Stats().BlocksRead, nil
}

// RenderRecoveryAcrossCodes writes the cross-code recovery study.
func RenderRecoveryAcrossCodes(w io.Writer, p int) error {
	rows, err := RecoveryAcrossCodes(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Hybrid single-disk recovery across codes (p = %d, failed column 0)\n", p)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "code\tconventional reads\thybrid reads\tsaving")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\n", r.Code, r.ConventionalReads, r.HybridReads, r.Saving*100)
	}
	return tw.Flush()
}
