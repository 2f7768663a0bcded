package analysis

import (
	"fmt"

	"code56/internal/codes/hcode"
	"code56/internal/core"
	"code56/internal/migrate"
	"code56/internal/raid5"
	"code56/internal/recovery"
)

// Ablation quantifies one design-choice question beyond the paper's own
// experiments (see DESIGN.md §4.5).
type Ablation struct {
	Name        string
	Description string
	Entries     []Entry
}

// AblationHCodeDirect asks: how much of Code 5-6's advantage is the
// one-added-disk geometry versus parity-layout reuse per se? H-Code (same
// authors, same anti-diagonal horizontal parities plus an extra data
// column) could also convert directly with full reuse — the paper only
// evaluates it through intermediate RAID forms. This ablation runs H-Code
// through all three approaches.
func AblationHCodeDirect(p int) (Ablation, error) {
	ab := Ablation{
		Name: "hcode-direct",
		Description: "H-Code converted directly (with parity reuse) vs through " +
			"intermediate RAID-0/RAID-4, vs Code 5-6",
	}
	h := hcode.MustNew(p)
	for _, a := range []migrate.Approach{migrate.Direct, migrate.ViaRAID0, migrate.ViaRAID4} {
		c := migrate.Conversion{M: p - 1, SourceLayout: raid5.LeftAsymmetric, Code: h, Approach: a}
		plan, err := migrate.NewPlan(c)
		if err != nil {
			return Ablation{}, err
		}
		ab.Entries = append(ab.Entries, Entry{Label: c.Label(), Code: "hcode", Approach: a, N: c.N(), Metrics: plan.Metrics(), Plan: plan})
	}
	c56 := migrate.Conversion{M: p - 1, SourceLayout: raid5.LeftAsymmetric, Code: core.MustNew(p), Approach: migrate.Direct}
	plan, err := migrate.NewPlan(c56)
	if err != nil {
		return Ablation{}, err
	}
	ab.Entries = append(ab.Entries, Entry{Label: c56.Label(), Code: "code56", Approach: migrate.Direct, N: c56.N(), Metrics: plan.Metrics(), Plan: plan})
	return ab, nil
}

// AblationLayoutMismatch asks: how much of Code 5-6's conversion saving is
// the layout compatibility with left-oriented RAID-5? Converting from a
// right-asymmetric source (whose parity rotation does not match the Left
// code's anti-diagonal) defeats reuse, and the conversion pays
// invalidation plus full horizontal-parity regeneration. The matched
// orientation (core.Right against a right-asymmetric source) restores the
// zero-cost reuse, reproducing the paper's Fig. 7 point.
func AblationLayoutMismatch(p int) (Ablation, error) {
	ab := Ablation{
		Name: "layout-mismatch",
		Description: "Code 5-6 conversion cost from matched vs mismatched " +
			"RAID-5 parity rotations",
	}
	cases := []struct {
		label  string
		src    raid5.Layout
		orient core.Orientation
	}{
		{"matched/left", raid5.LeftAsymmetric, core.Left},
		{"mismatched", raid5.RightAsymmetric, core.Left},
		{"matched/right", raid5.RightAsymmetric, core.Right},
	}
	for _, cse := range cases {
		code, err := core.NewOriented(p, cse.orient)
		if err != nil {
			return Ablation{}, err
		}
		c := migrate.Conversion{M: p - 1, SourceLayout: cse.src, Code: code, Approach: migrate.Direct}
		plan, err := migrate.NewPlan(c)
		if err != nil {
			return Ablation{}, err
		}
		ab.Entries = append(ab.Entries, Entry{
			Label:    fmt.Sprintf("%s %s", c.Label(), cse.label),
			Code:     code.Name(),
			Approach: migrate.Direct,
			N:        c.N(),
			Metrics:  plan.Metrics(),
			Plan:     plan,
		})
	}
	return ab, nil
}

// RecoveryPoint is one row of the hybrid-recovery study (paper §III-E-4,
// Fig. 6): read cost of rebuilding one failed disk, per stripe.
type RecoveryPoint struct {
	P                 int
	ConventionalReads int
	HybridReads       int
	Saving            float64 // 1 - hybrid/conventional
}

// HybridRecoverySeries computes conventional vs hybrid single-disk
// recovery reads for the given primes (failed column 0).
func HybridRecoverySeries(primes []int) ([]RecoveryPoint, error) {
	var out []RecoveryPoint
	for _, p := range primes {
		c, err := core.New(p)
		if err != nil {
			return nil, err
		}
		plan, err := recovery.PlanColumn(c, 0)
		if err != nil {
			return nil, err
		}
		conv := c.ConventionalReads()
		out = append(out, RecoveryPoint{
			P:                 p,
			ConventionalReads: conv,
			HybridReads:       plan.Reads,
			Saving:            1 - float64(plan.Reads)/float64(conv),
		})
	}
	return out, nil
}
