package code56

import (
	"fmt"

	"code56/internal/durable"
	"code56/internal/layout"
	"code56/internal/raid6"
)

// Recovery and maintenance facade.
type (
	// ColumnRecoveryPlan is the compiled rebuild of one failed column, the
	// §III-E-4 hybrid recovery generalized to any Code: Steps lists each lost
	// cell's chain, and Stats the distinct blocks read and XORs a stripe.
	ColumnRecoveryPlan = layout.Plan
	// ScrubReport summarizes a RAID-6 scrub pass: latent-sector-error
	// repairs, located silent corruptions, unrecoverable stripes.
	ScrubReport = raid6.ScrubReport
	// ScrubMode selects whether a scrub pass repairs what it finds
	// (ScrubRepair) or only detects and counts (ScrubCheck).
	ScrubMode = raid6.ScrubMode
)

// Scrub modes.
const (
	ScrubRepair = raid6.ScrubRepair
	ScrubCheck  = raid6.ScrubCheck
)

// PlanColumnRecovery returns the plan a RAID-6 array of the code rebuilds
// one failed column with (RebuildArray): every lost cell through one of its
// shortest chains, the choice reading the fewest distinct blocks.
func PlanColumnRecovery(code Code, failed int) (*ColumnRecoveryPlan, error) {
	plan := layout.NewDecoder(code).ColumnPlan(layout.Columns{}.With(failed))
	if plan == nil {
		return nil, fmt.Errorf("code56: %s has no recovery plan for column %d", code.Name(), failed)
	}
	return plan, nil
}

// Manifest identifies a durable RAID-6 directory's code and geometry (the
// "manifest" object of its meta.json).
type Manifest = durable.Manifest

// BuildCode reconstructs the erasure code a manifest names.
var BuildCode = durable.BuildCode
