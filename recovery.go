package code56

import (
	"code56/internal/durable"
	"code56/internal/raid6"
	"code56/internal/recovery"
)

// Recovery and maintenance facade.
type (
	// ColumnRecoveryPlan is a read-minimizing single-disk rebuild plan
	// usable with any Code (the §III-E-4 hybrid recovery generalized).
	ColumnRecoveryPlan = recovery.Plan
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

// PlanColumnRecovery computes a read-minimizing plan for rebuilding one
// failed column of any code.
func PlanColumnRecovery(code Code, failed int) (ColumnRecoveryPlan, error) {
	return recovery.PlanColumn(code, failed)
}

// ConventionalRecoveryReads returns the read cost of the baseline rebuild
// strategy for comparison with PlanColumnRecovery.
func ConventionalRecoveryReads(code Code, failed int) (int, error) {
	return recovery.ConventionalReads(code, failed)
}

// Manifest identifies a durable RAID-6 directory's code and geometry (the
// "manifest" object of its meta.json).
type Manifest = durable.Manifest

// BuildCode reconstructs the erasure code a manifest names.
var BuildCode = durable.BuildCode
