package code56

import (
	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/migrate"
)

// Migration types, re-exported from the migration engine.
type (
	// Conversion describes one RAID-5 → RAID-6 migration scenario.
	Conversion = migrate.Conversion
	// Approach is one of the paper's three conversion strategies.
	Approach = migrate.Approach
	// Plan is a conversion's exact operation schedule plus aggregates.
	Plan = migrate.Plan
	// Metrics are the paper's §V-A conversion cost quantities.
	Metrics = migrate.Metrics
	// OnlineMigrator converts a live RAID-5 to Code 5-6 while serving
	// application I/O (the paper's Algorithm 2).
	OnlineMigrator = migrate.OnlineMigrator
	// Executor replays a plan against simulated disks and verifies the
	// result.
	Executor = migrate.Executor
	// MigrationStats counts an online conversion's interactions with the
	// concurrent application workload.
	MigrationStats = migrate.MigrationStats
	// ProgressReport is a coherent point-in-time view of an online
	// migration (see OnlineMigrator.ProgressSnapshot).
	ProgressReport = migrate.ProgressReport
)

// Conversion approaches.
const (
	ViaRAID0 = migrate.ViaRAID0
	ViaRAID4 = migrate.ViaRAID4
	Direct   = migrate.Direct
)

// Migration entry points.
var (
	// NewPlan builds the operation schedule for a conversion.
	NewPlan = migrate.NewPlan
	// NewVirtualPlan plans a Code 5-6 direct conversion for a RAID-5 of
	// any size using virtual disks (paper §IV-B2).
	NewVirtualPlan = migrate.NewVirtualPlan
	// Downgrade converts a Code 5-6 RAID-6 back to a RAID-5 by detaching
	// the diagonal parity disk.
	Downgrade = migrate.Downgrade
	// StandardConversions returns the paper's §V-A comparison matrix for
	// a target disk count.
	StandardConversions = migrate.StandardConversions
	// Code56StorageEfficiency evaluates the paper's Eq. 6.
	Code56StorageEfficiency = migrate.Code56StorageEfficiency
)

// Comparison code constructors (the paper's baselines). Each returns an
// implementation of Code validated as MDS by exhaustive erasure tests.
var (
	// NewRDP returns the Row-Diagonal Parity code for p+1 disks.
	NewRDP = rdp.New
	// NewEVENODD returns the EVENODD code for p+2 disks.
	NewEVENODD = evenodd.New
	// NewXCode returns X-Code for p disks.
	NewXCode = xcode.New
	// NewHCode returns H-Code for p+1 disks.
	NewHCode = hcode.New
	// NewHDP returns the HDP code for p-1 disks.
	NewHDP = hdp.New
)

// NewPCode returns P-Code for p-1 disks (the paper's default variant).
func NewPCode(p int) (Code, error) { return pcode.New(p, pcode.VariantPMinus1) }

// NewPCodeP returns the P-Code variant spanning p disks.
func NewPCodeP(p int) (Code, error) { return pcode.New(p, pcode.VariantP) }
