// Package migrate implements RAID level migration between RAID-5 and
// RAID-6, the subject of the paper. It contains:
//
//   - a *planner* that, for a (source RAID-5, target code, approach)
//     triple, structurally diffs the source parity layout against the
//     target layout and emits the exact conversion operation stream
//     (invalidate / migrate / generate / reuse) — the paper's Figures 9–17
//     metrics are aggregations of this stream;
//   - an *offline executor* that replays the stream against simulated
//     disks and verifies the result is a consistent RAID-6 array (tying
//     the analysis to a real implementation);
//   - an *online converter* implementing the paper's Algorithm 2 for
//     Code 5-6: conversion and application I/O proceed concurrently on
//     live disks, a write and the conversion of its stripe excluding each
//     other through the stripe's lock;
//   - *virtual disk* support (paper §IV-B2) extending Code 5-6 migration
//     to a RAID-5 with any number of disks.
package migrate

import (
	"fmt"

	"code56/internal/layout"
	"code56/internal/raid5"
)

// Approach is one of the paper's three conversion strategies (§I).
type Approach int

const (
	// ViaRAID0 degrades the RAID-5 to a RAID-0 (invalidating every old
	// parity) and then upgrades to RAID-6 (generating every new parity).
	ViaRAID0 Approach = iota
	// ViaRAID4 degrades the RAID-5 to a RAID-4 (migrating every old
	// parity to a dedicated disk) and then upgrades to RAID-6
	// (generating the diagonal-family parities; horizontal parities are
	// reused from the dedicated disk, or migrated a second time if the
	// target scatters them).
	ViaRAID4
	// Direct converts in place: old parities are reused where the target
	// layout matches (Code 5-6's design point) and invalidated where it
	// does not.
	Direct
)

// String returns the paper's name for the approach.
func (a Approach) String() string {
	switch a {
	case ViaRAID0:
		return "RAID-5→RAID-0→RAID-6"
	case ViaRAID4:
		return "RAID-5→RAID-4→RAID-6"
	case Direct:
		return "RAID-5→RAID-6"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Short returns a compact tag for tables.
func (a Approach) Short() string {
	switch a {
	case ViaRAID0:
		return "via-raid0"
	case ViaRAID4:
		return "via-raid4"
	case Direct:
		return "direct"
	default:
		return fmt.Sprintf("approach%d", int(a))
	}
}

// Conversion describes one migration scenario: a RAID-5 of M disks with the
// given parity layout converted to a RAID-6 using Code under Approach.
type Conversion struct {
	// M is the number of disks in the source RAID-5.
	M int
	// SourceLayout is the source parity rotation (the paper's default is
	// left-asymmetric).
	SourceLayout raid5.Layout
	// Code is the target RAID-6 code.
	Code layout.Code
	// Approach is the conversion strategy.
	Approach Approach
	// Virtual is the number of virtual (all-NULL, non-physical) columns
	// padding the target layout, per §IV-B2. Zero for exact geometries.
	Virtual int
}

// N returns the number of real disks in the resulting RAID-6 (the target
// code's column count minus virtual columns).
func (c Conversion) N() int { return c.Code.Geometry().Cols - c.Virtual }

// Label formats the conversion the way the paper labels its figures,
// e.g. "RAID-5→RAID-6(code56,4,5)".
func (c Conversion) Label() string {
	return fmt.Sprintf("%s(%s,%d,%d)", c.Approach, c.Code.Name(), c.M, c.N())
}

// Validate checks that the source geometry is compatible with the target
// code under the approach:
//
//   - the source disks must map onto the target's columns (all of them for
//     in-place vertical codes, a prefix for codes that add disks);
//   - the target must have data rows to receive the source's rows;
//   - M must be at least 3 (a valid RAID-5).
func (c Conversion) Validate() error {
	if c.M < 3 {
		return fmt.Errorf("migrate: source RAID-5 needs >= 3 disks, got %d", c.M)
	}
	if c.Code == nil {
		return fmt.Errorf("migrate: nil target code")
	}
	g := c.Code.Geometry()
	if c.Virtual < 0 {
		return fmt.Errorf("migrate: negative virtual disk count %d", c.Virtual)
	}
	if c.Virtual > 0 && c.Approach != Direct {
		return fmt.Errorf("migrate: virtual disks only apply to direct conversion")
	}
	if c.Virtual+c.M > g.Cols {
		return fmt.Errorf("migrate: %d virtual + %d source disks exceed target's %d columns", c.Virtual, c.M, g.Cols)
	}
	if c.Approach != Direct && c.M == g.Cols {
		return fmt.Errorf("migrate: %s needs added disks, but source already has %d disks", c.Approach, g.Cols)
	}
	ov := buildOverlay(c, 0)
	if len(ov.DataRows) == 0 {
		return fmt.Errorf("migrate: target %s has no data rows", c.Code.Name())
	}
	// Every source parity must land on a source column.
	period := c.RotationPeriod()
	for g := 0; g < period; g++ {
		o := buildOverlay(c, g)
		for _, pd := range o.OldParityCol {
			if pd < c.Virtual || pd >= c.Virtual+c.M {
				return fmt.Errorf("migrate: source parity column %d outside source disks", pd)
			}
		}
	}
	return nil
}

// OldRowsPerStripe returns how many source RAID-5 rows one target stripe
// absorbs (the number of target rows containing data cells).
func (c Conversion) OldRowsPerStripe() int {
	return len(buildOverlay(c, 0).DataRows)
}

// RotationPeriod returns the number of consecutive target stripes after
// which the source parity rotation realigns: lcm(M, K)/K with K the old
// rows per stripe. Planning over one period yields exact long-run averages.
func (c Conversion) RotationPeriod() int {
	k := c.OldRowsPerStripe()
	return lcm(c.M, k) / k
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
