// Virtual disks: migrating a RAID-5 whose size doesn't fit Code 5-6's
// prime geometry (paper §IV-B2, Fig. 8). A 3-disk RAID-5 becomes a 4-disk
// RAID-6 using the p=5 layout padded with one virtual (all-NULL,
// non-physical) disk; storage efficiency follows the paper's Eq. 6.
package main

import (
	"context"
	"fmt"
	"log"

	code56 "code56"
)

func main() {
	// Plan the conversion for m = 3 disks: p = 5, one virtual disk.
	plan, err := code56.NewVirtualPlan(3, code56.LeftAsymmetric)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conversion: %s with %d virtual disk(s)\n", plan.Conv.Label(), plan.Virtual)
	fmt.Printf("per stripe: %d usable data blocks, %d parities reused, %d generated\n",
		plan.DataBlocks/plan.Period, plan.Reused/plan.Period, plan.Generated/plan.Period)

	m := plan.Metrics()
	fmt.Printf("costs per data block: %.3f writes, %.3f total I/O — nothing invalidated or migrated (%.0f/%.0f)\n",
		m.WriteRatio, m.TotalIORatio, m.InvalidParityRatio, m.MigrationRatio)

	// Execute the plan against simulated disks and verify the result.
	ex, err := code56.NewPlanExecutor(plan, code56.WithSeed(99))
	if err != nil {
		log.Fatal(err)
	}
	if err := code56.RunPlan(context.Background(), ex); err != nil {
		log.Fatal(err)
	}
	if err := ex.VerifyResult(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("executed on simulated disks: result verifies as consistent RAID-6, data intact")

	// The paper's Fig. 18: the virtual-disk penalty is marginal.
	fmt.Println("\nstorage efficiency (paper Eq. 6) vs typical MDS RAID-6:")
	fmt.Println("  m   typical   code56   penalty")
	for mDisks := 3; mDisks <= 12; mDisks++ {
		typ := float64(mDisks-1) / float64(mDisks+1)
		c56 := code56.Code56StorageEfficiency(mDisks)
		fmt.Printf("  %-3d %.4f    %.4f   %.4f\n", mDisks, typ, c56, typ-c56)
	}
}
