// Hybrid recovery: rebuilding a single failed disk with fewer reads by
// mixing horizontal and diagonal parity chains (paper §III-E-4, Fig. 6).
// A live Code 5-6 RAID-6 at p=5 loses disk 1 and rebuilds it: every stripe
// costs 9 block reads, not the 12 of rebuilding each row from its
// horizontal chain.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	code56 "code56"
)

func main() {
	code, err := code56.New(5)
	if err != nil {
		log.Fatal(err)
	}
	array, err := code56.NewRAID6Array(code)
	if err != nil {
		log.Fatal(err)
	}
	const stripes = 16
	blocks := int64(array.DataPerStripe() * stripes)
	rng := rand.New(rand.NewSource(3))
	content := make([][]byte, blocks)
	for L := range content {
		content[L] = make([]byte, array.BlockSize())
		rng.Read(content[L])
		if err := array.WriteBlock(int64(L), content[L]); err != nil {
			log.Fatal(err)
		}
	}

	const failed = 1
	array.Disks().Disk(failed).Fail()
	array.Disks().Disk(failed).Replace()
	array.Disks().ResetStats()
	if err := code56.RebuildArray(context.Background(), array, stripes, []int{failed}); err != nil {
		log.Fatal(err)
	}
	plan, err := code56.PlanColumnRecovery(code, failed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuild: %d blocks read per stripe (conventional %d), %d XORs\n",
		array.Disks().TotalStats().Reads/stripes, code.ConventionalReads(), plan.Stats().XORs)

	fmt.Printf("disk %d, per-row chain choice:\n", failed)
	for _, st := range plan.Steps() {
		chain := "horizontal"
		if code.Chains()[st.Chain].Kind == code56.KindParityD {
			chain = "diagonal"
		}
		fmt.Printf("  row %d -> %-10s reads %v\n", st.Missing.Row, chain, st.Sources)
	}

	got := make([]byte, array.BlockSize())
	for L := range content {
		if err := array.ReadBlock(int64(L), got); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, content[L]) {
			log.Fatalf("block %d wrong after the rebuild", L)
		}
	}
	for st := int64(0); st < stripes; st++ {
		if ok, err := array.VerifyStripe(st); err != nil || !ok {
			log.Fatalf("stripe %d does not verify after the rebuild (%v)", st, err)
		}
	}
	fmt.Printf("all %d blocks read back, all %d stripes verify\n", blocks, stripes)
}
