// Hybrid recovery: rebuilding a single failed disk with fewer reads by
// mixing horizontal and diagonal parity chains (paper §III-E-4, Fig. 6).
// At p=5 the plan reads 9 blocks per stripe instead of the conventional 12.
package main

import (
	"fmt"
	"log"
	"math/rand"

	code56 "code56"
)

func main() {
	fmt.Println("single-disk recovery read cost per stripe (conventional vs hybrid):")
	for _, p := range []int{5, 7, 11, 13} {
		code, err := code56.New(p)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := code56.PlanColumnRecovery(code, 1)
		if err != nil {
			log.Fatal(err)
		}
		conv := code.ConventionalReads()
		fmt.Printf("  p=%-3d %3d reads -> %3d reads  (-%4.1f%%)\n",
			p, conv, plan.Reads, 100*(1-float64(plan.Reads)/float64(conv)))
	}

	// Execute the p=5 plan on a real stripe and show which chains it uses.
	code, _ := code56.New(5)
	stripe := code56.NewStripe(code.Geometry(), 4096)
	stripe.FillRandom(code, rand.New(rand.NewSource(3)))
	code56.Encode(code, stripe)
	original := stripe.Clone()

	const failed = 1
	plan, err := code56.PlanColumnRecovery(code, failed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\np=5, disk %d failed; per-row chain choice:\n", failed)
	for i, cell := range plan.Lost {
		chain := "horizontal"
		if code.Chains()[plan.ChainOf[i]].Kind == code56.KindParityD {
			chain = "diagonal"
		}
		fmt.Printf("  row %d -> %s\n", cell.Row, chain)
	}

	stripe.ZeroColumn(failed)
	stats, err := plan.Execute(code, stripe)
	if err != nil {
		log.Fatal(err)
	}
	if !stripe.Equal(original) {
		log.Fatal("hybrid recovery produced wrong contents")
	}
	fmt.Printf("recovered disk %d: %d distinct reads (plan promised %d), %d XORs\n",
		failed, stats.BlocksRead, plan.Reads, stats.XORs)
}
