// Command c56-analyze regenerates the paper's analytical evaluation:
// Figures 9–18, Table III, and Table IV, from the migration planner's cost
// model.
//
// Usage:
//
//	c56-analyze -all                 # everything, all n
//	c56-analyze -fig 15 -n 6        # one figure at one array size
//	c56-analyze -fig 15 -n 6 -csv   # ... as CSV
//	c56-analyze -table 4            # Table IV (NLB and LB)
//	c56-analyze -fig 18             # storage efficiency series
//	c56-analyze -ablations          # the DESIGN.md §4.5 ablation studies
//	c56-analyze -recovery           # hybrid single-disk recovery (Fig. 6)
package main

import (
	"flag"
	"fmt"
	"os"

	"code56/internal/analysis"
	"code56/internal/migrate"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (9-18)")
		table     = flag.Int("table", 0, "table number to regenerate (3, 4 or 6)")
		n         = flag.Int("n", 0, "target RAID-6 disk count (default: 5, 6 and 7)")
		csv       = flag.Bool("csv", false, "emit CSV instead of a text table")
		all       = flag.Bool("all", false, "regenerate everything")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		recovery  = flag.Bool("recovery", false, "hybrid single-disk recovery study (paper Fig. 6)")
		writeperf = flag.Bool("writeperf", false, "post-conversion small-write cost (paper §V-D)")
		degraded  = flag.Bool("degraded", false, "degraded-read I/O amplification study")
		motive    = flag.Bool("motivation", false, "quantified §I motivation: RAID-5 vs RAID-6 MTTDL from Table I AFRs")
		planFor   = flag.String("plan", "", "dump the operation stream of one conversion (code name, e.g. code56; with -n)")
	)
	flag.Parse()

	if err := run(*fig, *table, *n, *csv, *all, *ablations, *recovery, *writeperf, *degraded, *motive, *planFor); err != nil {
		fmt.Fprintln(os.Stderr, "c56-analyze:", err)
		os.Exit(1)
	}
}

func run(fig, table, n int, csv, all, ablations, recovery, writeperf, degraded, motive bool, planFor string) error {
	ns := []int{5, 6, 7}
	if n != 0 {
		ns = []int{n}
	}
	out := os.Stdout

	if all {
		if err := analysis.RenderMotivation(out, 5, 24); err != nil {
			return err
		}
		fmt.Fprintln(out)
		for _, n := range ns {
			if err := analysis.RenderAllMetrics(out, n); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if err := analysis.RenderTableIII(out, 6); err != nil {
			return err
		}
		fmt.Fprintln(out)
		for _, lb := range []bool{false, true} {
			if err := analysis.RenderSpeedupTable(out, ns, lb); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if err := analysis.RenderStorageEfficiency(out, 3, 20); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := analysis.RenderTableVI(out, 6); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := analysis.RenderHybridRecovery(out, []int{5, 7, 11, 13}); err != nil {
			return err
		}
		fmt.Fprintln(out)
		for _, p := range []int{5, 7} {
			if err := analysis.RenderRecoveryAcrossCodes(out, p); err != nil {
				return err
			}
			fmt.Fprintln(out)
			if err := analysis.RenderWritePerformance(out, p, 1000); err != nil {
				return err
			}
			fmt.Fprintln(out)
			if err := analysis.RenderDegradedReads(out, p); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return runAblations(out)
	}

	switch {
	case planFor != "":
		target := 6
		if n != 0 {
			target = n
		}
		printed := false
		for _, c := range migrate.StandardConversions(target) {
			if c.Code.Name() != planFor {
				continue
			}
			plan, err := migrate.NewPlan(c)
			if err != nil {
				return err
			}
			if err := plan.Describe(out, 40); err != nil {
				return err
			}
			fmt.Fprintln(out)
			printed = true
		}
		if !printed {
			return fmt.Errorf("no conversion for code %q at n=%d", planFor, target)
		}
		return nil
	case motive:
		return analysis.RenderMotivation(out, 5, 24)
	case degraded:
		for _, p := range []int{5, 7} {
			if err := analysis.RenderDegradedReads(out, p); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	case writeperf:
		for _, p := range []int{5, 7} {
			if err := analysis.RenderWritePerformance(out, p, 1000); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	case recovery:
		return analysis.RenderHybridRecovery(out, []int{5, 7, 11, 13})
	case ablations:
		return runAblations(out)
	case table == 3:
		return analysis.RenderTableIII(out, pick(ns))
	case table == 4:
		if err := analysis.RenderSpeedupTable(out, ns, false); err != nil {
			return err
		}
		return analysis.RenderSpeedupTable(out, ns, true)
	case table == 6:
		for _, n := range ns {
			if err := analysis.RenderTableVI(out, n); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	case fig == 18:
		return analysis.RenderStorageEfficiency(out, 3, 20)
	case fig >= 9 && fig <= 17:
		f := analysis.Figure(fig)
		for _, n := range ns {
			var err error
			if csv {
				err = analysis.RenderFigureCSV(out, f, n)
			} else {
				err = analysis.RenderFigure(out, f, n)
			}
			if err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -all, -fig, -table, -ablations or -recovery")
	}
}

func pick(ns []int) int {
	for _, n := range ns {
		if n == 6 {
			return 6
		}
	}
	return ns[0]
}

func runAblations(out *os.File) error {
	for _, p := range []int{5, 7} {
		ab, err := analysis.AblationHCodeDirect(p)
		if err != nil {
			return err
		}
		if err := analysis.RenderAblation(out, ab); err != nil {
			return err
		}
		fmt.Fprintln(out)
		ab, err = analysis.AblationLayoutMismatch(p)
		if err != nil {
			return err
		}
		if err := analysis.RenderAblation(out, ab); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
