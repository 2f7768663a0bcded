package code56

// This file is the benchmark harness deliverable: one benchmark per table
// and figure of the paper's evaluation (§V), each regenerating the same
// rows/series the paper reports, plus throughput benchmarks for the
// underlying machinery. Run with:
//
//	go test -bench=. -benchmem
//
// Scale note: the figure/table benchmarks run the full regeneration at a
// reduced B per iteration; cmd/c56-analyze and cmd/c56-sim run the
// paper-scale versions.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"code56/internal/analysis"
	"code56/internal/core"
	"code56/internal/disksim"
	"code56/internal/fleet"
	"code56/internal/layout"
	"code56/internal/migrate"
	"code56/internal/raid5"
	"code56/internal/trace"
)

// benchFigure regenerates one §V-B comparison figure across n = 5, 6, 7.
func benchFigure(b *testing.B, f analysis.Figure) {
	for _, n := range []int{5, 6, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, err := analysis.Compare(n)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range entries {
					_ = f.Value(e.Metrics)
				}
			}
		})
	}
}

func BenchmarkFig09InvalidParityRatio(b *testing.B) { benchFigure(b, analysis.Fig9InvalidParity) }
func BenchmarkFig10MigrationRatio(b *testing.B)     { benchFigure(b, analysis.Fig10Migration) }
func BenchmarkFig11NewParityRatio(b *testing.B)     { benchFigure(b, analysis.Fig11NewParity) }
func BenchmarkFig12ExtraSpaceRatio(b *testing.B)    { benchFigure(b, analysis.Fig12ExtraSpace) }
func BenchmarkFig13ComputationCost(b *testing.B)    { benchFigure(b, analysis.Fig13Computation) }
func BenchmarkFig14WriteIOs(b *testing.B)           { benchFigure(b, analysis.Fig14WriteIO) }
func BenchmarkFig15TotalIOs(b *testing.B)           { benchFigure(b, analysis.Fig15TotalIO) }
func BenchmarkFig16ConversionTimeNLB(b *testing.B)  { benchFigure(b, analysis.Fig16TimeNLB) }
func BenchmarkFig17ConversionTimeLB(b *testing.B)   { benchFigure(b, analysis.Fig17TimeLB) }

// BenchmarkFig18StorageEfficiency regenerates the Fig. 18 series.
func BenchmarkFig18StorageEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := analysis.StorageEfficiencySeries(3, 20)
		if len(pts) != 18 {
			b.Fatal("wrong series length")
		}
	}
}

// BenchmarkFig19Simulation regenerates both panels of Fig. 19 (4 KB and
// 8 KB blocks) at both p values, trace synthesis plus disk simulation.
func BenchmarkFig19Simulation(b *testing.B) {
	for _, p := range []int{5, 7} {
		for _, bs := range []int{4096, 8192} {
			b.Run(fmt.Sprintf("p=%d/block=%d", p, bs), func(b *testing.B) {
				cfg := analysis.SimConfig{BlockSize: bs, TotalDataBlocks: 6000, LoadBalanced: true}
				for i := 0; i < b.N; i++ {
					entries, err := analysis.SimulateBestByP(p, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if len(entries) == 0 {
						b.Fatal("no entries")
					}
				}
			})
		}
	}
}

// BenchmarkTable3Qualitative regenerates the derived Table III.
func BenchmarkTable3Qualitative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TableIII(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Speedups regenerates Table IV (both modes).
func BenchmarkTable4Speedups(b *testing.B) {
	for _, lb := range []bool{false, true} {
		name := "NLB"
		if lb {
			name = "LB"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.SpeedupTable([]int{5, 6, 7}, lb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5SimSpeedups regenerates Table V from a p=5 simulation.
func BenchmarkTable5SimSpeedups(b *testing.B) {
	cfg := analysis.SimConfig{BlockSize: 4096, TotalDataBlocks: 6000, LoadBalanced: true}
	for i := 0; i < b.N; i++ {
		entries, err := analysis.SimulateBestByP(5, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.SimSpeedups(entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6HybridRecovery regenerates the §III-E-4 recovery study
// (exhaustive plan search per prime).
func BenchmarkFig6HybridRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.HybridRecoverySeries([]int{5, 7, 11, 13}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Throughput benchmarks for the machinery under the figures. ---

// benchCodes returns the comparison set at p=5 plus Code 5-6 at p=13 for a
// larger-stripe data point.
func benchCodes(b *testing.B) map[string]Code {
	b.Helper()
	rdp5, err := NewRDP(5)
	if err != nil {
		b.Fatal(err)
	}
	eo5, err := NewEVENODD(5)
	if err != nil {
		b.Fatal(err)
	}
	xc5, err := NewXCode(5)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]Code{
		"code56-p5":  core.MustNew(5),
		"code56-p13": core.MustNew(13),
		"rdp-p5":     rdp5,
		"evenodd-p5": eo5,
		"xcode-p5":   xc5,
	}
}

// BenchmarkEncode measures full-stripe encoding throughput (data bytes per
// second) per code.
func BenchmarkEncode(b *testing.B) {
	for name, code := range benchCodes(b) {
		b.Run(name, func(b *testing.B) {
			s := layout.NewStripe(code.Geometry(), 4096)
			s.FillRandom(code, rand.New(rand.NewSource(1)))
			b.SetBytes(int64(len(layout.DataElements(code)) * 4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layout.Encode(code, s)
			}
		})
	}
}

// BenchmarkDecodeDouble measures double-column reconstruction throughput.
func BenchmarkDecodeDouble(b *testing.B) {
	for name, code := range benchCodes(b) {
		b.Run(name, func(b *testing.B) {
			orig := layout.NewStripe(code.Geometry(), 4096)
			orig.FillRandom(code, rand.New(rand.NewSource(2)))
			layout.Encode(code, orig)
			b.SetBytes(int64(2 * code.Geometry().Rows * 4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := orig.Clone()
				es := layout.EraseColumns(s, 0, 2)
				b.StartTimer()
				if _, err := layout.Reconstruct(code, s, es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm1VsPeeling compares Code 5-6's special-case double
// reconstruction (paper Algorithm 1, sequential and parallel) against the
// generic peeling decoder — an implementation ablation.
func BenchmarkAlgorithm1VsPeeling(b *testing.B) {
	code := core.MustNew(13)
	orig := layout.NewStripe(code.Geometry(), 4096)
	orig.FillRandom(code, rand.New(rand.NewSource(3)))
	layout.Encode(code, orig)
	bytes := int64(2 * code.Geometry().Rows * 4096)

	b.Run("algorithm1", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := orig.Clone()
			s.ZeroColumn(2)
			s.ZeroColumn(7)
			b.StartTimer()
			if _, err := code.ReconstructDouble(s, 2, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("algorithm1-parallel", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := orig.Clone()
			s.ZeroColumn(2)
			s.ZeroColumn(7)
			b.StartTimer()
			if _, err := code.ReconstructDoubleParallel(s, 2, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("peeling", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := orig.Clone()
			es := layout.EraseColumns(s, 2, 7)
			b.StartTimer()
			if _, err := layout.Reconstruct(code, s, es); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanConversion measures planner throughput for every approach.
func BenchmarkPlanConversion(b *testing.B) {
	for _, c := range migrate.StandardConversions(6) {
		c := c
		b.Run(c.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := migrate.NewPlan(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineMigration measures end-to-end online conversion throughput
// (migrated data bytes per second) on simulated disks, quiet array.
func BenchmarkOnlineMigration(b *testing.B) {
	const stripes = 16
	rows := int64(stripes * 4)
	blocks := rows * 3
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := raid5.New(4, 4096, raid5.LeftAsymmetric)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 4096)
		for L := int64(0); L < blocks; L++ {
			if err := a.WriteBlock(L, buf); err != nil {
				b.Fatal(err)
			}
		}
		mig, err := migrate.NewOnlineMigrator(a, rows)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := mig.Start(); err != nil {
			b.Fatal(err)
		}
		if err := mig.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(blocks * 4096)
}

// BenchmarkTraceSynthesis measures trace generation for Code 5-6 at 60k
// blocks.
func BenchmarkTraceSynthesis(b *testing.B) {
	plan, err := migrate.NewPlan(migrate.Conversion{
		M: 4, SourceLayout: raid5.LeftAsymmetric, Code: core.MustNew(5), Approach: migrate.Direct,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		phases := trace.FromPlan(plan, trace.Options{TotalDataBlocks: 60000, LoadBalanced: true})
		if len(phases) == 0 {
			b.Fatal("no phases")
		}
	}
}

// BenchmarkDiskSimReplay measures simulator throughput (requests/s).
func BenchmarkDiskSimReplay(b *testing.B) {
	plan, err := migrate.NewPlan(migrate.Conversion{
		M: 4, SourceLayout: raid5.LeftAsymmetric, Code: core.MustNew(5), Approach: migrate.Direct,
	})
	if err != nil {
		b.Fatal(err)
	}
	phases := trace.FromPlan(plan, trace.Options{TotalDataBlocks: 60000, LoadBalanced: true})
	n := 0
	for _, ph := range phases {
		n += len(ph)
	}
	sim, err := disksim.New(5, 4096, disksim.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPhases(phases); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "reqs/op")
}

// BenchmarkRenderAll measures the full report generation path used by
// cmd/c56-analyze -all (sans simulation).
func BenchmarkRenderAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{5, 6, 7} {
			if err := analysis.RenderAllMetrics(io.Discard, n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable6Reliability regenerates the derived Table VI (symbolic
// in-flight fault-tolerance replay of every conversion).
func BenchmarkTable6Reliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TableVI(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossCodeRecovery regenerates the generalized hybrid-recovery
// study (optimized rebuild planning for all seven codes).
func BenchmarkCrossCodeRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RecoveryAcrossCodes(7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePerformance regenerates the §V-D post-conversion
// small-write study (measured on live arrays).
func BenchmarkWritePerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.MeasureWritePerformance(5, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrub measures scrub throughput (stripes per op) on a clean
// Code 5-6 array.
func BenchmarkScrub(b *testing.B) {
	a, err := NewRAID6Array(core.MustNew(7))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	const stripes = 32
	for L := int64(0); L < int64(a.DataPerStripe()*stripes); L++ {
		if err := a.WriteBlock(L, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(stripes * a.Code().Geometry().Elements() * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScrubArray(context.Background(), a, stripes, ScrubRepair, WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryPlanning measures the optimized rebuild planner.
func BenchmarkRecoveryPlanning(b *testing.B) {
	for name, code := range benchCodes(b) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PlanColumnRecovery(code, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIMotivation regenerates the quantified §I motivation
// (MTTDL from the paper's Table I failure rates).
func BenchmarkTableIMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.MotivationTable(5, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetPlan measures the data-center migration scheduler on a
// 12-array fleet.
func BenchmarkFleetPlan(b *testing.B) {
	var specs []fleet.ArraySpec
	for i := 0; i < 12; i++ {
		specs = append(specs, fleet.ArraySpec{
			Name: fmt.Sprintf("a%d", i), Disks: 4 + i%6, AgeYears: 1 + i%5,
			DataBlocks: 30000, BlockSize: 4096, MTTRHours: 24,
		})
	}
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Plan(specs, disksim.DefaultModel(), 0); err != nil {
			b.Fatal(err)
		}
	}
}
