package analysis

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"

	"code56/internal/raid6"
)

// WritePerf measures the small-write cost of a live RAID-6 array after
// conversion — the paper's §V-D observation that "Code 5-6 provides high
// write performance after conversion due to its property on single write
// performance". Costs are measured, not derived: random single-block
// updates are issued against a real array and the disks' I/O counters are
// read back.
type WritePerf struct {
	Code string
	P    int
	// AvgIOsPerWrite is the mean disk I/Os (reads+writes) per
	// single-block update; the optimum for a RAID-6 is 6
	// (read+write of the data block and of two parity blocks).
	AvgIOsPerWrite float64
	// MaxDiskShare is the busiest disk's fraction of the total I/O — the
	// load-balance view (HDP's design goal).
	MaxDiskShare float64
}

// MeasureWritePerformance runs nWrites random single-block updates against
// each code's array at the given prime and reports the measured costs.
func MeasureWritePerformance(p int, nWrites int, seed int64) ([]WritePerf, error) {
	var out []WritePerf
	for name, code := range comparisonCodes(p) {
		a := raid6.New(code, 64)
		r := rand.New(rand.NewSource(seed))
		blocks := int64(a.DataPerStripe() * 4)
		buf := make([]byte, 64)
		for L := int64(0); L < blocks; L++ {
			r.Read(buf)
			if err := a.WriteBlock(L, buf); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		a.Disks().ResetStats()
		for i := 0; i < nWrites; i++ {
			r.Read(buf)
			if err := a.WriteBlock(r.Int63n(blocks), buf); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		var total, max int64
		for i := 0; i < a.Disks().Len(); i++ {
			t := a.Disks().Disk(i).Stats().Total()
			total += t
			if t > max {
				max = t
			}
		}
		out = append(out, WritePerf{
			Code:           name,
			P:              p,
			AvgIOsPerWrite: float64(total) / float64(nWrites),
			MaxDiskShare:   float64(max) / float64(total),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out, nil
}

// RenderWritePerformance writes the measured small-write comparison.
func RenderWritePerformance(w io.Writer, p, nWrites int) error {
	rows, err := MeasureWritePerformance(p, nWrites, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Post-conversion small-write cost (p = %d, %d random updates; optimum 6 I/Os)\n", p, nWrites)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "code\tavg I/Os per write\tbusiest-disk share")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", r.Code, r.AvgIOsPerWrite, r.MaxDiskShare)
	}
	return tw.Flush()
}
