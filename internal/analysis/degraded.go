package analysis

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"

	"code56/internal/raid6"
)

// DegradedRead reports the measured cost of serving reads with one failed
// disk — the availability-under-failure view behind the paper's claim that
// staying RAID-5 leaves aging arrays exposed: a degraded array answers
// every read, but at an I/O amplification that rebuild-time choices (and
// the code's geometry) determine.
type DegradedRead struct {
	Code string
	P    int
	// Amplification is (disk I/Os) / (blocks read) with one failed disk,
	// over a uniform read of every logical block.
	Amplification float64
	// HealthyAmplification is the same ratio with no failures (1.0: one
	// disk read per block).
	HealthyAmplification float64
}

// MeasureDegradedReads fails disk 0 of each code's array and reads every
// logical block once, reporting the observed I/O amplification.
func MeasureDegradedReads(p int, seed int64) ([]DegradedRead, error) {
	var out []DegradedRead
	for name, code := range comparisonCodes(p) {
		a := raid6.New(code, 64)
		r := rand.New(rand.NewSource(seed))
		const stripes = 2
		blocks := int64(a.DataPerStripe() * stripes)
		buf := make([]byte, 64)
		for L := int64(0); L < blocks; L++ {
			r.Read(buf)
			if err := a.WriteBlock(L, buf); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		healthy := measureReadAmp(a, blocks, buf)
		a.Disks().Disk(0).Fail()
		degraded := measureReadAmp(a, blocks, buf)
		out = append(out, DegradedRead{
			Code:                 name,
			P:                    p,
			Amplification:        degraded,
			HealthyAmplification: healthy,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out, nil
}

func measureReadAmp(a *raid6.Array, blocks int64, buf []byte) float64 {
	a.Disks().ResetStats()
	for L := int64(0); L < blocks; L++ {
		if err := a.ReadBlock(L, buf); err != nil {
			return -1
		}
	}
	return float64(a.Disks().TotalStats().Reads) / float64(blocks)
}

// RenderDegradedReads writes the degraded-read study.
func RenderDegradedReads(w io.Writer, p int) error {
	rows, err := MeasureDegradedReads(p, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Degraded-read I/O amplification (p = %d, disk 0 failed, uniform reads)\n", p)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "code\thealthy\tdegraded")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", r.Code, r.HealthyAmplification, r.Amplification)
	}
	return tw.Flush()
}
