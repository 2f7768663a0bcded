// Fault injection: the migration surviving real-world disk trouble. A
// 4-disk RAID-5 with latent sector errors on two disks is converted online
// to a Code 5-6 RAID-6 while one disk is scheduled to fail-stop mid-way
// through the conversion. The conversion heals the latent errors as it
// walks them, the whole-disk failure parks the migration at its contiguous
// watermark, reads keep being served degraded, and after a hot-swap
// (Replace + rebuild) a second migrator resumes from the watermark and
// finishes. A final scrub and full read-back prove zero data loss.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	code56 "code56"
)

const (
	disks     = 4 // p = 5
	p         = disks + 1
	blockSize = 512
	stripes   = 8
	rows      = stripes * (p - 1)
	blocks    = rows * (disks - 1)
)

func main() {
	// A populated RAID-5.
	r5, err := code56.NewRAID5Array(disks, code56.WithBlockSize(blockSize))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	want := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, blockSize)
		rng.Read(b)
		want[L] = b
		if err := r5.WriteBlock(L, b); err != nil {
			log.Fatal(err)
		}
	}

	// Latent sector errors on two different disks, in early stripes: the
	// conversion will read those cells for diagonal parity, hit the error,
	// reconstruct the block from RAID-5 redundancy, and rewrite it.
	planted := 0
	seenDisk := map[int]bool{}
	seenRow := map[int64]bool{}
	for L := int64(0); L < blocks && planted < 2; L++ {
		row, disk := r5.Locate(L)
		// Stay within stripes 0-1, and use distinct disks and rows: RAID-5
		// redundancy reconstructs at most one lost block per row.
		if row >= 2*(p-1) || seenDisk[disk] || seenRow[row] {
			continue
		}
		seenDisk[disk] = true
		seenRow[row] = true
		r5.Disks().Disk(disk).InjectLatentError(row)
		fmt.Printf("planted latent sector error: disk %d, row %d\n", disk, row)
		planted++
	}

	// A retry policy absorbs transient errors, and disk 2 is scheduled to
	// fail-stop at its 14th I/O — mid-conversion.
	if err := r5.Disks().SetRetry(4, 50*time.Microsecond); err != nil {
		log.Fatal(err)
	}
	if err := r5.Disks().Disk(2).SetFaults(code56.FaultConfig{Seed: 7, FailAtIO: 14}); err != nil {
		log.Fatal(err)
	}

	// First migration attempt: heals the latent errors, then dies with the
	// disk. The contiguous watermark only covers fully converted stripes.
	mig, err := code56.NewMigrator(r5, rows)
	if err != nil {
		log.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		log.Fatal(err)
	}
	err = mig.Wait()
	if !errors.Is(err, code56.ErrDiskFailed) {
		log.Fatalf("expected the scheduled disk failure, got %v", err)
	}
	watermark, total := mig.Progress()
	st := mig.Stats()
	fmt.Printf("conversion stopped by disk failure: %d/%d stripes converted, %d latent blocks healed in flight\n",
		watermark, total, st.FaultsRepaired)
	fmt.Printf("  (%v)\n", err)

	// The array keeps serving every block degraded while disk 2 is down.
	buf := make([]byte, blockSize)
	for L := int64(0); L < blocks; L++ {
		if err := r5.ReadBlock(L, buf); err != nil {
			log.Fatalf("degraded read of block %d: %v", L, err)
		}
		if !bytes.Equal(buf, want[L]) {
			log.Fatalf("degraded read of block %d returned wrong data", L)
		}
	}
	fmt.Printf("degraded service: all %d blocks readable with disk 2 failed\n", blocks)

	// Hot-swap: replace the disk and rebuild its RAID-5 contents, then
	// resume the conversion from the watermark. Partial diagonal writes
	// above the watermark are simply redone.
	r5.Disks().Disk(2).Replace()
	if err := r5.Rebuild(2, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println("disk 2 replaced and rebuilt")

	mig2, err := code56.NewMigrator(r5, rows)
	if err != nil {
		log.Fatal(err)
	}
	if err := mig2.ResumeFrom(watermark); err != nil {
		log.Fatal(err)
	}
	if err := mig2.Start(); err != nil {
		log.Fatal(err)
	}
	if err := mig2.Wait(); err != nil {
		log.Fatal(err)
	}
	converted, _ := mig2.Progress()
	fmt.Printf("conversion resumed and finished: %d/%d stripes\n", converted, total)

	// Prove zero data loss: every stripe parity-consistent, a scrub finds
	// nothing to repair, every data block intact.
	r6, err := mig2.Result()
	if err != nil {
		log.Fatal(err)
	}
	for s := int64(0); s < stripes; s++ {
		ok, err := r6.VerifyStripe(s)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatalf("stripe %d inconsistent after resume", s)
		}
	}
	rep, err := code56.ScrubArray(context.Background(), r6, stripes, code56.ScrubCheck)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Clean() {
		log.Fatalf("scrub found residual damage: %+v", rep)
	}
	for L := int64(0); L < blocks; L++ {
		if err := r6.ReadBlock(L, buf); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, want[L]) {
			log.Fatalf("block %d corrupted", L)
		}
	}
	fmt.Printf("verified: %d stripes consistent, scrub clean, all %d blocks intact — zero data loss\n",
		stripes, blocks)
}
