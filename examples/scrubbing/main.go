// Scrubbing: the paper's motivation (§I, Table I) is that aging disks
// accumulate latent sector errors and undetected corruption faster than
// RAID-5 can tolerate. This example runs a Code 5-6 RAID-6 through both
// error classes and repairs them with a scrub pass — then shows the double
// protection surviving a concurrent full-disk failure on top.
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
	code, err := code56.New(7)
	if err != nil {
		log.Fatal(err)
	}
	array, err := code56.NewRAID6Array(code)
	if err != nil {
		log.Fatal(err)
	}
	array.SetRotation(true) // balance parity load across disks

	const stripes = 32
	blocks := int64(array.DataPerStripe() * stripes)
	rng := rand.New(rand.NewSource(11))
	content := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, 4096)
		rng.Read(b)
		content[L] = b
		if err := array.WriteBlock(L, b); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("array ready: %d disks, %d stripes, %d data blocks\n", array.Disks().Len(), stripes, blocks)

	// Age the array: latent sector errors on three disks, plus one silent
	// corruption (a firmware bug writing garbage without reporting it).
	array.Disks().Disk(1).InjectLatentError(3)
	array.Disks().Disk(4).InjectLatentError(17)
	array.Disks().Disk(5).InjectLatentError(40)
	if err := array.Disks().Disk(2).Write(9, bytes.Repeat([]byte{0xBA}, 4096)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("injected: 3 latent sector errors + 1 silent corruption")

	ctx := context.Background()
	rep, err := code56.ScrubArray(ctx, array, stripes, code56.ScrubRepair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scrub: %d latent blocks rebuilt, %d corrupt blocks located and repaired, %d unrecoverable\n",
		rep.LatentRepaired, rep.CorruptRepaired, len(rep.Unrecoverable))

	// And the headline protection: even with a whole disk gone on top of
	// everything, data survives.
	array.Disks().Disk(3).Fail()
	buf := make([]byte, 4096)
	for L := int64(0); L < blocks; L++ {
		if err := array.ReadBlock(L, buf); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, content[L]) {
			log.Fatalf("block %d wrong", L)
		}
	}
	array.Disks().Disk(3).Replace()
	if err := code56.RebuildArray(ctx, array, stripes, []int{3}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("disk 3 failed, all data served degraded, disk rebuilt — array healthy")
}
