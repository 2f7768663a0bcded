package raid6

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/parallel"
	"code56/internal/vdisk"
)

// benchArray is a Code 5-6 array of the given shape holding stripes full
// stripes of random data, written a stripe a call.
func benchArray(b *testing.B, p, blockSize, stripes int) *Array {
	b.Helper()
	a := New(core.MustNew(p), blockSize)
	r := rand.New(rand.NewSource(1))
	full := make([]byte, a.DataPerStripe()*blockSize)
	for st := 0; st < stripes; st++ {
		r.Read(full)
		if err := a.WriteRange(int64(st*a.DataPerStripe()), full); err != nil {
			b.Fatal(err)
		}
	}
	return a
}

// BenchmarkWriteBlockRMW prices the small write. warm cycles through four
// stripes that stay in cache; cold draws random blocks of a p=5 array of 4096
// stripes (64 MiB of data, the repo benchmark's rmw_write_kops shape), so the
// three blocks each write touches come from memory — once over plain MemStores
// and once with their in-place fold hidden.
func BenchmarkWriteBlockRMW(b *testing.B) {
	b.Run("warm_p7_4k", func(b *testing.B) {
		a := benchArray(b, 7, 4096, 4)
		blocks := int64(a.DataPerStripe() * 4)
		data := make([]byte, 4096)
		rand.New(rand.NewSource(2)).Read(data)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.WriteBlock(int64(i)%blocks, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name    string
		backend vdisk.Backend
	}{
		{"cold_p5_4k", vdisk.MemBackend{}},
		{"cold_p5_4k_portable_fold", foldless{}}, // XorAt hidden: read, fold, write
	} {
		b.Run(tc.name, func(b *testing.B) {
			const stripes = 4096
			code := core.MustNew(5)
			disks, err := vdisk.NewArrayBackend(code.Geometry().Cols, 4096, tc.backend)
			if err != nil {
				b.Fatal(err)
			}
			a, err := Wrap(code, disks)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(2))
			full := make([]byte, a.DataPerStripe()*4096)
			for st := int64(0); st < stripes; st++ {
				r.Read(full)
				if err := a.WriteRange(st*int64(a.DataPerStripe()), full); err != nil {
					b.Fatal(err)
				}
			}
			blocks := int64(a.DataPerStripe() * stripes)
			data := full[:4096]
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.WriteBlock(r.Int63n(blocks), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteRangePartialStripe(b *testing.B) {
	a := benchArray(b, 7, 4096, 4)
	n := a.DataPerStripe() / 2
	data := make([]byte, n*4096)
	rand.New(rand.NewSource(3)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteRange(0, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteFullStripe(b *testing.B) {
	a := benchArray(b, 7, 4096, 4)
	blocks := make([][]byte, a.DataPerStripe())
	r := rand.New(rand.NewSource(4))
	for i := range blocks {
		blocks[i] = make([]byte, 4096)
		r.Read(blocks[i])
	}
	b.SetBytes(int64(len(blocks) * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteStripe(1, blocks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlockHealthy(b *testing.B) {
	a := benchArray(b, 7, 4096, 4)
	blocks := int64(a.DataPerStripe() * 4)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ReadBlock(int64(i)%blocks, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBlockDegraded reads every logical block in turn around one
// failed disk (the horizontal-chain plan) and around two, the second at the
// repo benchmark's two shapes and failure pair.
func BenchmarkReadBlockDegraded(b *testing.B) {
	for _, tc := range []struct {
		name         string
		p, blockSize int
		fail         []int
	}{
		{"one_p7_4k", 7, 4096, []int{0}},
		{"two_p5_4k", 5, 4096, []int{0, 2}},
		{"two_p13_16k", 13, 16384, []int{0, 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			a, _, want := newFilledArray(b, core.MustNew(tc.p), tc.blockSize, 4, false)
			for _, d := range tc.fail {
				a.Disks().Disk(d).Fail()
			}
			buf := make([]byte, tc.blockSize)
			b.SetBytes(int64(tc.blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.ReadBlock(int64(i%len(want)), buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// diskShapes are the two array shapes the rebuild and scrub benchmarks run:
// p=7 over four stripes that stay in cache, and the repo benchmark's
// array_ops shape over 96 stripes, 252 MB of disks, which do not.
var diskShapes = []struct {
	name                  string
	p, blockSize, stripes int
}{
	{"p7_4k", 7, 4096, 4},
	{"p13_16k", 13, 16384, 96},
}

// BenchmarkRebuildDoubleFailure rebuilds two replaced disks with one worker.
func BenchmarkRebuildDoubleFailure(b *testing.B) {
	for _, tc := range diskShapes {
		b.Run(tc.name, func(b *testing.B) {
			if tc.stripes > 4 && testing.Short() {
				b.Skip("252 MB of disks")
			}
			a := benchArray(b, tc.p, tc.blockSize, tc.stripes)
			b.SetBytes(int64(2 * tc.stripes * a.Code().Geometry().Rows * tc.blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.Disks().Disk(1).Fail()
				a.Disks().Disk(4).Fail()
				a.Disks().Disk(1).Replace()
				a.Disks().Disk(4).Replace()
				b.StartTimer()
				if err := rebuild(a, int64(tc.stripes), 1, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScrubCheck scrubs a clean array with one worker, counting every
// block it reads.
func BenchmarkScrubCheck(b *testing.B) {
	for _, tc := range diskShapes {
		b.Run(tc.name, func(b *testing.B) {
			if tc.stripes > 4 && testing.Short() {
				b.Skip("252 MB of disks")
			}
			a := benchArray(b, tc.p, tc.blockSize, tc.stripes)
			g := a.Code().Geometry()
			b.SetBytes(int64(tc.stripes * g.Rows * g.Cols * tc.blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep, err := scrub(a, int64(tc.stripes), ScrubCheck); err != nil || !rep.Clean() {
					b.Fatalf("scrub: %+v, %v", rep, err)
				}
			}
		})
	}
}

// BenchmarkRebuildContext compares the rebuild at several pool widths;
// workers=1 is the serial path.
func BenchmarkRebuildContext(b *testing.B) {
	const stripes = 32
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a := benchArray(b, 7, 4096, stripes)
			bts := int64(2 * stripes * a.Code().Geometry().Rows * 4096)
			b.SetBytes(bts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.Disks().Disk(1).Fail()
				a.Disks().Disk(4).Fail()
				a.Disks().Disk(1).Replace()
				a.Disks().Disk(4).Replace()
				b.StartTimer()
				if err := a.RebuildContext(context.Background(), stripes, []int{1, 4}, parallel.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
