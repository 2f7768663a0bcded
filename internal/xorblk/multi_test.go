package xorblk

import (
	"bytes"
	"math/rand"
	"testing"
)

// foldedRef computes the reference XOR of srcs via the portable byte kernel:
// zero dst, then fold each source in sequence (k block XORs for k sources).
func foldedRef(n int, srcs [][]byte) []byte {
	want := make([]byte, n)
	for _, s := range srcs {
		xorBytes(want, s)
	}
	return want
}

// TestXorMultiManySources exercises the 2/3/4-way unrolled paths: every
// source count from 0 to 9 crosses the fold4/fold3/fold2/Xor tail cases,
// and the lengths cover word-aligned, odd, and sub-word blocks.
func TestXorMultiManySources(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 8, 13, 16, 24, 31, 64, 100, 4096, 4099} {
		for k := 0; k <= 9; k++ {
			srcs := make([][]byte, k)
			for i := range srcs {
				srcs[i] = randBlock(r, n)
			}
			dst := randBlock(r, n) // prior contents must be ignored
			ops := XorMulti(dst, srcs...)
			if !bytes.Equal(dst, foldedRef(n, srcs)) {
				t.Errorf("n=%d k=%d: XorMulti disagrees with folded xorBytes", n, k)
			}
			wantOps := k - 1
			if k == 0 {
				wantOps = 0
			}
			if ops != wantOps {
				t.Errorf("n=%d k=%d: XorMulti reported %d XOR ops, want %d", n, k, ops, wantOps)
			}
		}
	}
}

// TestXorMultiOpCountRegression is the cost-model regression: folding k
// sources with XorMulti must never exceed the XOR count of k sequential Xor
// calls into a zeroed destination. Backed by BenchmarkXorMulti4Src /
// BenchmarkXorSequential4Src, which compare the wall-clock side.
func TestXorMultiOpCountRegression(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for k := 1; k <= 8; k++ {
		srcs := make([][]byte, k)
		for i := range srcs {
			srcs[i] = randBlock(r, 4096)
		}
		dst := make([]byte, 4096)
		multiOps := XorMulti(dst, srcs...)
		// Sequential baseline: zero dst, Xor each source = k block XORs.
		seqOps := 0
		seq := make([]byte, 4096)
		for _, s := range srcs {
			Xor(seq, s)
			seqOps++
		}
		if multiOps > seqOps {
			t.Errorf("k=%d: XorMulti spent %d block XORs, sequential spends %d", k, multiOps, seqOps)
		}
		if !bytes.Equal(dst, seq) {
			t.Errorf("k=%d: XorMulti result diverges from sequential folding", k)
		}
	}
}

func benchMulti(b *testing.B, k, n int, multi bool) {
	r := rand.New(rand.NewSource(10))
	srcs := make([][]byte, k)
	for i := range srcs {
		srcs[i] = randBlock(r, n)
	}
	dst := make([]byte, n)
	b.SetBytes(int64(k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if multi {
			XorMulti(dst, srcs...)
		} else {
			clear(dst)
			for _, s := range srcs {
				Xor(dst, s)
			}
		}
	}
}

func BenchmarkXorMulti4Src4K(b *testing.B)      { benchMulti(b, 4, 4096, true) }
func BenchmarkXorSequential4Src4K(b *testing.B) { benchMulti(b, 4, 4096, false) }
func BenchmarkXorMulti8Src4K(b *testing.B)      { benchMulti(b, 8, 4096, true) }
func BenchmarkXorSequential8Src4K(b *testing.B) { benchMulti(b, 8, 4096, false) }
func BenchmarkXorMulti12Src64K(b *testing.B)    { benchMulti(b, 12, 65536, true) }
func BenchmarkXorSequential12Src64K(b *testing.B) {
	benchMulti(b, 12, 65536, false)
}
