package xorblk

import (
	"fmt"
	"testing"
)

// Kernel-hierarchy benchmarks: the same two-operand XOR through the
// dispatching kernel (wide unless built with -tags purego), the word path
// and the byte reference, across block sizes spanning L1-resident to
// L2-spilling. cmd/c56-bench's -xor-out mode reports the same comparison as
// JSON; CI's bench-smoke job runs these to catch kernel regressions.

func benchXor(b *testing.B, size int, fn func(dst, src []byte)) {
	dst := make([]byte, size)
	src := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, src)
	}
}

func BenchmarkXorKernel(b *testing.B) {
	for _, size := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("path=%s/size=%d", KernelName, size), func(b *testing.B) {
			benchXor(b, size, Xor)
		})
		b.Run(fmt.Sprintf("path=word/size=%d", size), func(b *testing.B) {
			benchXor(b, size, xorWords)
		})
		b.Run(fmt.Sprintf("path=byte/size=%d", size), func(b *testing.B) {
			benchXor(b, size, xorBytes)
		})
	}
}

func BenchmarkXorMultiArity(b *testing.B) {
	const size = 4096
	for _, arity := range []int{2, 3, 4, 8} {
		srcs := make([][]byte, arity)
		for i := range srcs {
			srcs[i] = make([]byte, size)
		}
		dst := make([]byte, size)
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			b.SetBytes(int64(size * arity))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				XorMulti(dst, srcs...)
			}
		})
	}
}

// BenchmarkIsZero is the verify side of a scrub: one pass over an all-zero
// block, the case that reads every byte.
func BenchmarkIsZero(b *testing.B) {
	for _, size := range []int{4096, 16384} {
		blk := make([]byte, size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !IsZero(blk) {
					b.Fatal("zero block reported non-zero")
				}
			}
		})
	}
}
