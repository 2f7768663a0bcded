//go:build !purego && !noasm

package xorblk

import (
	"bytes"
	"fmt"
	"testing"
)

// TestAsmKernelSelectedOnCapableHost is the CI bench-smoke gate: if the
// CPUID probe reports AVX2 support, init must have selected an assembly
// tier, and that tier's output must match the wide kernel bit-for-bit on
// a seeded corpus. A host without AVX2 skips — the generic wide selection
// is still covered by TestTierSelection.
func TestAsmKernelSelectedOnCapableHost(t *testing.T) {
	avx2, avx512 := probeCPU()
	if !avx2 {
		t.Skip("host CPU lacks AVX2; asm tier not expected")
	}
	want := "avx2"
	if avx512 {
		want = "avx512"
	}
	if KernelName != want {
		t.Fatalf("probe reports avx2=%v avx512=%v but KernelName = %q, want %q",
			avx2, avx512, KernelName, want)
	}
	if asmLevel == levelNone {
		t.Fatalf("probe reports AVX2 but asmLevel is levelNone")
	}

	// Fuzz-seeded corpus: deterministic slabs at the shapes the fuzzer
	// seeds with, checked asm-vs-wide for every shape.
	for _, n := range []int{64, 261, 400, 1030, 4096, 65536} {
		srcs := tierSrcs(t, 4, n, 0)
		asmDst := slab(t, n, int64(n))[:n]
		wideDst := append([]byte(nil), asmDst...)
		xorKernel(asmDst, srcs[0])
		xorWide(wideDst, srcs[0])
		if !bytes.Equal(asmDst, wideDst) {
			t.Fatalf("asm xor diverges from wide at n=%d", n)
		}
		fold4Kernel(asmDst, srcs[0], srcs[1], srcs[2], srcs[3])
		fold4Wide(wideDst, srcs[0], srcs[1], srcs[2], srcs[3])
		if !bytes.Equal(asmDst, wideDst) {
			t.Fatalf("asm fold4 diverges from wide at n=%d", n)
		}
	}
}

// TestProbeFeatureConsistency pins an invariant of the CPUID probe: AVX-512
// implies AVX2 (the dispatcher's fold-back chain depends on it).
func TestProbeFeatureConsistency(t *testing.T) {
	if avx2, avx512 := probeCPU(); avx512 && !avx2 {
		t.Fatal("probe reports AVX-512 without AVX2; dispatcher assumes avx512 ⇒ avx2")
	}
}

// TestDispatchAllocations pins the full dispatch chain — level branch, asm
// stub call, word-path tail — at zero allocations for every shape, at a
// cache-resident and a streaming size.
func TestDispatchAllocations(t *testing.T) {
	for _, size := range []int{4096, 2 << 20} {
		dst := make([]byte, size)
		a, b, c, e := make([]byte, size), make([]byte, size), make([]byte, size), make([]byte, size)
		for name, fn := range map[string]func(){
			"xor":   func() { xorKernel(dst, a) },
			"into":  func() { xorIntoKernel(dst, a, b) },
			"fold2": func() { fold2Kernel(dst, a, b) },
			"fold3": func() { fold3Kernel(dst, a, b, c) },
			"fold4": func() { fold4Kernel(dst, a, b, c, e) },
		} {
			if n := testing.AllocsPerRun(20, fn); n != 0 {
				t.Errorf("%s dispatch at size %d allocates %.1f times per call, want 0",
					name, size, n)
			}
		}
	}
}

// BenchmarkDispatchTiers reports throughput of every tier the host can
// run at a cache-resident and a streaming size, giving `go test -bench`
// users the same comparison c56-bench records in BENCH_xor.json.
func BenchmarkDispatchTiers(b *testing.B) {
	for _, size := range []int{4096, 2 << 20} {
		dst := make([]byte, size)
		src := make([]byte, size)
		for _, k := range availableKernels() {
			b.Run(fmt.Sprintf("%s/%d", k.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					k.xor(dst, src)
				}
			})
		}
	}
}
