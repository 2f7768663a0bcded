//go:build !purego && !noasm

// Assembly stub declarations for the amd64 kernels (kernel_amd64.s) and
// the init-time CPU probe (cpuid_amd64.s). Every kernel takes raw data
// pointers plus a byte count n that the dispatcher has already floored to
// a whole number of vector lanes (32 bytes for AVX2, 64 for AVX-512,
// n > 0). The //go:noescape annotations keep the dispatcher's &slice[0]
// arguments off the heap, preserving the package's zero-allocation
// contract.

package xorblk

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

//go:noescape
func avx2Xor(dst, src *byte, n int)

//go:noescape
func avx2Into(dst, a, b *byte, n int)

//go:noescape
func avx2Fold2(dst, a, b *byte, n int)

//go:noescape
func avx2Fold3(dst, a, b, c *byte, n int)

//go:noescape
func avx2Fold4(dst, a, b, c, e *byte, n int)

//go:noescape
func avx512Xor(dst, src *byte, n int)

//go:noescape
func avx512Into(dst, a, b *byte, n int)

//go:noescape
func avx512Fold2(dst, a, b *byte, n int)

//go:noescape
func avx512Fold3(dst, a, b, c *byte, n int)

//go:noescape
func avx512Fold4(dst, a, b, c, e *byte, n int)
