//go:build !purego && !noasm

// arm64 dispatch: NEON (Advanced SIMD) is a mandatory part of the ARMv8-A
// baseline every Go arm64 target requires, so no HWCAP probe is needed —
// the NEON tier is selected unconditionally at build time. The kernels
// (kernel_arm64.s) process 64 bytes per iteration through four 128-bit
// vector registers per stream; the dispatcher folds the ragged tail
// through the word path, keeping every shape bit-identical to the byte
// reference for all lengths and alignments.
//
// Build with -tags noasm to exclude this file and the assembly while
// keeping the unsafe wide kernels; -tags purego excludes both.

package xorblk

// KernelName identifies the fast path selected for this binary.
var KernelName = "neon"

// neonMinLen is the block size below which the NEON kernels are skipped:
// under one 64-byte iteration the wide kernel's plain loop wins.
const neonMinLen = 64

// availableKernels lists the tiers this build can run, fastest first.
func availableKernels() []kernelSet {
	return []kernelSet{
		{name: "neon", xor: xorNeon, into: xorIntoNeon, fold2: fold2Neon,
			fold3: fold3Neon, fold4: fold4Neon},
		wideKernels,
		wordKernels,
	}
}

//c56:noalloc
func xorKernel(dst, src []byte) { xorNeon(dst, src) }

//c56:noalloc
func xorIntoKernel(dst, a, b []byte) { xorIntoNeon(dst, a, b) }

//c56:noalloc
func fold2Kernel(dst, a, b []byte) { fold2Neon(dst, a, b) }

//c56:noalloc
func fold3Kernel(dst, a, b, c []byte) { fold3Neon(dst, a, b, c) }

//c56:noalloc
func fold4Kernel(dst, a, b, c, e []byte) { fold4Neon(dst, a, b, c, e) }

//c56:noalloc
func xorNeon(dst, src []byte) {
	n := len(dst)
	if n < neonMinLen {
		xorWide(dst, src)
		return
	}
	m := n &^ 63
	neonXor(&dst[0], &src[0], m)
	if m < n {
		xorWords(dst[m:], src[m:])
	}
}

//c56:noalloc
func xorIntoNeon(dst, a, b []byte) {
	n := len(dst)
	if n < neonMinLen {
		xorIntoWide(dst, a, b)
		return
	}
	m := n &^ 63
	neonInto(&dst[0], &a[0], &b[0], m)
	if m < n {
		xorIntoWords(dst[m:], a[m:], b[m:])
	}
}

//c56:noalloc
func fold2Neon(dst, a, b []byte) {
	n := len(dst)
	if n < neonMinLen {
		fold2Wide(dst, a, b)
		return
	}
	m := n &^ 63
	neonFold2(&dst[0], &a[0], &b[0], m)
	if m < n {
		fold2Words(dst[m:], a[m:], b[m:])
	}
}

//c56:noalloc
func fold3Neon(dst, a, b, c []byte) {
	n := len(dst)
	if n < neonMinLen {
		fold3Wide(dst, a, b, c)
		return
	}
	m := n &^ 63
	neonFold3(&dst[0], &a[0], &b[0], &c[0], m)
	if m < n {
		fold3Words(dst[m:], a[m:], b[m:], c[m:])
	}
}

//c56:noalloc
func fold4Neon(dst, a, b, c, e []byte) {
	n := len(dst)
	if n < neonMinLen {
		fold4Wide(dst, a, b, c, e)
		return
	}
	m := n &^ 63
	neonFold4(&dst[0], &a[0], &b[0], &c[0], &e[0], m)
	if m < n {
		fold4Words(dst[m:], a[m:], b[m:], c[m:], e[m:])
	}
}
