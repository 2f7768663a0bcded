//go:build !purego && !noasm

// amd64 dispatch: runtime CPU-feature-detected assembly kernels layered on
// the wide→word→byte hierarchy. A CPUID/XGETBV probe (cpuid_amd64.s) runs
// once at init and selects the widest vector tier the CPU and OS support:
//
//	avx512 — 64-byte ZMM lanes, 256 bytes per unrolled iteration
//	avx2   — 32-byte YMM lanes, 128 bytes per unrolled iteration
//	wide   — the portable uint64×8 kernels (no usable SIMD extensions)
//
// The assembly kernels (kernel_amd64.s) require no source or destination
// alignment (VMOVDQU loads), process only whole vector lanes, and leave
// the ragged tail to the word path, so every shape stays bit-identical to
// the byte reference for all lengths and alignments — the same contract
// the wide kernels honor, enforced by the cross-tier fuzz tests.
//
// Build with -tags noasm to exclude this file and all assembly while
// keeping the unsafe wide kernels; -tags purego excludes both.

package xorblk

// Dispatch levels, widest first. asmLevel is fixed at init; every
// package-level entry point branches on it once per call.
const (
	levelNone = iota
	levelAVX2
	levelAVX512
)

// asmMinLen is the block size below which the assembly tiers are skipped:
// under one cache line the call overhead and tail handling cost more than
// the wide kernel's plain loop.
const asmMinLen = 64

var (
	asmLevel = levelNone

	// KernelName identifies the fast path selected for this binary on
	// this host: "avx512", "avx2", or "wide" when the probe finds no
	// usable vector extensions.
	KernelName = "wide"
)

func init() {
	avx2, avx512 := probeCPU()
	switch {
	case avx512:
		asmLevel, KernelName = levelAVX512, "avx512"
	case avx2:
		asmLevel, KernelName = levelAVX2, "avx2"
	}
}

// probeCPU interrogates CPUID and XCR0 for the vector extensions the
// assembly kernels need. AVX2 requires the OS to save YMM state (OSXSAVE +
// XCR0 bits 1-2); AVX-512 additionally requires the F foundation and XCR0
// bits 5-7 (opmask, ZMM hi256, hi16 ZMM).
func probeCPU() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	avx2 = b7&(1<<5) != 0
	avx512 = avx2 && b7&(1<<16) != 0 && xlo&0xe0 == 0xe0
	return
}

// availableKernels lists the tiers this host can run, fastest first. The
// assembly tiers appear only when the probe enabled them, so the
// cross-tier tests cover exactly what this machine can execute.
func availableKernels() []kernelSet {
	ks := make([]kernelSet, 0, 4)
	if asmLevel >= levelAVX512 {
		ks = append(ks, asmKernels(levelAVX512, "avx512"))
	}
	if asmLevel >= levelAVX2 {
		ks = append(ks, asmKernels(levelAVX2, "avx2"))
	}
	return append(ks, wideKernels, wordKernels)
}

// asmKernels pins the five dispatch shapes to one assembly level, for
// tier-by-tier testing and benchmarking.
func asmKernels(level int, name string) kernelSet {
	return kernelSet{
		name:  name,
		xor:   func(dst, src []byte) { xorLevel(level, dst, src) },
		into:  func(dst, a, b []byte) { xorIntoLevel(level, dst, a, b) },
		fold2: func(dst, a, b []byte) { fold2Level(level, dst, a, b) },
		fold3: func(dst, a, b, c []byte) { fold3Level(level, dst, a, b, c) },
		fold4: func(dst, a, b, c, e []byte) { fold4Level(level, dst, a, b, c, e) },
	}
}

// Package-level kernel bindings: dispatch on the init-selected level.

//c56:noalloc
func xorKernel(dst, src []byte) { xorLevel(asmLevel, dst, src) }

//c56:noalloc
func xorIntoKernel(dst, a, b []byte) { xorIntoLevel(asmLevel, dst, a, b) }

//c56:noalloc
func fold2Kernel(dst, a, b []byte) { fold2Level(asmLevel, dst, a, b) }

//c56:noalloc
func fold3Kernel(dst, a, b, c []byte) { fold3Level(asmLevel, dst, a, b, c) }

//c56:noalloc
func fold4Kernel(dst, a, b, c, e []byte) { fold4Level(asmLevel, dst, a, b, c, e) }

//c56:noalloc
func xorLevel(level int, dst, src []byte) {
	n := len(dst)
	if level == levelNone || n < asmMinLen {
		xorWide(dst, src)
		return
	}
	var m int
	if level == levelAVX512 {
		m = n &^ 63
		avx512Xor(&dst[0], &src[0], m)
	} else {
		m = n &^ 31
		avx2Xor(&dst[0], &src[0], m)
	}
	if m < n {
		xorWords(dst[m:], src[m:])
	}
}

//c56:noalloc
func xorIntoLevel(level int, dst, a, b []byte) {
	n := len(dst)
	if level == levelNone || n < asmMinLen {
		xorIntoWide(dst, a, b)
		return
	}
	var m int
	if level == levelAVX512 {
		m = n &^ 63
		avx512Into(&dst[0], &a[0], &b[0], m)
	} else {
		m = n &^ 31
		avx2Into(&dst[0], &a[0], &b[0], m)
	}
	if m < n {
		xorIntoWords(dst[m:], a[m:], b[m:])
	}
}

//c56:noalloc
func fold2Level(level int, dst, a, b []byte) {
	n := len(dst)
	if level == levelNone || n < asmMinLen {
		fold2Wide(dst, a, b)
		return
	}
	var m int
	if level == levelAVX512 {
		m = n &^ 63
		avx512Fold2(&dst[0], &a[0], &b[0], m)
	} else {
		m = n &^ 31
		avx2Fold2(&dst[0], &a[0], &b[0], m)
	}
	if m < n {
		fold2Words(dst[m:], a[m:], b[m:])
	}
}

//c56:noalloc
func fold3Level(level int, dst, a, b, c []byte) {
	n := len(dst)
	if level == levelNone || n < asmMinLen {
		fold3Wide(dst, a, b, c)
		return
	}
	var m int
	if level == levelAVX512 {
		m = n &^ 63
		avx512Fold3(&dst[0], &a[0], &b[0], &c[0], m)
	} else {
		m = n &^ 31
		avx2Fold3(&dst[0], &a[0], &b[0], &c[0], m)
	}
	if m < n {
		fold3Words(dst[m:], a[m:], b[m:], c[m:])
	}
}

//c56:noalloc
func fold4Level(level int, dst, a, b, c, e []byte) {
	n := len(dst)
	if level == levelNone || n < asmMinLen {
		fold4Wide(dst, a, b, c, e)
		return
	}
	var m int
	if level == levelAVX512 {
		m = n &^ 63
		avx512Fold4(&dst[0], &a[0], &b[0], &c[0], &e[0], m)
	} else {
		m = n &^ 31
		avx2Fold4(&dst[0], &a[0], &b[0], &c[0], &e[0], m)
	}
	if m < n {
		fold4Words(dst[m:], a[m:], b[m:], c[m:], e[m:])
	}
}
