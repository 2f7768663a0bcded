//go:build !purego && (noasm || (!amd64 && !arm64))

// Generic dispatch: the unsafe wide kernels are the fastest tier when the
// build excludes assembly (-tags noasm) or targets an architecture without
// assembly kernels. The wide kernels carry their own alignment gate and
// word-path fallback, so the bindings are direct.

package xorblk

// KernelName identifies the fast path selected for this binary.
var KernelName = "wide"

// availableKernels lists the tiers this build can run, fastest first.
func availableKernels() []kernelSet { return []kernelSet{wideKernels, wordKernels} }

//c56:noalloc
func xorKernel(dst, src []byte) { xorWide(dst, src) }

//c56:noalloc
func xorIntoKernel(dst, a, b []byte) { xorIntoWide(dst, a, b) }

//c56:noalloc
func fold2Kernel(dst, a, b []byte) { fold2Wide(dst, a, b) }

//c56:noalloc
func fold3Kernel(dst, a, b, c []byte) { fold3Wide(dst, a, b, c) }

//c56:noalloc
func fold4Kernel(dst, a, b, c, e []byte) { fold4Wide(dst, a, b, c, e) }
