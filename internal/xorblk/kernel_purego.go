//go:build purego

// Portable kernel bindings: with -tags purego no unsafe code and no
// assembly is compiled and every kernel resolves to the encoding/binary
// word path. Every dispatch file must define exactly the same symbols
// (xorKernel..., KernelName, availableKernels) — CI builds and
// tests every tag set so none can rot.

package xorblk

// KernelName identifies the fast path compiled into this binary.
const KernelName = "word"

// availableKernels lists the tiers this build can run: the word path only.
func availableKernels() []kernelSet { return []kernelSet{wordKernels} }

//c56:noalloc
func xorKernel(dst, src []byte) { xorWords(dst, src) }

//c56:noalloc
func xorIntoKernel(dst, a, b []byte) { xorIntoWords(dst, a, b) }

//c56:noalloc
func fold2Kernel(dst, a, b []byte) { fold2Words(dst, a, b) }

//c56:noalloc
func fold3Kernel(dst, a, b, c []byte) { fold3Words(dst, a, b, c) }

//c56:noalloc
func fold4Kernel(dst, a, b, c, e []byte) {
	fold4Words(dst, a, b, c, e)
}
