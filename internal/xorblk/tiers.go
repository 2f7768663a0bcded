package xorblk

// This file is the build-independent spine of the kernel dispatch: every
// build (default, -tags noasm, -tags purego, any GOARCH) provides the same
// two hooks —
//
//   - availableKernels(): the full five-shape kernel sets this binary can
//     run on this host, fastest first, always ending with the portable
//     word set. The cross-tier equivalence tests iterate it so every tier
//     the host can execute is verified bit-identical against the byte
//     reference, and Tiers() projects it for benchmarks.
//   - KernelName / Features(): what the dispatcher selected, so benchmark
//     reports (BENCH_xor.json, BENCH_parallel.json) record which kernel
//     produced their numbers.
//
// The dispatch files (kernel_purego.go, dispatch_generic.go,
// dispatch_amd64.go, dispatch_arm64.go) each define availableKernels,
// KernelName, Features and the xorKernel/... bindings for exactly one
// build-tag combination; CI builds and tests all of them so none can rot.

// kernelSet bundles the five kernel shapes of one dispatch tier. Every
// shape must be bit-identical to the byte reference for all lengths and
// alignments — the tier tests enforce that for each set returned by
// availableKernels.
type kernelSet struct {
	name  string
	xor   func(dst, src []byte)
	into  func(dst, a, b []byte)
	fold2 func(dst, a, b []byte)
	fold3 func(dst, a, b, c []byte)
	fold4 func(dst, a, b, c, e []byte)
}

// wordKernels is the portable tier present in every build: eight bytes per
// iteration through encoding/binary, no unsafe, no assembly.
var wordKernels = kernelSet{
	name:  "word",
	xor:   xorWords,
	into:  xorIntoWords,
	fold2: fold2Words,
	fold3: fold3Words,
	fold4: fold4Words,
}

// KernelTier is one selectable dst ^= src implementation, exported for
// benchmark sweeps (cmd/c56-bench) so they measure every tier the host can
// run rather than hard-coding kernel names.
type KernelTier struct {
	// Name identifies the tier: "avx512", "avx2", "neon", "wide", "word"
	// or "byte".
	Name string
	// Xor computes dst[i] ^= src[i] with this tier's kernel.
	Xor func(dst, src []byte)
}

// Tiers returns every xor tier this binary can run on this host, fastest
// first, ending with the byte reference. Tiers()[0] is the kernel the
// package-level entry points dispatch to; its name equals KernelName.
func Tiers() []KernelTier {
	ks := availableKernels()
	out := make([]KernelTier, 0, len(ks)+1)
	for _, k := range ks {
		out = append(out, KernelTier{Name: k.name, Xor: k.xor})
	}
	return append(out, KernelTier{Name: "byte", Xor: xorBytes})
}
