// Package xorblk provides the XOR kernels used by every array code in this
// repository. All RAID-6 parity math here is pure XOR over byte blocks
// (no Galois-field multiplication), so these kernels are the entire
// computational substrate of encoding, decoding, and migration.
//
// The code paths form a hierarchy (fastest first), with the top selected
// once at init by a runtime CPU-feature probe:
//
//   - the asm tiers (amd64: avx512, avx2; arm64: neon): hand-written
//     assembly kernels processing 256/128/64 bytes per unrolled iteration.
//     A stdlib-only CPUID/XGETBV probe (dispatch_amd64.go) picks the widest
//     tier the CPU and OS support; KernelName reports the choice.
//     Excluded by the noasm and purego build tags.
//   - the wide path: 64-byte unrolled uint64×8 inner loops over
//     unsafe-reinterpreted word slices, taken when every operand is 8-byte
//     aligned (heap block buffers always are). The top tier under -tags
//     noasm and on architectures without asm kernels; excluded by purego.
//     See kernel_wide.go.
//   - the word path: eight bytes per iteration through encoding/binary,
//     endianness-agnostic because XOR commutes with any byte permutation.
//     The fallback for unaligned operands and ragged asm tails, and the
//     only fast path under -tags purego.
//   - the byte path (xorBytes): one byte per iteration; the reference
//     implementation everything else is verified against.
//
// Every tier is bit-identical for all lengths and alignments — the
// cross-tier fuzz tests (FuzzKernelTiers) prove it for every kernel the
// host can run, and Tiers() exposes the runnable hierarchy so benchmarks
// can compare them.
//
// For parity generation over many sources, XorMulti folds up to four source
// streams per pass over dst (2/3/4-way unrolled inner loops), which cuts the
// number of times dst is pulled through the cache compared with folding one
// source at a time.
package xorblk

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// wordSize is the stride of the word path in bytes.
const wordSize = 8

// checkLen panics when dst and src lengths differ, naming both lengths —
// a mismatch is always a programming error in stripe handling (blocks within
// a stripe share one block size), and the lengths identify the culprit.
//
//c56:noalloc
func checkLen(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("xorblk: length mismatch: dst %d bytes, src %d bytes", len(dst), len(src)))
	}
}

// Xor sets dst[i] ^= src[i] for all i through the fastest available kernel.
// dst and src must have equal length; it panics otherwise.
//
//c56:noalloc
func Xor(dst, src []byte) {
	checkLen(dst, src)
	xorKernel(dst, src)
}

// xorBytes is the portable byte-at-a-time kernel: the reference
// implementation this package's benchmarks and fuzz tests compare every
// other tier against, and the last entry of Tiers. It is unexported so that
// no caller can pin a block operation to it; library code calls Xor.
//
//c56:noalloc
func xorBytes(dst, src []byte) {
	checkLen(dst, src)
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// xorWords is the word path: eight bytes per iteration through
// encoding/binary, no length check. Tiers lists it as "word".
//
//c56:noalloc
func xorWords(dst, src []byte) {
	n := len(dst) &^ (wordSize - 1)
	for i := 0; i < n; i += wordSize {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// XorInto computes dst = a ^ b without reading dst's prior contents.
// All three slices must have equal length.
//
//c56:noalloc
func XorInto(dst, a, b []byte) {
	checkLen(dst, a)
	checkLen(dst, b)
	xorIntoKernel(dst, a, b)
}

// xorIntoWords is the word path for XorInto.
//
//c56:noalloc
func xorIntoWords(dst, a, b []byte) {
	n := len(dst) &^ (wordSize - 1)
	for i := 0; i < n; i += wordSize {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], x^y)
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// fold2Words sets dst[i] ^= a[i] ^ b[i] in one pass over dst (2 source
// streams), word path.
//
//c56:noalloc
func fold2Words(dst, a, b []byte) {
	n := len(dst) &^ (wordSize - 1)
	for i := 0; i < n; i += wordSize {
		d := binary.LittleEndian.Uint64(dst[i:])
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^x^y)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= a[i] ^ b[i]
	}
}

// fold3Words sets dst[i] ^= a[i] ^ b[i] ^ c[i] in one pass over dst (3 source
// streams), word path.
//
//c56:noalloc
func fold3Words(dst, a, b, c []byte) {
	n := len(dst) &^ (wordSize - 1)
	for i := 0; i < n; i += wordSize {
		d := binary.LittleEndian.Uint64(dst[i:])
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		z := binary.LittleEndian.Uint64(c[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^x^y^z)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i]
	}
}

// fold4Words sets dst[i] ^= a[i] ^ b[i] ^ c[i] ^ e[i] in one pass over dst
// (4 source streams), word path.
//
//c56:noalloc
func fold4Words(dst, a, b, c, e []byte) {
	n := len(dst) &^ (wordSize - 1)
	for i := 0; i < n; i += wordSize {
		d := binary.LittleEndian.Uint64(dst[i:])
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		z := binary.LittleEndian.Uint64(c[i:])
		w := binary.LittleEndian.Uint64(e[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^x^y^z^w)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i] ^ e[i]
	}
}

// foldAll XORs every source into dst, consuming sources four, three and two
// at a time so each pass over dst folds as many streams as possible.
//
//c56:noalloc
func foldAll(dst []byte, srcs [][]byte) {
	for len(srcs) >= 4 {
		fold4Kernel(dst, srcs[0], srcs[1], srcs[2], srcs[3])
		srcs = srcs[4:]
	}
	switch len(srcs) {
	case 3:
		fold3Kernel(dst, srcs[0], srcs[1], srcs[2])
	case 2:
		fold2Kernel(dst, srcs[0], srcs[1])
	case 1:
		xorKernel(dst, srcs[0])
	}
}

// XorMulti sets dst to the XOR of all srcs. If srcs is empty, dst is zeroed.
// Every source must have the same length as dst. It returns the number of
// block XOR operations performed — len(srcs)-1 for a non-empty source list
// (the first source is copied, not XORed), the cost model's unit of
// computation. Folding k sources therefore never exceeds the k block XORs
// of k sequential Xor calls into a zeroed dst.
//
//c56:noalloc
func XorMulti(dst []byte, srcs ...[]byte) int {
	for _, s := range srcs {
		checkLen(dst, s)
	}
	if len(srcs) == 0 {
		clear(dst)
		return 0
	}
	copy(dst, srcs[0])
	foldAll(dst, srcs[1:])
	return len(srcs) - 1
}

// AccumulateMulti XORs every source into dst, preserving dst's existing
// contents. It returns the number of XOR block operations performed, which
// the migration cost model uses to count computation work.
//
//c56:noalloc
func AccumulateMulti(dst []byte, srcs ...[]byte) int {
	for _, s := range srcs {
		checkLen(dst, s)
	}
	foldAll(dst, srcs)
	return len(srcs)
}

// zeroPage is what IsZero compares against: 4 KiB, so it stays in L1 under
// any block size.
var zeroPage [4096]byte

// IsZero reports whether every byte of b is zero. Parity verification uses
// it: XOR of a full, consistent parity chain (including the parity block)
// must be the zero block. It is the runtime's vector memequal against a
// static zero page, a page at a time.
//
//c56:noalloc
func IsZero(b []byte) bool {
	for len(b) > len(zeroPage) {
		if !bytes.Equal(b[:len(zeroPage)], zeroPage[:]) {
			return false
		}
		b = b[len(zeroPage):]
	}
	return bytes.Equal(b, zeroPage[:len(b)])
}
