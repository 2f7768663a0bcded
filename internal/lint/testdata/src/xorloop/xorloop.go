// Package xorloop exercises the xorloop analyzer: hand-rolled XOR loops
// over byte blocks outside internal/xorblk must be reported, bitset
// algebra and the sanctioned kernel calls must not.
package xorloop

import (
	"encoding/binary"

	"code56/internal/xorblk"
)

// xorAssignOp is the classic hand-rolled parity fold.
func xorAssignOp(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i] // want `hand-rolled byte XOR loop`
	}
}

// xorTriple writes a^b elementwise through a counted loop.
func xorTriple(dst, a, b []byte) {
	for i := 0; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i] // want `hand-rolled byte XOR loop`
	}
}

// xorWord is the word-at-a-time variant through encoding/binary, the idiom
// xorblk's own word kernels use.
func xorWord(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:])) // want `hand-rolled word XOR loop`
	}
}

// viaKernel is the sanctioned path; nothing to report.
func viaKernel(dst, a, b []byte) {
	xorblk.Xor(dst, a)
	xorblk.XorInto(dst, a, b)
}

// bitsetFold folds []uint64 bitsets (layout's Gaussian-elimination shape);
// non-byte element types are deliberately out of scope.
func bitsetFold(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// singleXor XORs one byte outside any loop; only loops are flagged.
func singleXor(dst, src []byte) {
	dst[0] ^= src[0]
}

// plainCopy has a byte loop with no XOR; not flagged.
func plainCopy(dst, src []byte) {
	for i := range src {
		dst[i] = src[i]
	}
}

// suppressed records a deliberate exception with the mandatory reason; the
// //lint:allow directive swallows the diagnostic.
func suppressed(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i] //lint:allow xorloop microbenchmark baseline for the naive loop
	}
}
