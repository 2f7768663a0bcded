package xorblk

import (
	"bytes"
	"testing"
)

// FuzzXorMulti feeds arbitrary bytes through the unrolled multi-source
// kernel and cross-checks it against the portable byte-at-a-time reference
// (zero dst, fold each source with xorBytes). The fuzzer's pool is carved
// from one input buffer at varying counts, lengths and offsets, so odd
// lengths and unaligned slice starts (relative to the 8-byte word stride)
// are exercised heavily. Run with `go test -fuzz=FuzzXorMulti` to explore;
// the seed corpus below runs on every plain `go test`.
func FuzzXorMulti(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 61), uint8(5), uint8(1))
	f.Add(bytes.Repeat([]byte{0xA5}, 128), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, pool []byte, k, off uint8) {
		// Derive k sources of length n from the pool, starting at offset
		// `off` so slices land on odd alignments within the backing array.
		count := int(k%10) + 1
		start := int(off % 8)
		if start > len(pool) {
			start = len(pool)
		}
		pool = pool[start:]
		n := len(pool) / count
		srcs := make([][]byte, count)
		for i := range srcs {
			srcs[i] = pool[i*n : (i+1)*n]
		}

		dst := make([]byte, n)
		for i := range dst {
			dst[i] = byte(i) // garbage that XorMulti must overwrite
		}
		ops := XorMulti(dst, srcs...)
		if want := count - 1; ops != want {
			t.Fatalf("XorMulti reported %d ops for %d sources, want %d", ops, count, want)
		}

		want := foldedRef(n, srcs)
		if !bytes.Equal(dst, want) {
			t.Fatalf("XorMulti (n=%d, k=%d, off=%d) disagrees with folded xorBytes", n, count, start)
		}
	})
}

// FuzzIsZero holds IsZero to the scalar loop it replaced on arbitrary bytes at every alignment, zero-padded on both
// sides so the set bits land anywhere in a block of up to five zero pages.
func FuzzIsZero(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0, 0, 0}, uint16(5), uint16(4091))
	f.Add([]byte{0x80}, uint16(4095), uint16(1))
	f.Add([]byte{0, 1, 0}, uint16(8190), uint16(8200))
	f.Fuzz(func(t *testing.T, mid []byte, before, after uint16) {
		lead := int(before) % (2 * len(zeroPage))
		b := make([]byte, lead+len(mid)+int(after)%(3*len(zeroPage)))
		copy(b[lead:], mid)
		for start := 0; start < 8 && start <= len(b); start++ {
			if got, want := IsZero(b[start:]), isZeroRef(b[start:]); got != want {
				t.Fatalf("IsZero(%d bytes from offset %d) = %v, the scalar loop says %v", len(b)-start, start, got, want)
			}
		}
	})
}
