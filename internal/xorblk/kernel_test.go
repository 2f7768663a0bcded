package xorblk

import (
	"bytes"
	"math/rand"
	"testing"
)

// The wide kernels take an unsafe fast path only when every operand is
// 8-byte aligned, falling back to the word path otherwise; either way the
// result must equal the byte-at-a-time reference for every combination of
// alignment and tail length. These tests sweep both dimensions explicitly
// (the fuzz targets explore them further), for every arity the fold
// hierarchy dispatches on: 1 (Xor), 2, 3, 4, and >4 (multi-pass foldAll).

// slab returns a deterministic pseudo-random buffer with headroom for the
// worst offset.
func slab(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	b := make([]byte, n+16)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// refFold returns the XOR of all srcs computed with the byte reference.
func refFold(n int, srcs [][]byte) []byte {
	out := make([]byte, n)
	for _, s := range srcs {
		xorBytes(out, s[:n])
	}
	return out
}

func TestKernelsMatchReferenceAcrossAlignments(t *testing.T) {
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 511, 4096, 4099}
	for _, size := range sizes {
		for _, dstOff := range []int{0, 1, 4, 8} {
			for _, srcOff := range []int{0, 3, 8} {
				for arity := 1; arity <= 6; arity++ {
					srcs := make([][]byte, arity)
					for i := range srcs {
						srcs[i] = slab(t, size, int64(size*100+srcOff*10+i))[srcOff : srcOff+size]
					}
					want := refFold(size, srcs)

					// Accumulating form: dst ^= XOR of srcs.
					dst := slab(t, size, int64(size+dstOff))[dstOff : dstOff+size]
					ref := append([]byte(nil), dst...)
					xorBytes(ref, want)
					AccumulateMulti(dst, srcs...)
					if !bytes.Equal(dst, ref) {
						t.Fatalf("AccumulateMulti size=%d dstOff=%d srcOff=%d arity=%d diverges from reference",
							size, dstOff, srcOff, arity)
					}

					// Overwriting form: dst = XOR of srcs.
					dst2 := slab(t, size, 7)[dstOff : dstOff+size]
					XorMulti(dst2, srcs...)
					if !bytes.Equal(dst2, want) {
						t.Fatalf("XorMulti size=%d dstOff=%d srcOff=%d arity=%d diverges from reference",
							size, dstOff, srcOff, arity)
					}
				}
			}
		}
	}
}

func TestXorIntoMatchesReferenceAcrossAlignments(t *testing.T) {
	for _, size := range []int{0, 5, 8, 64, 65, 321, 4096} {
		for _, off := range []int{0, 1, 8} {
			a := slab(t, size, 1)[off : off+size]
			b := slab(t, size, 2)[off : off+size]
			dst := make([]byte, size)
			XorInto(dst, a, b)
			want := append([]byte(nil), a...)
			xorBytes(want, b)
			if !bytes.Equal(dst, want) {
				t.Fatalf("XorInto size=%d off=%d diverges from reference", size, off)
			}
		}
	}
}

func TestXorWordsMatchesBytes(t *testing.T) {
	for _, size := range []int{0, 3, 8, 64, 67, 1024} {
		d1 := slab(t, size, 3)[:size]
		d2 := append([]byte(nil), d1...)
		s := slab(t, size, 4)[:size]
		xorWords(d1, s)
		xorBytes(d2, s)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("xorWords diverges from xorBytes at size %d", size)
		}
	}
}

// TestKernelAllocations asserts the kernels themselves are allocation-free:
// they are the innermost loops of every hot path, so a single allocation
// here multiplies across the whole stack.
func TestKernelAllocations(t *testing.T) {
	dst := make([]byte, 4096)
	srcs := [][]byte{make([]byte, 4096), make([]byte, 4096), make([]byte, 4096),
		make([]byte, 4096), make([]byte, 4096)}
	for name, fn := range map[string]func(){
		"Xor":        func() { Xor(dst, srcs[0]) },
		"xorBytes":   func() { xorBytes(dst, srcs[0]) },
		"xorWords":   func() { xorWords(dst, srcs[0]) },
		"XorInto":    func() { XorInto(dst, srcs[0], srcs[1]) },
		"XorMulti":   func() { XorMulti(dst, srcs...) },
		"Accumulate": func() { AccumulateMulti(dst, srcs...) },
		"IsZero":     func() { IsZero(dst) },
		"Equal":      func() { Equal(dst, srcs[0]) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}

// FuzzXorKernel cross-checks the dispatching Xor (wide under the default
// build, word under -tags purego) against xorBytes at fuzzer-chosen
// alignments and lengths, including the aligned-head/ragged-tail split the
// wide path carves.
func FuzzXorKernel(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0x5A}, 200), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 129), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, pool []byte, dstOff, srcOff uint8) {
		do, so := int(dstOff%8), int(srcOff%8)
		if len(pool) < do+so+2 {
			return
		}
		rest := pool[do+so:]
		n := len(rest) / 2
		src := rest[:n]
		if so > 0 {
			src = pool[so : so+n]
		}
		dst := make([]byte, n+do)[do:]
		copy(dst, rest[n:])
		ref := append([]byte(nil), dst...)
		Xor(dst, src)
		xorBytes(ref, src)
		if !bytes.Equal(dst, ref) {
			t.Fatalf("Xor (n=%d, dstOff=%d, srcOff=%d) disagrees with xorBytes", n, do, so)
		}
	})
}
