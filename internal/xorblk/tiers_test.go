package xorblk

import (
	"bytes"
	"testing"
)

// The dispatch hierarchy promises that every tier — assembly, wide, word —
// produces bit-identical output to the byte reference for every length and
// alignment. These tests run the promise against availableKernels(), so on
// an AVX-512 host the avx512, avx2, wide and word tiers are all verified,
// while purego/noasm builds verify exactly the tiers they ship.

// tierSrcs carves arity deterministic pseudo-random sources of the given
// size at srcOff within their slabs.
func tierSrcs(t *testing.T, arity, size, srcOff int) [][]byte {
	t.Helper()
	srcs := make([][]byte, arity)
	for i := range srcs {
		srcs[i] = slab(t, size+srcOff, int64(size*1000+srcOff*10+i))[srcOff : srcOff+size]
	}
	return srcs
}

// runTierShapes drives all five shapes of one kernel set over the given
// operands and fails on any divergence from the byte reference.
func runTierShapes(t *testing.T, k kernelSet, size, dstOff int, srcs [][]byte) {
	t.Helper()

	// xor: dst ^= srcs[0]
	dst := slab(t, size+dstOff, int64(size+dstOff))[dstOff : dstOff+size]
	ref := append([]byte(nil), dst...)
	k.xor(dst, srcs[0])
	xorBytes(ref, srcs[0])
	if !bytes.Equal(dst, ref) {
		t.Fatalf("%s xor size=%d dstOff=%d diverges from reference", k.name, size, dstOff)
	}

	// into: dst = srcs[0] ^ srcs[1]
	dst = slab(t, size+dstOff, 11)[dstOff : dstOff+size]
	k.into(dst, srcs[0], srcs[1])
	ref = append([]byte(nil), srcs[0]...)
	xorBytes(ref, srcs[1])
	if !bytes.Equal(dst, ref) {
		t.Fatalf("%s into size=%d dstOff=%d diverges from reference", k.name, size, dstOff)
	}

	// fold2/fold3/fold4: dst ^= XOR of the first 2/3/4 sources.
	for arity := 2; arity <= 4; arity++ {
		dst = slab(t, size+dstOff, int64(13+arity))[dstOff : dstOff+size]
		ref = append([]byte(nil), dst...)
		xorBytes(ref, refFold(size, srcs[:arity]))
		switch arity {
		case 2:
			k.fold2(dst, srcs[0], srcs[1])
		case 3:
			k.fold3(dst, srcs[0], srcs[1], srcs[2])
		case 4:
			k.fold4(dst, srcs[0], srcs[1], srcs[2], srcs[3])
		}
		if !bytes.Equal(dst, ref) {
			t.Fatalf("%s fold%d size=%d dstOff=%d diverges from reference", k.name, arity, size, dstOff)
		}
	}
}

func TestAvailableKernelsMatchReference(t *testing.T) {
	sizes := []int{0, 1, 31, 32, 33, 63, 64, 65, 96, 127, 128, 255, 256, 257,
		511, 1024, 4096, 4099, 8192}
	for _, k := range availableKernels() {
		t.Run(k.name, func(t *testing.T) {
			for _, size := range sizes {
				for _, dstOff := range []int{0, 1, 7, 8} {
					for _, srcOff := range []int{0, 3, 8} {
						runTierShapes(t, k, size, dstOff, tierSrcs(t, 4, size, srcOff))
					}
				}
			}
		})
	}
}

// TestTierSelection pins the dispatch bookkeeping: the first available
// kernel is the one KernelName reports and the one Tiers leads with, the
// word tier is always present as the portable floor, and the byte
// reference closes the benchmark tier list.
func TestTierSelection(t *testing.T) {
	ks := availableKernels()
	if len(ks) == 0 {
		t.Fatal("availableKernels returned no tiers")
	}
	if ks[0].name != KernelName {
		t.Fatalf("KernelName = %q but fastest available tier is %q", KernelName, ks[0].name)
	}
	if ks[len(ks)-1].name != "word" {
		t.Fatalf("tier list must end with the word tier, got %q", ks[len(ks)-1].name)
	}
	tiers := Tiers()
	if tiers[0].Name != KernelName {
		t.Fatalf("Tiers()[0] = %q, want KernelName %q", tiers[0].Name, KernelName)
	}
	if last := tiers[len(tiers)-1]; last.Name != "byte" {
		t.Fatalf("Tiers() must end with the byte reference, got %q", last.Name)
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.name] {
			t.Fatalf("tier %q listed twice", k.name)
		}
		seen[k.name] = true
	}
}

// TestTierAllocations pins every shape of every tier at zero allocations:
// the dispatchers pass &slice[0] into //go:noescape assembly stubs, and a
// single escape would multiply across all hot paths (the PR 4 contract).
func TestTierAllocations(t *testing.T) {
	dst := make([]byte, 4096)
	srcs := [][]byte{make([]byte, 4096), make([]byte, 4096),
		make([]byte, 4096), make([]byte, 4096)}
	for _, k := range availableKernels() {
		for name, fn := range map[string]func(){
			"xor":   func() { k.xor(dst, srcs[0]) },
			"into":  func() { k.into(dst, srcs[0], srcs[1]) },
			"fold2": func() { k.fold2(dst, srcs[0], srcs[1]) },
			"fold3": func() { k.fold3(dst, srcs[0], srcs[1], srcs[2]) },
			"fold4": func() { k.fold4(dst, srcs[0], srcs[1], srcs[2], srcs[3]) },
		} {
			if n := testing.AllocsPerRun(100, fn); n != 0 {
				t.Errorf("%s %s allocates %.1f times per call, want 0", k.name, name, n)
			}
		}
	}
}

// FuzzKernelTiers cross-checks all five shapes of every tier the host can
// run against the byte reference at fuzzer-chosen lengths and alignments —
// the cross-tier equivalence contract explored beyond the deterministic
// sweeps.
func FuzzKernelTiers(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0x5A}, 400), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 261), uint8(7), uint8(0))
	f.Add(bytes.Repeat([]byte{0xA5}, 1030), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, pool []byte, dstOff, srcOff uint8) {
		do, so := int(dstOff%8), int(srcOff%8)
		if len(pool) < so+5 {
			return
		}
		pool = pool[so:]
		n := len(pool) / 5
		srcs := [][]byte{pool[0:n], pool[n : 2*n], pool[2*n : 3*n], pool[3*n : 4*n]}
		seed := pool[4*n : 5*n]
		for _, k := range availableKernels() {
			// xor
			dst := make([]byte, n+do)[do:]
			copy(dst, seed)
			ref := append([]byte(nil), dst...)
			k.xor(dst, srcs[0])
			xorBytes(ref, srcs[0])
			if !bytes.Equal(dst, ref) {
				t.Fatalf("%s xor (n=%d, dstOff=%d, srcOff=%d) diverges", k.name, n, do, so)
			}
			// into
			dst = make([]byte, n+do)[do:]
			k.into(dst, srcs[0], srcs[1])
			ref = append([]byte(nil), srcs[0]...)
			xorBytes(ref, srcs[1])
			if !bytes.Equal(dst, ref) {
				t.Fatalf("%s into (n=%d, dstOff=%d, srcOff=%d) diverges", k.name, n, do, so)
			}
			// folds
			for arity := 2; arity <= 4; arity++ {
				dst = make([]byte, n+do)[do:]
				copy(dst, seed)
				ref = append([]byte(nil), dst...)
				xorBytes(ref, refFold(n, srcs[:arity]))
				switch arity {
				case 2:
					k.fold2(dst, srcs[0], srcs[1])
				case 3:
					k.fold3(dst, srcs[0], srcs[1], srcs[2])
				case 4:
					k.fold4(dst, srcs[0], srcs[1], srcs[2], srcs[3])
				}
				if !bytes.Equal(dst, ref) {
					t.Fatalf("%s fold%d (n=%d, dstOff=%d, srcOff=%d) diverges", k.name, arity, n, do, so)
				}
			}
		}
	})
}
