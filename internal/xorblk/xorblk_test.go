package xorblk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randBlock(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestXorMatchesBytes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 4096, 4097} {
		a := randBlock(r, n)
		b := randBlock(r, n)
		want := append([]byte(nil), a...)
		xorBytes(want, b)
		got := append([]byte(nil), a...)
		Xor(got, b)
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: Xor disagrees with xorBytes", n)
		}
	}
}

func TestXorSelfInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		orig := append([]byte(nil), a...)
		Xor(a, b)
		Xor(a, b)
		return bytes.Equal(a, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorCommutativeAssociative(t *testing.T) {
	f := func(a, b, c []byte) bool {
		n := min3(len(a), len(b), len(c))
		a, b, c = a[:n], b[:n], c[:n]
		// (a^b)^c
		x := append([]byte(nil), a...)
		Xor(x, b)
		Xor(x, c)
		// a^(c^b)
		y := append([]byte(nil), c...)
		Xor(y, b)
		Xor(y, a)
		return bytes.Equal(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func TestXorInto(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 3, 8, 100, 4096} {
		a := randBlock(r, n)
		b := randBlock(r, n)
		dst := randBlock(r, n) // garbage contents must be ignored
		XorInto(dst, a, b)
		want := append([]byte(nil), a...)
		Xor(want, b)
		if !bytes.Equal(dst, want) {
			t.Errorf("n=%d: XorInto wrong", n)
		}
	}
}

func TestXorMulti(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	srcs := make([][]byte, 5)
	for i := range srcs {
		srcs[i] = randBlock(r, 128)
	}
	dst := randBlock(r, 128)
	XorMulti(dst, srcs...)
	want := make([]byte, 128)
	for _, s := range srcs {
		xorBytes(want, s)
	}
	if !bytes.Equal(dst, want) {
		t.Error("XorMulti wrong")
	}
	// Zero sources zeroes dst.
	XorMulti(dst)
	if !IsZero(dst) {
		t.Error("XorMulti with no sources should zero dst")
	}
}

func TestAccumulateMulti(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := randBlock(r, 64)
	b := randBlock(r, 64)
	dst := append([]byte(nil), a...)
	n := AccumulateMulti(dst, b)
	if n != 1 {
		t.Errorf("op count = %d, want 1", n)
	}
	want := append([]byte(nil), a...)
	Xor(want, b)
	if !bytes.Equal(dst, want) {
		t.Error("AccumulateMulti wrong result")
	}
}

// isZeroRef is the loop IsZero was before it became a vector compare against
// a zero page: a word at a time, then the ragged tail a byte at a time.
func isZeroRef(b []byte) bool {
	n := len(b) &^ (wordSize - 1)
	for i := 0; i < n; i += wordSize {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	for i := n; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// TestIsZero: empty, all-zero and one set bit in every offset class (first
// and last byte, either side of a word and of a zero-page boundary), over
// lengths that are and are not multiples of the word and the page.
func TestIsZero(t *testing.T) {
	if !IsZero(nil) {
		t.Error("nil should be zero")
	}
	page := len(zeroPage)
	for _, n := range []int{0, 1, 7, 8, 9, 100, page - 1, page, page + 1, 2 * page, 4*page + 3} {
		b := make([]byte, n)
		if !IsZero(b) {
			t.Errorf("all-zero block of %d bytes not zero", n)
		}
		for _, pos := range []int{0, 7, 8, 9, n / 2, page - 1, page, page + 1, 2*page - 1, n - 9, n - 8, n - 1} {
			if pos < 0 || pos >= n {
				continue
			}
			b[pos] = 1 << (pos % 8)
			if IsZero(b) || isZeroRef(b) {
				t.Errorf("%d bytes: set bit at %d not detected (IsZero %v, old loop %v)", n, pos, IsZero(b), isZeroRef(b))
			}
			b[pos] = 0
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]byte{1, 2}, []byte{1, 2}) {
		t.Error("equal slices reported unequal")
	}
	if Equal([]byte{1, 2}, []byte{1, 3}) {
		t.Error("unequal contents reported equal")
	}
	if Equal([]byte{1}, []byte{1, 2}) {
		t.Error("unequal lengths reported equal")
	}
}

func TestXorPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"Xor":      func() { Xor(make([]byte, 3), make([]byte, 4)) },
		"xorBytes": func() { xorBytes(make([]byte, 3), make([]byte, 4)) },
		"XorInto":  func() { XorInto(make([]byte, 3), make([]byte, 3), make([]byte, 4)) },
		"XorMulti": func() { XorMulti(make([]byte, 3), make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
					return
				}
				// The message must name both lengths so the culprit block
				// is identifiable from the panic alone.
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "3") || !strings.Contains(msg, "4") {
					t.Errorf("%s: panic message %q does not include both lengths", name, msg)
				}
			}()
			f()
		}()
	}
}

// The per-path kernel benchmarks live in kernel_bench_test.go
// (BenchmarkXorKernel compares the wide, word and byte paths by size).
