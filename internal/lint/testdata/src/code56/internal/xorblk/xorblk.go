// Package xorblk stubs the production XOR kernels at their real import
// path. The byte loop below is deliberate: internal/xorblk is the one
// package the xorloop analyzer exempts, and running the analyzer over this
// stub asserts that exemption.
package xorblk

// Xor dispatches to the widest kernel the build allows.
func Xor(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// XorInto writes a^b into dst.
func XorInto(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// XorMulti folds srcs into dst and reports the XOR op count.
func XorMulti(dst []byte, srcs ...[]byte) int {
	for _, s := range srcs {
		Xor(dst, s)
	}
	return len(srcs) - 1
}
