//go:build !purego && !noasm

// amd64 XOR kernels. Shared conventions (see stub_amd64.go for the Go
// signatures and dispatch_amd64.go for the selection logic):
//
//   - n is a positive multiple of the lane width (32 bytes for the AVX2
//     kernels, 64 for AVX-512); the dispatcher folds the ragged tail
//     through the word path.
//   - Sources and destination may be unaligned (VMOVDQU/VMOVDQU64 loads
//     and stores).
//   - The main loops process four vector registers per iteration (128 B
//     for AVX2, 256 B for AVX-512); the remainder loop finishes one lane
//     at a time (at most three lanes).
//   - Every kernel ends with VZEROUPPER so the caller's SSE code pays no
//     AVX transition penalty.

#include "textflag.h"

// func avx2Xor(dst, src *byte, n int)
// dst[i] ^= src[i]
TEXT ·avx2Xor(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    CX, DX
	SHRQ    $7, CX            // CX = 128-byte iterations
	ANDQ    $127, DX          // DX = remainder bytes (multiple of 32)

loop:
	TESTQ   CX, CX
	JZ      rem
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    CX
	JMP     loop

rem:
	TESTQ   DX, DX
	JZ      done
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, DX
	JMP     rem

done:
	VZEROUPPER
	RET

// func avx2Into(dst, a, b *byte, n int)
// dst[i] = a[i] ^ b[i] (dst is not read)
TEXT ·avx2Into(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    n+24(FP), CX
	MOVQ    CX, DX
	SHRQ    $7, CX
	ANDQ    $127, DX

loop:
	TESTQ   CX, CX
	JZ      rem
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (R8), Y0, Y0
	VPXOR   32(R8), Y1, Y1
	VPXOR   64(R8), Y2, Y2
	VPXOR   96(R8), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, R8
	ADDQ    $128, DI
	DECQ    CX
	JMP     loop

rem:
	TESTQ   DX, DX
	JZ      done
	VMOVDQU (SI), Y0
	VPXOR   (R8), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	SUBQ    $32, DX
	JMP     rem

done:
	VZEROUPPER
	RET

// func avx2Fold2(dst, a, b *byte, n int)
// dst[i] ^= a[i] ^ b[i]
TEXT ·avx2Fold2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    n+24(FP), CX
	MOVQ    CX, DX
	SHRQ    $7, CX
	ANDQ    $127, DX

loop:
	TESTQ   CX, CX
	JZ      rem
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (R8), Y0, Y0
	VPXOR   32(R8), Y1, Y1
	VPXOR   64(R8), Y2, Y2
	VPXOR   96(R8), Y3, Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, R8
	ADDQ    $128, DI
	DECQ    CX
	JMP     loop

rem:
	TESTQ   DX, DX
	JZ      done
	VMOVDQU (SI), Y0
	VPXOR   (R8), Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	SUBQ    $32, DX
	JMP     rem

done:
	VZEROUPPER
	RET

// func avx2Fold3(dst, a, b, c *byte, n int)
// dst[i] ^= a[i] ^ b[i] ^ c[i]
TEXT ·avx2Fold3(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    c+24(FP), R9
	MOVQ    n+32(FP), CX
	MOVQ    CX, DX
	SHRQ    $7, CX
	ANDQ    $127, DX

loop:
	TESTQ   CX, CX
	JZ      rem
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (R8), Y0, Y0
	VPXOR   32(R8), Y1, Y1
	VPXOR   64(R8), Y2, Y2
	VPXOR   96(R8), Y3, Y3
	VPXOR   (R9), Y0, Y0
	VPXOR   32(R9), Y1, Y1
	VPXOR   64(R9), Y2, Y2
	VPXOR   96(R9), Y3, Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, R8
	ADDQ    $128, R9
	ADDQ    $128, DI
	DECQ    CX
	JMP     loop

rem:
	TESTQ   DX, DX
	JZ      done
	VMOVDQU (SI), Y0
	VPXOR   (R8), Y0, Y0
	VPXOR   (R9), Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $32, DX
	JMP     rem

done:
	VZEROUPPER
	RET

// func avx2Fold4(dst, a, b, c, e *byte, n int)
// dst[i] ^= a[i] ^ b[i] ^ c[i] ^ e[i]
TEXT ·avx2Fold4(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    c+24(FP), R9
	MOVQ    e+32(FP), R10
	MOVQ    n+40(FP), CX
	MOVQ    CX, DX
	SHRQ    $7, CX
	ANDQ    $127, DX

loop:
	TESTQ   CX, CX
	JZ      rem
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (R8), Y0, Y0
	VPXOR   32(R8), Y1, Y1
	VPXOR   64(R8), Y2, Y2
	VPXOR   96(R8), Y3, Y3
	VPXOR   (R9), Y0, Y0
	VPXOR   32(R9), Y1, Y1
	VPXOR   64(R9), Y2, Y2
	VPXOR   96(R9), Y3, Y3
	VPXOR   (R10), Y0, Y0
	VPXOR   32(R10), Y1, Y1
	VPXOR   64(R10), Y2, Y2
	VPXOR   96(R10), Y3, Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, R8
	ADDQ    $128, R9
	ADDQ    $128, R10
	ADDQ    $128, DI
	DECQ    CX
	JMP     loop

rem:
	TESTQ   DX, DX
	JZ      done
	VMOVDQU (SI), Y0
	VPXOR   (R8), Y0, Y0
	VPXOR   (R9), Y0, Y0
	VPXOR   (R10), Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	SUBQ    $32, DX
	JMP     rem

done:
	VZEROUPPER
	RET

// func avx512Xor(dst, src *byte, n int)
// dst[i] ^= src[i]
TEXT ·avx512Xor(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    CX, DX
	SHRQ    $8, CX            // CX = 256-byte iterations
	ANDQ    $255, DX          // DX = remainder bytes (multiple of 64)

loop:
	TESTQ     CX, CX
	JZ        rem
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VPXORQ    128(DI), Z2, Z2
	VPXORQ    192(DI), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DI
	DECQ      CX
	JMP       loop

rem:
	TESTQ     DX, DX
	JZ        done
	VMOVDQU64 (SI), Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, DX
	JMP       rem

done:
	VZEROUPPER
	RET

// func avx512Into(dst, a, b *byte, n int)
// dst[i] = a[i] ^ b[i] (dst is not read)
TEXT ·avx512Into(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    n+24(FP), CX
	MOVQ    CX, DX
	SHRQ    $8, CX
	ANDQ    $255, DX

loop:
	TESTQ     CX, CX
	JZ        rem
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    128(R8), Z2, Z2
	VPXORQ    192(R8), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, R8
	ADDQ      $256, DI
	DECQ      CX
	JMP       loop

rem:
	TESTQ     DX, DX
	JZ        done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, DI
	SUBQ      $64, DX
	JMP       rem

done:
	VZEROUPPER
	RET

// func avx512Fold2(dst, a, b *byte, n int)
// dst[i] ^= a[i] ^ b[i]
TEXT ·avx512Fold2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    n+24(FP), CX
	MOVQ    CX, DX
	SHRQ    $8, CX
	ANDQ    $255, DX

loop:
	TESTQ     CX, CX
	JZ        rem
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    128(R8), Z2, Z2
	VPXORQ    192(R8), Z3, Z3
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VPXORQ    128(DI), Z2, Z2
	VPXORQ    192(DI), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, R8
	ADDQ      $256, DI
	DECQ      CX
	JMP       loop

rem:
	TESTQ     DX, DX
	JZ        done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, DI
	SUBQ      $64, DX
	JMP       rem

done:
	VZEROUPPER
	RET

// func avx512Fold3(dst, a, b, c *byte, n int)
// dst[i] ^= a[i] ^ b[i] ^ c[i]
TEXT ·avx512Fold3(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    c+24(FP), R9
	MOVQ    n+32(FP), CX
	MOVQ    CX, DX
	SHRQ    $8, CX
	ANDQ    $255, DX

loop:
	TESTQ     CX, CX
	JZ        rem
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    128(R8), Z2, Z2
	VPXORQ    192(R8), Z3, Z3
	VPXORQ    (R9), Z0, Z0
	VPXORQ    64(R9), Z1, Z1
	VPXORQ    128(R9), Z2, Z2
	VPXORQ    192(R9), Z3, Z3
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VPXORQ    128(DI), Z2, Z2
	VPXORQ    192(DI), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, R8
	ADDQ      $256, R9
	ADDQ      $256, DI
	DECQ      CX
	JMP       loop

rem:
	TESTQ     DX, DX
	JZ        done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VPXORQ    (R9), Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, R9
	ADDQ      $64, DI
	SUBQ      $64, DX
	JMP       rem

done:
	VZEROUPPER
	RET

// func avx512Fold4(dst, a, b, c, e *byte, n int)
// dst[i] ^= a[i] ^ b[i] ^ c[i] ^ e[i]
TEXT ·avx512Fold4(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    c+24(FP), R9
	MOVQ    e+32(FP), R10
	MOVQ    n+40(FP), CX
	MOVQ    CX, DX
	SHRQ    $8, CX
	ANDQ    $255, DX

loop:
	TESTQ     CX, CX
	JZ        rem
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    128(R8), Z2, Z2
	VPXORQ    192(R8), Z3, Z3
	VPXORQ    (R9), Z0, Z0
	VPXORQ    64(R9), Z1, Z1
	VPXORQ    128(R9), Z2, Z2
	VPXORQ    192(R9), Z3, Z3
	VPXORQ    (R10), Z0, Z0
	VPXORQ    64(R10), Z1, Z1
	VPXORQ    128(R10), Z2, Z2
	VPXORQ    192(R10), Z3, Z3
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VPXORQ    128(DI), Z2, Z2
	VPXORQ    192(DI), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, R8
	ADDQ      $256, R9
	ADDQ      $256, R10
	ADDQ      $256, DI
	DECQ      CX
	JMP       loop

rem:
	TESTQ     DX, DX
	JZ        done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VPXORQ    (R9), Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VPXORQ    (R10), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, R9
	ADDQ      $64, R10
	ADDQ      $64, DI
	SUBQ      $64, DX
	JMP       rem

done:
	VZEROUPPER
	RET
