//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpy4AVX(dst, r0, r1, r2, r3 *float64, n int, v *[4]float64)
//
// dst[j] += v[0]*r0[j] + v[1]*r1[j] + v[2]*r2[j] + v[3]*r3[j], each lane a
// fused-multiply-add chain in row order r0→r3 (matching axpy4Generic).
// Main loop handles 8 doubles per iteration (two YMM accumulators), then a
// 4-wide step, then a scalar FMA tail.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), R8
	MOVQ r2+24(FP), R9
	MOVQ r3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ v+48(FP), DX
	VBROADCASTSD (DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y8, Y0
	VFMADD231PD 32(SI)(AX*8), Y8, Y1
	VFMADD231PD (R8)(AX*8), Y9, Y0
	VFMADD231PD 32(R8)(AX*8), Y9, Y1
	VFMADD231PD (R9)(AX*8), Y10, Y0
	VFMADD231PD 32(R9)(AX*8), Y10, Y1
	VFMADD231PD (R10)(AX*8), Y11, Y0
	VFMADD231PD 32(R10)(AX*8), Y11, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  tail1
	VMOVUPD (DI)(AX*8), Y0
	VFMADD231PD (SI)(AX*8), Y8, Y0
	VFMADD231PD (R8)(AX*8), Y9, Y0
	VFMADD231PD (R9)(AX*8), Y10, Y0
	VFMADD231PD (R10)(AX*8), Y11, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX

tail1:
	CMPQ AX, CX
	JGE  done

scalar:
	VMOVSD (DI)(AX*8), X0
	VFMADD231SD (SI)(AX*8), X8, X0
	VFMADD231SD (R8)(AX*8), X9, X0
	VFMADD231SD (R9)(AX*8), X10, X0
	VFMADD231SD (R10)(AX*8), X11, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   scalar

done:
	VZEROUPPER
	RET

// func gramGroup4AVX(out, rows *float64, d, lo, hi int)
//
// Folds four contiguous input rows (rows[0:4d], row-major, stride d) into
// the upper-triangle output rows i in [lo, hi):
//   out[i*d+j] += Σ_t rows[t*d+i]·rows[t*d+j]   for j in [i, d)
// per entry one FMA chain in row order t=0→3, identical to axpy4AVX. The
// i-loop lives in assembly so one call covers a whole row group.
TEXT ·gramGroup4AVX(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ lo+24(FP), R11
	MOVQ hi+32(FP), R12
	MOVQ DX, R13
	SHLQ $3, R13              // R13 = row stride in bytes
	LEAQ (SI)(R13*1), R8      // rows[1]
	LEAQ (R8)(R13*1), R9      // rows[2]
	LEAQ (R9)(R13*1), R10     // rows[3]
	MOVQ R11, BX              // BX = i
	MOVQ R11, CX
	IMULQ R13, CX
	ADDQ DI, CX               // CX = &out[i*d]
	MOVQ DX, R11
	SUBQ $4, R11              // R11 = d-4 (4-wide loop bound)

gramiloop:
	CMPQ BX, R12
	JGE  gramdone
	VBROADCASTSD (SI)(BX*8), Y8
	VBROADCASTSD (R8)(BX*8), Y9
	VBROADCASTSD (R9)(BX*8), Y10
	VBROADCASTSD (R10)(BX*8), Y11
	MOVQ BX, AX               // AX = j, starts at the diagonal

gramj4:
	CMPQ AX, R11
	JG   gramjtail
	VMOVUPD (CX)(AX*8), Y0
	VFMADD231PD (SI)(AX*8), Y8, Y0
	VFMADD231PD (R8)(AX*8), Y9, Y0
	VFMADD231PD (R9)(AX*8), Y10, Y0
	VFMADD231PD (R10)(AX*8), Y11, Y0
	VMOVUPD Y0, (CX)(AX*8)
	ADDQ $4, AX
	JMP  gramj4

gramjtail:
	CMPQ AX, DX
	JGE  gramnexti
	VMOVSD (CX)(AX*8), X0
	VFMADD231SD (SI)(AX*8), X8, X0
	VFMADD231SD (R8)(AX*8), X9, X0
	VFMADD231SD (R9)(AX*8), X10, X0
	VFMADD231SD (R10)(AX*8), X11, X0
	VMOVSD X0, (CX)(AX*8)
	INCQ AX
	JMP  gramjtail

gramnexti:
	INCQ BX
	ADDQ R13, CX
	JMP  gramiloop

gramdone:
	VZEROUPPER
	RET

// func axpyAVX(y, x *float64, n int, a float64)
//
// y[j] += a*x[j]: one VMULPD, rounded, then one VADDPD per lane, never
// fused, so every entry is the bit-exact result of axpyGeneric. Main loop
// handles 8 doubles per iteration, then a 4-wide step, then a scalar tail.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y8
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  axpytail4

axpyloop8:
	VMULPD (SI)(AX*8), Y8, Y0
	VMULPD 32(SI)(AX*8), Y8, Y1
	VADDPD (DI)(AX*8), Y0, Y0
	VADDPD 32(DI)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JL   axpyloop8

axpytail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpytail1
	VMULPD (SI)(AX*8), Y8, Y0
	VADDPD (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX

axpytail1:
	CMPQ AX, CX
	JGE  axpydone

axpyscalar:
	VMULSD (SI)(AX*8), X8, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   axpyscalar

axpydone:
	VZEROUPPER
	RET

// func rotAVX(x, y *float64, n int, c, s float64)
//
// (x[j], y[j]) = (c*x[j] − s*y[j], s*x[j] + c*y[j]): per lane four
// VMULPDs, each rounded, then one VSUBPD and one VADDPD, never fused, so
// every entry is the bit-exact result of rotGeneric. Main loop handles 8
// doubles per iteration, then a 4-wide step, then a scalar tail.
TEXT ·rotAVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD c+24(FP), Y8
	VBROADCASTSD s+32(FP), Y9
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  rottail4

rotloop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD Y0, Y8, Y4         // c*x
	VMULPD Y1, Y8, Y5
	VMULPD Y2, Y9, Y6         // s*y
	VMULPD Y3, Y9, Y7
	VSUBPD Y6, Y4, Y4         // c*x − s*y
	VSUBPD Y7, Y5, Y5
	VMULPD Y0, Y9, Y0         // s*x
	VMULPD Y1, Y9, Y1
	VMULPD Y2, Y8, Y2         // c*y
	VMULPD Y3, Y8, Y3
	VADDPD Y2, Y0, Y0         // s*x + c*y
	VADDPD Y3, Y1, Y1
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, 32(SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JL   rotloop8

rottail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  rottail1
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y2
	VMULPD Y0, Y8, Y4
	VMULPD Y2, Y9, Y6
	VSUBPD Y6, Y4, Y4
	VMULPD Y0, Y9, Y0
	VMULPD Y2, Y8, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ $4, AX

rottail1:
	CMPQ AX, CX
	JGE  rotdone

rotscalar:
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X2
	VMULSD X0, X8, X4
	VMULSD X2, X9, X6
	VSUBSD X6, X4, X4
	VMULSD X0, X9, X0
	VMULSD X2, X8, X2
	VADDSD X2, X0, X0
	VMOVSD X4, (DI)(AX*8)
	VMOVSD X0, (SI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   rotscalar

rotdone:
	VZEROUPPER
	RET

// func axpy4ExactAVX(dst, r0, r1, r2, r3 *float64, n int, v *[4]float64)
//
// dst[j] = (((dst[j] + v[0]*r0[j]) + v[1]*r1[j]) + v[2]*r2[j]) + v[3]*r3[j]
// with every product rounded before its add (VMULPD then VADDPD, never
// fused): four AxpyVec calls in row order r0→r3, bit for bit, with one load
// and one store of dst. Main loop handles 8 doubles per iteration, then a
// 4-wide step, then a scalar tail.
TEXT ·axpy4ExactAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), R8
	MOVQ r2+24(FP), R9
	MOVQ r3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ v+48(FP), DX
	VBROADCASTSD (DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  x4tail4

x4loop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMULPD (SI)(AX*8), Y8, Y2
	VMULPD 32(SI)(AX*8), Y8, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VMULPD (R8)(AX*8), Y9, Y2
	VMULPD 32(R8)(AX*8), Y9, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VMULPD (R9)(AX*8), Y10, Y2
	VMULPD 32(R9)(AX*8), Y10, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VMULPD (R10)(AX*8), Y11, Y2
	VMULPD 32(R10)(AX*8), Y11, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JL   x4loop8

x4tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  x4tail1
	VMOVUPD (DI)(AX*8), Y0
	VMULPD (SI)(AX*8), Y8, Y2
	VADDPD Y2, Y0, Y0
	VMULPD (R8)(AX*8), Y9, Y2
	VADDPD Y2, Y0, Y0
	VMULPD (R9)(AX*8), Y10, Y2
	VADDPD Y2, Y0, Y0
	VMULPD (R10)(AX*8), Y11, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX

x4tail1:
	CMPQ AX, CX
	JGE  x4done

x4scalar:
	VMOVSD (DI)(AX*8), X0
	VMULSD (SI)(AX*8), X8, X2
	VADDSD X2, X0, X0
	VMULSD (R8)(AX*8), X9, X2
	VADDSD X2, X0, X0
	VMULSD (R9)(AX*8), X10, X2
	VADDSD X2, X0, X0
	VMULSD (R10)(AX*8), X11, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   x4scalar

x4done:
	VZEROUPPER
	RET
