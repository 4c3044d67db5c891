//go:build amd64 && !purego

#include "textflag.h"

// AVX bodies of the tensor kernels (see kernels.go for the contracts).
// Every output element sees the same float ops in the same order as the
// pure-Go reference: VADDPS/VADDSS in place of ADDSS, VMULPS then VADDPS in
// place of MULSS then ADDSS, no FMA. The Go entry points check all bounds
// before calling in; nothing here checks them again.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gatherSumAVX(dst, src []float32, idx []int32, stride int)
//
// Column blocks of 64, 32, 16 and 8 floats: each block of dst is loaded
// into 8, 4, 2 or 1 ymm accumulators, every indexed source row is added in
// idx order, and the block is stored once.
TEXT ·gatherSumAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ stride+72(FP), R10
	SHLQ $2, R10

g64:
	CMPQ CX, $64
	JLT  g32
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	XORQ BX, BX
g64loop:
	MOVLQSX (R8)(BX*4), R11
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	VADDPS  32(R11), Y1, Y1
	VADDPS  64(R11), Y2, Y2
	VADDPS  96(R11), Y3, Y3
	VADDPS  128(R11), Y4, Y4
	VADDPS  160(R11), Y5, Y5
	VADDPS  192(R11), Y6, Y6
	VADDPS  224(R11), Y7, Y7
	INCQ BX
	CMPQ BX, R9
	JLT  g64loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $64, CX
	JMP  g64
g32:
	CMPQ CX, $32
	JLT  g16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	XORQ BX, BX
g32loop:
	MOVLQSX (R8)(BX*4), R11
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	VADDPS  32(R11), Y1, Y1
	VADDPS  64(R11), Y2, Y2
	VADDPS  96(R11), Y3, Y3
	INCQ BX
	CMPQ BX, R9
	JLT  g32loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
g16:
	CMPQ CX, $16
	JLT  g8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	XORQ BX, BX
g16loop:
	MOVLQSX (R8)(BX*4), R11
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	VADDPS  32(R11), Y1, Y1
	INCQ BX
	CMPQ BX, R9
	JLT  g16loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $16, CX
g8:
	CMPQ CX, $8
	JLT  gdone
	VMOVUPS 0(DI), Y0
	XORQ BX, BX
g8loop:
	MOVLQSX (R8)(BX*4), R11
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JLT  g8loop
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
gdone:
	VZEROUPPER
	RET

// func axpyRowsAVX(dst, coef, b []float32, stride int)
//
// Column blocks as in gatherSumAVX. For each row p whose coef[p] is not ±0
// (tested on the bits, so NaN is not skipped), coef[p] is broadcast and
// multiplied into the row, and the products are added to the accumulators.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ coef_base+24(FP), R8
	MOVQ coef_len+32(FP), R9
	MOVQ b_base+48(FP), SI
	MOVQ stride+72(FP), R10
	SHLQ $2, R10

a64:
	CMPQ CX, $64
	JLT  a32
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	XORQ BX, BX
	MOVQ SI, R11
a64loop:
	MOVL  (R8)(BX*4), AX
	TESTL $0x7fffffff, AX
	JZ    a64skip
	VBROADCASTSS (R8)(BX*4), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(R11), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS 96(R11), Y8, Y12
	VADDPS Y12, Y3, Y3
	VMULPS 128(R11), Y8, Y13
	VADDPS Y13, Y4, Y4
	VMULPS 160(R11), Y8, Y14
	VADDPS Y14, Y5, Y5
	VMULPS 192(R11), Y8, Y9
	VADDPS Y9, Y6, Y6
	VMULPS 224(R11), Y8, Y10
	VADDPS Y10, Y7, Y7
a64skip:
	ADDQ R10, R11
	INCQ BX
	CMPQ BX, R9
	JLT  a64loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $64, CX
	JMP  a64
a32:
	CMPQ CX, $32
	JLT  a16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	XORQ BX, BX
	MOVQ SI, R11
a32loop:
	MOVL  (R8)(BX*4), AX
	TESTL $0x7fffffff, AX
	JZ    a32skip
	VBROADCASTSS (R8)(BX*4), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(R11), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS 96(R11), Y8, Y12
	VADDPS Y12, Y3, Y3
a32skip:
	ADDQ R10, R11
	INCQ BX
	CMPQ BX, R9
	JLT  a32loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
a16:
	CMPQ CX, $16
	JLT  a8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	XORQ BX, BX
	MOVQ SI, R11
a16loop:
	MOVL  (R8)(BX*4), AX
	TESTL $0x7fffffff, AX
	JZ    a16skip
	VBROADCASTSS (R8)(BX*4), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
a16skip:
	ADDQ R10, R11
	INCQ BX
	CMPQ BX, R9
	JLT  a16loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $16, CX
a8:
	CMPQ CX, $8
	JLT  adone
	VMOVUPS 0(DI), Y0
	XORQ BX, BX
	MOVQ SI, R11
a8loop:
	MOVL  (R8)(BX*4), AX
	TESTL $0x7fffffff, AX
	JZ    a8skip
	VBROADCASTSS (R8)(BX*4), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
a8skip:
	ADDQ R10, R11
	INCQ BX
	CMPQ BX, R9
	JLT  a8loop
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
adone:
	VZEROUPPER
	RET

// HSUM leaves ((acc[0]+acc[1])+acc[2])+acc[3] in lane 0 of s; t is scratch.
#define HSUM(acc, t, s) \
	VMOVSHDUP acc, t; \
	VADDSS    t, acc, s; \
	VMOVHLPS  acc, acc, t; \
	VADDSS    t, s, s; \
	VSHUFPS   $0xff, acc, acc, t; \
	VADDSS    t, s, s

// func dotRowsAVX(out, a, b []float32, stride int)
//
// Four output columns per pass share each load of a: xmm accumulator j
// holds the four partial sums of column j (lane l sums the products at
// indices ≡ l mod 4). They are combined left to right, then the last
// len(a) mod 4 products are added one by one; remaining columns run one
// at a time.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R9
	MOVQ b_base+48(FP), R8
	MOVQ stride+72(FP), R10
	SHLQ $2, R10
	MOVQ R9, R12
	ANDQ $-4, R12

d4:
	CMPQ CX, $4
	JLT  d1
	LEAQ (R8)(R10*1), R13
	LEAQ (R13)(R10*1), R11
	LEAQ (R11)(R10*1), DX
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	XORQ AX, AX
	CMPQ AX, R12
	JGE  d4sum
d4loop:
	VMOVUPS (SI)(AX*4), X4
	VMULPS  (R8)(AX*4), X4, X5
	VADDPS  X5, X0, X0
	VMULPS  (R13)(AX*4), X4, X6
	VADDPS  X6, X1, X1
	VMULPS  (R11)(AX*4), X4, X7
	VADDPS  X7, X2, X2
	VMULPS  (DX)(AX*4), X4, X8
	VADDPS  X8, X3, X3
	ADDQ $4, AX
	CMPQ AX, R12
	JLT  d4loop
d4sum:
	HSUM(X0, X4, X9)
	HSUM(X1, X5, X10)
	HSUM(X2, X6, X11)
	HSUM(X3, X7, X12)
	CMPQ AX, R9
	JGE  d4store
d4tail:
	VMOVSS (SI)(AX*4), X4
	VMULSS (R8)(AX*4), X4, X5
	VADDSS X5, X9, X9
	VMULSS (R13)(AX*4), X4, X6
	VADDSS X6, X10, X10
	VMULSS (R11)(AX*4), X4, X7
	VADDSS X7, X11, X11
	VMULSS (DX)(AX*4), X4, X8
	VADDSS X8, X12, X12
	INCQ AX
	CMPQ AX, R9
	JLT  d4tail
d4store:
	VMOVSS X9, 0(DI)
	VMOVSS X10, 4(DI)
	VMOVSS X11, 8(DI)
	VMOVSS X12, 12(DI)
	ADDQ $16, DI
	LEAQ (DX)(R10*1), R8
	SUBQ $4, CX
	JMP  d4

d1:
	TESTQ CX, CX
	JZ    ddone
	VXORPS X0, X0, X0
	XORQ AX, AX
	CMPQ AX, R12
	JGE  d1sum
d1loop:
	VMOVUPS (SI)(AX*4), X4
	VMULPS  (R8)(AX*4), X4, X5
	VADDPS  X5, X0, X0
	ADDQ $4, AX
	CMPQ AX, R12
	JLT  d1loop
d1sum:
	HSUM(X0, X4, X9)
	CMPQ AX, R9
	JGE  d1store
d1tail:
	VMOVSS (SI)(AX*4), X4
	VMULSS (R8)(AX*4), X4, X5
	VADDSS X5, X9, X9
	INCQ AX
	CMPQ AX, R9
	JLT  d1tail
d1store:
	VMOVSS X9, 0(DI)
	ADDQ $4, DI
	ADDQ R10, R8
	DECQ CX
	JMP  d1

ddone:
	VZEROUPPER
	RET
