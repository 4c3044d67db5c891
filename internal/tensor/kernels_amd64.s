//go:build amd64 && !purego

#include "textflag.h"

// AVX bodies of the tensor kernels (see kernels.go for the contracts).
// Every output element sees the same float ops in the same order as the
// pure-Go reference: VADDPS in place of ADDSS, VMULPS then VADDPS in place
// of MULSS then ADDSS, no FMA. The Go entry points check all bounds
// before calling in; nothing here checks them again.

// tailmask<>+32-4k is the VMASKMOVPS mask of the first k lanes (k = 1…7):
// eight all-ones words, then eight zero words. A masked load reads zeros
// into the other lanes and touches no memory for them; a masked store
// writes only the first k, so a width's last len mod 8 columns run in the
// same pass as its 8-column blocks.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAILMASK loads the mask of the first n lanes (1 ≤ n ≤ 7) into m and
// leaves -n in n; t is a scratch register.
#define TAILMASK(n, t, m) \
	LEAQ    tailmask<>+32(SB), t; \
	NEGQ    n; \
	VMOVUPS (t)(n*4), m

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
// Column blocks of 64, 32, 16 and 8 floats, then the last len(dst) mod 8
// under a lane mask: each block of dst is loaded into 8, 4, 2 or 1 ymm
// accumulators, every indexed source row is added in idx order, and the
// block is stored once.
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
	JLT  gtail
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
gtail:
	TESTQ CX, CX
	JZ    gdone
	TAILMASK(CX, AX, Y15)
	VMASKMOVPS (DI), Y15, Y0
	XORQ BX, BX
gtailloop:
	MOVLQSX    (R8)(BX*4), R11
	IMULQ      R10, R11
	ADDQ       SI, R11
	VMASKMOVPS (R11), Y15, Y1
	VADDPS     Y1, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JLT  gtailloop
	VMASKMOVPS Y0, Y15, (DI)
gdone:
	VZEROUPPER
	RET

// func axpyRowsAVX(dst, coef []float32, cstride int, b []float32, stride int)
//
// Column blocks and tail as in gatherSumAVX. Row p's coefficient is
// coef[p*cstride]: a pointer that steps cstride floats per row and stops
// at the end of coef. For each row whose coefficient is not ±0 (tested on
// the bits, so NaN is not skipped), it is broadcast and multiplied into
// the row, and the products are added to the accumulators.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ coef_base+24(FP), R8
	MOVQ coef_len+32(FP), R9
	LEAQ (R8)(R9*4), R9
	MOVQ cstride+48(FP), R13
	SHLQ $2, R13
	MOVQ b_base+56(FP), SI
	MOVQ stride+80(FP), R10
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
	MOVQ R8, R12
	MOVQ SI, R11
a64loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a64skip
	VBROADCASTSS (R12), Y8
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
	ADDQ R13, R12
	CMPQ R12, R9
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
	MOVQ R8, R12
	MOVQ SI, R11
a32loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a32skip
	VBROADCASTSS (R12), Y8
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
	ADDQ R13, R12
	CMPQ R12, R9
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
	MOVQ R8, R12
	MOVQ SI, R11
a16loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a16skip
	VBROADCASTSS (R12), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
a16skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a16loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $16, CX
a8:
	CMPQ CX, $8
	JLT  atail
	VMOVUPS 0(DI), Y0
	MOVQ R8, R12
	MOVQ SI, R11
a8loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a8skip
	VBROADCASTSS (R12), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
a8skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a8loop
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
atail:
	TESTQ CX, CX
	JZ    adone
	TAILMASK(CX, AX, Y15)
	VMASKMOVPS (DI), Y15, Y0
	MOVQ R8, R12
	MOVQ SI, R11
atailloop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    atailskip
	VBROADCASTSS (R12), Y8
	VMASKMOVPS   (R11), Y15, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y0
atailskip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  atailloop
	VMASKMOVPS Y0, Y15, (DI)
adone:
	VZEROUPPER
	RET

// func dotRowsAVX(out, a, bt []float32, stride int)
//
// Column blocks of 16 and 8 floats, then the last len(out) mod 8 under a
// lane mask. A block keeps four accumulator sets, set l summing the
// products at p ≡ l mod 4: a[p] is broadcast and multiplied by the
// block's columns of row p of bt. The sets are combined as
// ((s0+s1)+s2)+s3, then the last len(a) mod 4 products are added in
// order, which is dot's order for every column. a is the first operand of
// every multiply and the running sum the first of every add, so which
// NaN's payload reaches the output is fixed (TestNaNPayloadOperandOrder).
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R9
	MOVQ bt_base+48(FP), R8
	MOVQ stride+72(FP), R10
	SHLQ $2, R10
	MOVQ R9, R12
	ANDQ $-4, R12

d16:
	CMPQ CX, $16
	JLT  d8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ R8, R11
	XORQ AX, AX
	CMPQ AX, R12
	JGE  d16sum
d16loop:
	VBROADCASTSS 0(SI)(AX*4), Y8
	VMULPS  0(R11), Y8, Y12
	VADDPS  Y12, Y0, Y0
	VMULPS  32(R11), Y8, Y13
	VADDPS  Y13, Y1, Y1
	ADDQ    R10, R11
	VBROADCASTSS 4(SI)(AX*4), Y9
	VMULPS  0(R11), Y9, Y14
	VADDPS  Y14, Y2, Y2
	VMULPS  32(R11), Y9, Y15
	VADDPS  Y15, Y3, Y3
	ADDQ    R10, R11
	VBROADCASTSS 8(SI)(AX*4), Y10
	VMULPS  0(R11), Y10, Y12
	VADDPS  Y12, Y4, Y4
	VMULPS  32(R11), Y10, Y13
	VADDPS  Y13, Y5, Y5
	ADDQ    R10, R11
	VBROADCASTSS 12(SI)(AX*4), Y11
	VMULPS  0(R11), Y11, Y14
	VADDPS  Y14, Y6, Y6
	VMULPS  32(R11), Y11, Y15
	VADDPS  Y15, Y7, Y7
	ADDQ    R10, R11
	ADDQ $4, AX
	CMPQ AX, R12
	JLT  d16loop
d16sum:
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y0, Y0
	VADDPS Y7, Y1, Y1
	CMPQ AX, R9
	JGE  d16store
d16tail:
	VBROADCASTSS 0(SI)(AX*4), Y8
	VMULPS  0(R11), Y8, Y12
	VADDPS  Y12, Y0, Y0
	VMULPS  32(R11), Y8, Y13
	VADDPS  Y13, Y1, Y1
	ADDQ    R10, R11
	INCQ AX
	CMPQ AX, R9
	JLT  d16tail
d16store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $16, CX
	JMP  d16
d8:
	CMPQ CX, $8
	JLT  dtail
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R8, R11
	XORQ AX, AX
	CMPQ AX, R12
	JGE  d8sum
d8loop:
	VBROADCASTSS 0(SI)(AX*4), Y8
	VMULPS  (R11), Y8, Y12
	VADDPS  Y12, Y0, Y0
	ADDQ    R10, R11
	VBROADCASTSS 4(SI)(AX*4), Y9
	VMULPS  (R11), Y9, Y13
	VADDPS  Y13, Y1, Y1
	ADDQ    R10, R11
	VBROADCASTSS 8(SI)(AX*4), Y10
	VMULPS  (R11), Y10, Y14
	VADDPS  Y14, Y2, Y2
	ADDQ    R10, R11
	VBROADCASTSS 12(SI)(AX*4), Y11
	VMULPS  (R11), Y11, Y15
	VADDPS  Y15, Y3, Y3
	ADDQ    R10, R11
	ADDQ $4, AX
	CMPQ AX, R12
	JLT  d8loop
d8sum:
	VADDPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y0, Y0
	CMPQ AX, R9
	JGE  d8store
d8tail:
	VBROADCASTSS 0(SI)(AX*4), Y8
	VMULPS  (R11), Y8, Y12
	VADDPS  Y12, Y0, Y0
	ADDQ    R10, R11
	INCQ AX
	CMPQ AX, R9
	JLT  d8tail
d8store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, CX
dtail:
	TESTQ CX, CX
	JZ    ddone
	TAILMASK(CX, BX, Y15)
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R8, R11
	XORQ AX, AX
	CMPQ AX, R12
	JGE  dtsum
dtloop:
	VBROADCASTSS 0(SI)(AX*4), Y8
	VMASKMOVPS   (R11), Y15, Y12
	VMULPS       Y12, Y8, Y12
	VADDPS       Y12, Y0, Y0
	ADDQ         R10, R11
	VBROADCASTSS 4(SI)(AX*4), Y9
	VMASKMOVPS   (R11), Y15, Y13
	VMULPS       Y13, Y9, Y13
	VADDPS       Y13, Y1, Y1
	ADDQ         R10, R11
	VBROADCASTSS 8(SI)(AX*4), Y10
	VMASKMOVPS   (R11), Y15, Y14
	VMULPS       Y14, Y10, Y14
	VADDPS       Y14, Y2, Y2
	ADDQ         R10, R11
	VBROADCASTSS 12(SI)(AX*4), Y11
	VMASKMOVPS   (R11), Y15, Y12
	VMULPS       Y12, Y11, Y12
	VADDPS       Y12, Y3, Y3
	ADDQ         R10, R11
	ADDQ $4, AX
	CMPQ AX, R12
	JLT  dtloop
dtsum:
	VADDPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y0, Y0
	CMPQ AX, R9
	JGE  dtstore
dttail:
	VBROADCASTSS 0(SI)(AX*4), Y8
	VMASKMOVPS   (R11), Y15, Y12
	VMULPS       Y12, Y8, Y12
	VADDPS       Y12, Y0, Y0
	ADDQ         R10, R11
	INCQ AX
	CMPQ AX, R9
	JLT  dttail
dtstore:
	VMASKMOVPS Y0, Y15, (DI)
ddone:
	VZEROUPPER
	RET

// func reluAVX(dst, x []float32)
//
// VMAXPS with x as the first source and +0 as the second returns x where
// x > +0 and the second source otherwise, including for −0 and NaN: the
// reference's rule with no branch. Blocks of 32 and 8 floats, then the
// last len mod 8 under a lane mask.
TEXT ·reluAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VXORPS Y14, Y14, Y14

r32:
	CMPQ CX, $32
	JLT  r8
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMAXPS  Y14, Y0, Y0
	VMAXPS  Y14, Y1, Y1
	VMAXPS  Y14, Y2, Y2
	VMAXPS  Y14, Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  r32
r8:
	CMPQ CX, $8
	JLT  rtail
	VMOVUPS (SI), Y0
	VMAXPS  Y14, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  r8
rtail:
	TESTQ CX, CX
	JZ    rdone
	TAILMASK(CX, AX, Y15)
	VMASKMOVPS (SI), Y15, Y0
	VMAXPS     Y14, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
rdone:
	VZEROUPPER
	RET

// func reluGradAVX(dst, dy, y []float32)
//
// The mask +0 < y (ordered, so false for NaN and ±0) ANDed with dy: dy's
// bits where y > 0, +0 elsewhere. Blocks and tail as in reluAVX.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ dy_base+24(FP), SI
	MOVQ y_base+48(FP), R8
	VXORPS Y14, Y14, Y14

m32:
	CMPQ CX, $32
	JLT  m8
	VCMPPS  $1, 0(R8), Y14, Y0
	VCMPPS  $1, 32(R8), Y14, Y1
	VCMPPS  $1, 64(R8), Y14, Y2
	VCMPPS  $1, 96(R8), Y14, Y3
	VANDPS  0(SI), Y0, Y0
	VANDPS  32(SI), Y1, Y1
	VANDPS  64(SI), Y2, Y2
	VANDPS  96(SI), Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  m32
m8:
	CMPQ CX, $8
	JLT  mtail
	VCMPPS  $1, (R8), Y14, Y0
	VANDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  m8
mtail:
	TESTQ CX, CX
	JZ    mdone
	TAILMASK(CX, AX, Y15)
	VMASKMOVPS (R8), Y15, Y1
	VMASKMOVPS (SI), Y15, Y2
	VCMPPS     $1, Y1, Y14, Y0
	VANDPS     Y2, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
mdone:
	VZEROUPPER
	RET
