//go:build amd64 && !purego

#include "textflag.h"

// AVX bodies of the tensor kernels (see kernels.go for the contracts).
// Every output element sees the same float ops in the same order as the
// pure-Go reference: VADDPS in place of ADDSS, VMULPS then VADDPS in place
// of MULSS then ADDSS, no FMA except where the reference itself fuses
// (expAVX replays math.Exp's FMA sequence). The Go entry points check all
// lengths and strides before calling in; the one check made here is
// gatherSumAVX's, of each index against the highest valid row.

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

// func gatherSumAVX(dst, src []float32, idx []int32, stride, maxRow int) int
//
// Column blocks of 64, 32, 16 and 8 floats, then the last len(dst) mod 8
// under a lane mask: each block of dst is loaded into 8, 4, 2 or 1 ymm
// accumulators, every indexed source row is added in idx order, and the
// block is stored once. Each index is compared, unsigned and so negative
// ones too, against R14 before its row is read: maxRow in the first
// block's pass, which stores nothing until it has seen every index, and
// all ones after it, so the check costs one compare per index and no
// pass of its own.
TEXT ·gatherSumAVX(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ stride+72(FP), R10
	SHLQ $2, R10
	MOVQ maxRow+80(FP), R14

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
	CMPQ    R11, R14
	JA      gbad
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
	MOVQ $-1, R14
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
	CMPQ    R11, R14
	JA      gbad
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	VADDPS  32(R11), Y1, Y1
	VADDPS  64(R11), Y2, Y2
	VADDPS  96(R11), Y3, Y3
	INCQ BX
	CMPQ BX, R9
	JLT  g32loop
	MOVQ $-1, R14
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
	CMPQ    R11, R14
	JA      gbad
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	VADDPS  32(R11), Y1, Y1
	INCQ BX
	CMPQ BX, R9
	JLT  g16loop
	MOVQ $-1, R14
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
	CMPQ    R11, R14
	JA      gbad
	IMULQ   R10, R11
	ADDQ    SI, R11
	VADDPS  0(R11), Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JLT  g8loop
	MOVQ $-1, R14
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
	CMPQ       R11, R14
	JA         gbad
	IMULQ      R10, R11
	ADDQ       SI, R11
	VMASKMOVPS (R11), Y15, Y1
	VADDPS     Y1, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JLT  gtailloop
	MOVQ $-1, R14
	VMASKMOVPS Y0, Y15, (DI)
gdone:
	MOVQ $-1, ret+88(FP)
	VZEROUPPER
	RET
gbad:
	MOVQ BX, ret+88(FP)
	VZEROUPPER
	RET

// func axpyRowsAVX(dst, coef []float32, cstride int, b []float32, stride int)
//
// Column blocks of 64 floats in 8 ymm accumulators, as in gatherSumAVX;
// then the last len(dst) mod 64 (w columns, 1 ≤ w ≤ 63) in one pass over
// the coefficients with ⌈w/8⌉ accumulators (a1 … a8), the last one
// loaded, multiplied and stored under the lane mask of its 1 to 8
// columns, so a width such as 41 or 47 takes one pass, not three. Row p's
// coefficient is
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
	JLT  a64done
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
a64done:
	// w = CX columns left: DX = ⌈w/8⌉ − 1 plain blocks, then CX = the
	// last block's 1 to 8 lanes, whose mask goes to Y15; jump to a(DX+1).
	TESTQ CX, CX
	JZ    adone
	MOVQ  CX, DX
	DECQ  DX
	SHRQ  $3, DX
	MOVQ  DX, AX
	SHLQ  $3, AX
	SUBQ  AX, CX
	TAILMASK(CX, AX, Y15)
	CMPQ  DX, $0
	JEQ   a1
	CMPQ  DX, $1
	JEQ   a2
	CMPQ  DX, $2
	JEQ   a3
	CMPQ  DX, $3
	JEQ   a4
	CMPQ  DX, $4
	JEQ   a5
	CMPQ  DX, $5
	JEQ   a6
	CMPQ  DX, $6
	JEQ   a7
	JMP   a8
a1:
	VMASKMOVPS 0(DI), Y15, Y0
	MOVQ R8, R12
	MOVQ SI, R11
a1loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a1skip
	VBROADCASTSS (R12), Y8
	VMASKMOVPS 0(R11), Y15, Y9
	VMULPS     Y9, Y8, Y9
	VADDPS     Y9, Y0, Y0
a1skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a1loop
	VMASKMOVPS Y0, Y15, 0(DI)
	JMP  adone
a2:
	VMOVUPS 0(DI), Y0
	VMASKMOVPS 32(DI), Y15, Y1
	MOVQ R8, R12
	MOVQ SI, R11
a2loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a2skip
	VBROADCASTSS (R12), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMASKMOVPS 32(R11), Y15, Y10
	VMULPS     Y10, Y8, Y10
	VADDPS     Y10, Y1, Y1
a2skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a2loop
	VMOVUPS Y0, 0(DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	JMP  adone
a3:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMASKMOVPS 64(DI), Y15, Y2
	MOVQ R8, R12
	MOVQ SI, R11
a3loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a3skip
	VBROADCASTSS (R12), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMASKMOVPS 64(R11), Y15, Y11
	VMULPS     Y11, Y8, Y11
	VADDPS     Y11, Y2, Y2
a3skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a3loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMASKMOVPS Y2, Y15, 64(DI)
	JMP  adone
a4:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMASKMOVPS 96(DI), Y15, Y3
	MOVQ R8, R12
	MOVQ SI, R11
a4loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a4skip
	VBROADCASTSS (R12), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(R11), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMASKMOVPS 96(R11), Y15, Y12
	VMULPS     Y12, Y8, Y12
	VADDPS     Y12, Y3, Y3
a4skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a4loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMASKMOVPS Y3, Y15, 96(DI)
	JMP  adone
a5:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMASKMOVPS 128(DI), Y15, Y4
	MOVQ R8, R12
	MOVQ SI, R11
a5loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a5skip
	VBROADCASTSS (R12), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(R11), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS 96(R11), Y8, Y12
	VADDPS Y12, Y3, Y3
	VMASKMOVPS 128(R11), Y15, Y13
	VMULPS     Y13, Y8, Y13
	VADDPS     Y13, Y4, Y4
a5skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a5loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMASKMOVPS Y4, Y15, 128(DI)
	JMP  adone
a6:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMASKMOVPS 160(DI), Y15, Y5
	MOVQ R8, R12
	MOVQ SI, R11
a6loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a6skip
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
	VMASKMOVPS 160(R11), Y15, Y14
	VMULPS     Y14, Y8, Y14
	VADDPS     Y14, Y5, Y5
a6skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a6loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMASKMOVPS Y5, Y15, 160(DI)
	JMP  adone
a7:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMASKMOVPS 192(DI), Y15, Y6
	MOVQ R8, R12
	MOVQ SI, R11
a7loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a7skip
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
	VMASKMOVPS 192(R11), Y15, Y9
	VMULPS     Y9, Y8, Y9
	VADDPS     Y9, Y6, Y6
a7skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a7loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMASKMOVPS Y6, Y15, 192(DI)
	JMP  adone
a8:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMASKMOVPS 224(DI), Y15, Y7
	MOVQ R8, R12
	MOVQ SI, R11
a8loop:
	MOVL  (R12), AX
	TESTL $0x7fffffff, AX
	JZ    a8skip
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
	VMASKMOVPS 224(R11), Y15, Y10
	VMULPS     Y10, Y8, Y10
	VADDPS     Y10, Y7, Y7
a8skip:
	ADDQ R10, R11
	ADDQ R13, R12
	CMPQ R12, R9
	JLT  a8loop
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMASKMOVPS Y7, Y15, 224(DI)
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

// expconst<> holds math.Exp's constants (math/exp_amd64.s) four lanes
// each: +0 log2(e); +32, +64 ln 2 split high and low; +96 1/16; +128 …
// +352 the Taylor coefficients 1/8! … 1/2!, 1; +384 2; +416 Overflow.
// Then four int32 lanes each of the exponent bias 0x3ff (+448), 1 (+464)
// and 0x7fe (+480).
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+96(SB)/8, $0.0625
DATA expconst<>+104(SB)/8, $0.0625
DATA expconst<>+112(SB)/8, $0.0625
DATA expconst<>+120(SB)/8, $0.0625
DATA expconst<>+128(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+136(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+144(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+152(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+160(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+168(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+176(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+184(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+192(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+200(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+208(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+216(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+224(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+232(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+240(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+248(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+256(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+264(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+272(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+280(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+288(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+296(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+304(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+312(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+320(SB)/8, $0.5
DATA expconst<>+328(SB)/8, $0.5
DATA expconst<>+336(SB)/8, $0.5
DATA expconst<>+344(SB)/8, $0.5
DATA expconst<>+352(SB)/8, $1.0
DATA expconst<>+360(SB)/8, $1.0
DATA expconst<>+368(SB)/8, $1.0
DATA expconst<>+376(SB)/8, $1.0
DATA expconst<>+384(SB)/8, $2.0
DATA expconst<>+392(SB)/8, $2.0
DATA expconst<>+400(SB)/8, $2.0
DATA expconst<>+408(SB)/8, $2.0
DATA expconst<>+416(SB)/8, $7.09782712893384e+02
DATA expconst<>+424(SB)/8, $7.09782712893384e+02
DATA expconst<>+432(SB)/8, $7.09782712893384e+02
DATA expconst<>+440(SB)/8, $7.09782712893384e+02
DATA expconst<>+448(SB)/4, $0x3ff
DATA expconst<>+452(SB)/4, $0x3ff
DATA expconst<>+456(SB)/4, $0x3ff
DATA expconst<>+460(SB)/4, $0x3ff
DATA expconst<>+464(SB)/4, $1
DATA expconst<>+468(SB)/4, $1
DATA expconst<>+472(SB)/4, $1
DATA expconst<>+476(SB)/4, $1
DATA expconst<>+480(SB)/4, $0x7fe
DATA expconst<>+484(SB)/4, $0x7fe
DATA expconst<>+488(SB)/4, $0x7fe
DATA expconst<>+492(SB)/4, $0x7fe
GLOBL expconst<>(SB), RODATA|NOPTR, $496

// EXP4 replays the FMA path of math.Exp (archExp in math/exp_amd64.s) on
// the four lanes of Y0 and leaves the results in Y0:
//
//	k  = int32(x·log2e), rounded to nearest (VCVTPD2DQ as CVTSD2SL)
//	r  = ((x − k·ln2U) − k·ln2L) / 16        two fused negated mul-adds
//	p  = Horner over 1/8! … 1/2!, 1          seven fused mul-adds
//	e  = r·p; e = e·(e+2) three times; e = (e+2)·e + 1 fused
//	   = exp(r)−1 squared up four times, then +1
//	result = e · 2^k                          the bias added, shifted into place
//
// and sets bit l of DX for each lane l where archExp leaves that path:
// x above Overflow or NaN, or k+0x3ff outside [1, 0x7fe] (±Inf and
// NaN land here too, as CVTPD2DQ's 0x80000000). Uses Y1 to Y5 and AX.
#define EXP4 \
	VMULPD       expconst<>+0(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VCMPPD       $6, expconst<>+416(SB), Y0, Y3; \
	VFNMADD231PD expconst<>+32(SB), Y1, Y0; \
	VFNMADD231PD expconst<>+64(SB), Y1, Y0; \
	VPADDD       expconst<>+448(SB), X2, X2; \
	VPCMPGTD     expconst<>+480(SB), X2, X4; \
	VMOVDQU      expconst<>+464(SB), X5; \
	VPCMPGTD     X2, X5, X5; \
	VPOR         X5, X4, X4; \
	VMOVMSKPS    X4, DX; \
	VMOVMSKPD    Y3, AX; \
	ORL          AX, DX; \
	VPMOVZXDQ    X2, Y4; \
	VPSLLQ       $52, Y4, Y4; \
	VMULPD       expconst<>+96(SB), Y0, Y0; \
	VMOVUPD      expconst<>+128(SB), Y1; \
	VFMADD213PD  expconst<>+160(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+192(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+224(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+256(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+288(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+320(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+352(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expconst<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expconst<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expconst<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expconst<>+384(SB), Y0, Y1; \
	VFMADD213PD  expconst<>+352(SB), Y1, Y0; \
	VMULPD       Y4, Y0, Y0

// func expAVX(dst, x []float64) int
//
// Groups of four lanes, then the last len(x) mod 4 under a lane mask
// (the masked-off lanes read 0, which stays on the straight path). A
// group with a lane off the straight path is not stored: the count
// written so far is returned, and the caller takes that group through
// math.Exp.
TEXT ·expAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ BX, BX
e4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  etail
	VMOVUPD (SI)(BX*8), Y0
	EXP4
	TESTL DX, DX
	JNZ   edone
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  e4
etail:
	MOVQ CX, R8
	SUBQ BX, R8
	JZ   edone
	SHLQ $1, R8
	TAILMASK(R8, AX, Y15)
	VMASKMOVPD (SI)(BX*8), Y15, Y0
	EXP4
	TESTL DX, DX
	JNZ   edone
	VMASKMOVPD Y0, Y15, (DI)(BX*8)
	MOVQ CX, BX
edone:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func adamAVX(w, g, m, v []float32, b1, nb1, b2, nb2, wd float32, c1, c2, lr, eps float64)
//
// Eight elements per step. The moments are float32 VMULPS then VADDPS in
// adamRef's operand order; each half of m and v is widened to four
// doubles for m/c1, √(v/c2) + eps, lr times the one over the other
// (VDIVPD, VSQRTPD, VADDPD, VMULPD: correctly rounded, as the scalar
// ops are), narrowed once to float32 and subtracted from w.
TEXT ·adamAVX(SB), NOSPLIT, $0-152
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	VBROADCASTSS b1+96(FP), Y9
	VBROADCASTSS nb1+100(FP), Y10
	VBROADCASTSS b2+104(FP), Y11
	VBROADCASTSS nb2+108(FP), Y12
	VBROADCASTSS wd+112(FP), Y8
	VBROADCASTSD c1+120(FP), Y13
	VBROADCASTSD c2+128(FP), Y14
	VBROADCASTSD lr+136(FP), Y15
	VBROADCASTSD eps+144(FP), Y7
	XORQ BX, BX
adamloop:
	VMOVUPS (DI)(BX*4), Y0
	VMULPS  Y0, Y8, Y1
	VMOVUPS (SI)(BX*4), Y2
	VADDPS  Y1, Y2, Y2
	VMULPS  (R8)(BX*4), Y9, Y3
	VMULPS  Y2, Y10, Y1
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y3, (R8)(BX*4)
	VMULPS  (R9)(BX*4), Y11, Y4
	VMULPS  Y2, Y12, Y1
	VMULPS  Y2, Y1, Y1
	VADDPS  Y1, Y4, Y4
	VMOVUPS Y4, (R9)(BX*4)
	VCVTPS2PD    X3, Y5
	VCVTPS2PD    X4, Y6
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y4, X4
	VCVTPS2PD    X3, Y3
	VCVTPS2PD    X4, Y4
	VDIVPD  Y13, Y5, Y5
	VDIVPD  Y13, Y3, Y3
	VDIVPD  Y14, Y6, Y6
	VDIVPD  Y14, Y4, Y4
	VSQRTPD Y6, Y6
	VSQRTPD Y4, Y4
	VADDPD  Y7, Y6, Y6
	VADDPD  Y7, Y4, Y4
	VMULPD  Y5, Y15, Y5
	VMULPD  Y3, Y15, Y3
	VDIVPD  Y6, Y5, Y5
	VDIVPD  Y4, Y3, Y3
	VCVTPD2PSY  Y5, X5
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y5, Y5
	VSUBPS  Y5, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  adamloop
	VZEROUPPER
	RET
