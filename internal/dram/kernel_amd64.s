#include "textflag.h"

// func majVector(d, a, b, c []uint64, ma, mb, mc, md uint64)
//
// d[i] = maj(a[i]^ma, b[i]^mb, c[i]^mc) ^ md over whole 4-word blocks,
// eight words per iteration while they last. Each block is loaded in
// full before it is stored, so d may be one of a, b and c.
TEXT ·majVector(SB), NOSPLIT, $0-128
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	VPBROADCASTQ ma+96(FP), Y12
	VPBROADCASTQ mb+104(FP), Y13
	VPBROADCASTQ mc+112(FP), Y14
	VPBROADCASTQ md+120(FP), Y15
	SHRQ $2, CX
	JZ   majdone

majloop8:
	CMPQ CX, $2
	JB   majloop4
	VPXOR (SI), Y12, Y0
	VPXOR (R8), Y13, Y1
	VPXOR (R9), Y14, Y2
	VPXOR 32(SI), Y12, Y4
	VPXOR 32(R8), Y13, Y5
	VPXOR 32(R9), Y14, Y6
	VPAND Y0, Y1, Y3
	VPOR  Y0, Y1, Y0
	VPAND Y2, Y0, Y0
	VPOR  Y3, Y0, Y0
	VPXOR Y15, Y0, Y0
	VPAND Y4, Y5, Y7
	VPOR  Y4, Y5, Y4
	VPAND Y6, Y4, Y4
	VPOR  Y7, Y4, Y4
	VPXOR Y15, Y4, Y4
	VMOVDQU Y0, (DI)
	VMOVDQU Y4, 32(DI)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, DI
	SUBQ $2, CX
	JMP  majloop8

majloop4:
	TESTQ CX, CX
	JZ    majdone
	VPXOR (SI), Y12, Y0
	VPXOR (R8), Y13, Y1
	VPXOR (R9), Y14, Y2
	VPAND Y0, Y1, Y3
	VPOR  Y0, Y1, Y0
	VPAND Y2, Y0, Y0
	VPOR  Y3, Y0, Y0
	VPXOR Y15, Y0, Y0
	VMOVDQU Y0, (DI)

majdone:
	VZEROUPPER
	RET

// func xorVector(d, s []uint64, m uint64)
//
// d[i] = s[i] ^ m over whole 4-word blocks, eight words per iteration
// while they last. d may be s.
TEXT ·xorVector(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	VPBROADCASTQ m+48(FP), Y15
	SHRQ $2, CX
	JZ   xordone

xorloop8:
	CMPQ CX, $2
	JB   xorloop4
	VPXOR (SI), Y15, Y0
	VPXOR 32(SI), Y15, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JMP  xorloop8

xorloop4:
	TESTQ CX, CX
	JZ    xordone
	VPXOR (SI), Y15, Y0
	VMOVDQU Y0, (DI)

xordone:
	VZEROUPPER
	RET

// func majVector512(d, a, b, c []uint64, ma, mb, mc, md uint64)
//
// d[i] = maj(a[i]^ma, b[i]^mb, c[i]^mc) ^ md over whole 8-word blocks,
// sixteen words per iteration while they last. Majority is self-dual,
// so md folds into the input masks and VPTERNLOGQ $0xE8 computes the
// rest. Each block is loaded in full before it is stored, so d may be
// one of a, b and c.
TEXT ·majVector512(SB), NOSPLIT, $0-128
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ md+120(FP), AX
	MOVQ ma+96(FP), DX
	XORQ AX, DX
	VPBROADCASTQ DX, Z12
	MOVQ mb+104(FP), DX
	XORQ AX, DX
	VPBROADCASTQ DX, Z13
	MOVQ mc+112(FP), DX
	XORQ AX, DX
	VPBROADCASTQ DX, Z14
	SHRQ $3, CX
	JZ   maj512done

maj512loop16:
	CMPQ CX, $2
	JB   maj512loop8
	VPXORQ (SI), Z12, Z0
	VPXORQ (R8), Z13, Z1
	VPXORQ (R9), Z14, Z2
	VPXORQ 64(SI), Z12, Z3
	VPXORQ 64(R8), Z13, Z4
	VPXORQ 64(R9), Z14, Z5
	VPTERNLOGQ $0xE8, Z2, Z1, Z0
	VPTERNLOGQ $0xE8, Z5, Z4, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z3, 64(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, DI
	SUBQ $2, CX
	JMP  maj512loop16

maj512loop8:
	TESTQ CX, CX
	JZ    maj512done
	VPXORQ (SI), Z12, Z0
	VPXORQ (R8), Z13, Z1
	VPXORQ (R9), Z14, Z2
	VPTERNLOGQ $0xE8, Z2, Z1, Z0
	VMOVDQU64 Z0, (DI)

maj512done:
	VZEROUPPER
	RET

// func xorVector512(d, s []uint64, m uint64)
//
// d[i] = s[i] ^ m over whole 8-word blocks, sixteen words per
// iteration while they last. d may be s.
TEXT ·xorVector512(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	VPBROADCASTQ m+48(FP), Z15
	SHRQ $3, CX
	JZ   xor512done

xor512loop16:
	CMPQ CX, $2
	JB   xor512loop8
	VPXORQ (SI), Z15, Z0
	VPXORQ 64(SI), Z15, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JMP  xor512loop16

xor512loop8:
	TESTQ CX, CX
	JZ    xor512done
	VPXORQ (SI), Z15, Z0
	VMOVDQU64 Z0, (DI)

xor512done:
	VZEROUPPER
	RET

// polarity<> is {zeros, ones}: the 4-word mask a row entry XORs in,
// at offset 0 for a plain entry and 32 for a complemented one.
DATA polarity<>+0(SB)/8, $0
DATA polarity<>+8(SB)/8, $0
DATA polarity<>+16(SB)/8, $0
DATA polarity<>+24(SB)/8, $0
DATA polarity<>+32(SB)/8, $-1
DATA polarity<>+40(SB)/8, $-1
DATA polarity<>+48(SB)/8, $-1
DATA polarity<>+56(SB)/8, $-1
GLOBL polarity<>(SB), RODATA|NOPTR, $64

// ROW resolves the row entry at off(DI): the row's storage into AX and
// its polarity's offset in polarity<> into BX. A table entry is a
// slice header: 24 bytes, base pointer first.
#define ROW(off) \
	MOVLQSX off(DI), AX; \
	MOVQ    AX, BX; \
	SARQ    $63, BX; \
	XORQ    BX, AX; \
	ANDQ    $32, BX; \
	LEAQ    (AX)(AX*2), AX; \
	MOVQ    (SI)(AX*8), AX

// LOAD sets Y to the 4 words of the row entry at off(DI), with the
// entry's polarity.
#define LOAD(off, Y) \
	ROW(off); \
	VMOVDQU (R9)(BX*1), Y; \
	VPXOR   (AX), Y, Y

// func steps4Vec(rows [][]uint64, code []int32)
//
// Each step's value is computed into Y0 from its inputs, all loaded
// first, then stored with each output's polarity. The loop checks
// nothing: code parses whole, every step has 1 to maxWrites outputs,
// and rows holds every row it names, each of 4 words or more. CX
// points one past the code.
TEXT ·steps4Vec(SB), NOSPLIT, $0-48
	MOVQ rows_base+0(FP), SI
	MOVQ code_base+24(FP), DI
	MOVQ code_len+32(FP), CX
	LEAQ (DI)(CX*4), CX
	LEAQ polarity<>(SB), R9
	CMPQ DI, CX
	JAE  done

step:
	MOVLQSX (DI), DX
	TESTQ $1, DX
	JNZ   majority
	LOAD(4, Y0)
	ADDQ  $8, DI
	JMP   outputs

majority:
	LOAD(4, Y0)
	LOAD(8, Y1)
	LOAD(12, Y2)
	VPAND Y0, Y1, Y3
	VPOR  Y0, Y1, Y0
	VPAND Y2, Y0, Y0
	VPOR  Y3, Y0, Y0
	ADDQ  $16, DI

outputs:
	SHRQ $1, DX // the output count, at least 1

output:
	ROW(0)
	VPXOR   (R9)(BX*1), Y0, Y1
	VMOVDQU Y1, (AX)
	ADDQ    $4, DI
	DECQ    DX
	JNZ     output
	CMPQ    DI, CX
	JB      step

done:
	VZEROUPPER
	RET
