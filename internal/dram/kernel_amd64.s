#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
