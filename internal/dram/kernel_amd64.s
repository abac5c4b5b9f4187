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

// ENTRY resolves the plan row entry at addr: the row's storage into P
// and the entry's polarity, all zeros or all ones, into M.
#define ENTRY(addr, P, M) \
	MOVLQSX addr, P; \
	MOVQ    P, M; \
	SARQ    $63, M; \
	XORQ    M, P; \
	LEAQ    (P)(P*2), P; \
	MOVQ    (SI)(P*8), P

// OUTS stores the block in Z0 at offset BX, under the block's mask K2,
// to the first output (R11) and then to each extra output in the table
// from 0(SP) up to R12, XORed with its polarity relative to the first.
// Outputs are stored in step order, so where two name one row the last
// wins. loop and done are the labels the expansion defines.
#define OUTS(loop, done) \
	VMOVDQU64   Z0, K2, (R11)(BX*1); \
	LEAQ        0(SP), DX; \
loop: \
	CMPQ        DX, R12; \
	JAE         done; \
	MOVQ        (DX), AX; \
	VPXORQ.BCST 8(DX), Z0, Z1; \
	VMOVDQU64   Z1, K2, (AX)(BX*1); \
	ADDQ        $16, DX; \
	JMP         loop; \
done:

// NEXTBLOCK advances BX to the next block and jumps to body while a
// whole block is left; at the row's end it runs body once more over
// the last partial block, with K2 set to the tail mask K1, if there is
// one, and then goes on to the next step.
#define NEXTBLOCK(body) \
	ADDQ     $64, BX; \
	CMPQ     BX, R13; \
	JB       body; \
	JA       next; \
	KORTESTW K1, K1; \
	JZ       next; \
	KMOVW    K1, K2; \
	JMP      body

// func stepsVec512(rows [][]uint64, code []int32, words int)
//
// Each step is one pass over its rows in 8-word ZMM blocks: a block
// of the step's value is computed from its inputs, all loaded first,
// and stored to every output before the next block is read, so an
// output may alias an input. The first output's polarity folds into
// the input masks (majority is self-dual, and a copy is an XOR), so
// VPTERNLOGQ $0xE8 leaves the first output's block in Z0; an extra
// output XORs in its polarity relative to the first. A row's last
// words&7 words form one block under the opmask K1; the whole blocks
// run under K3, all ones. The loop checks nothing: code parses whole,
// every step has 1 to maxWrites outputs, and rows holds every row it
// names, each of words words. The frame holds the extra outputs of
// the current step, 16 bytes each (row storage, relative polarity),
// up to maxWrites-1. SI holds rows, DI the step, CX one past the code
// and R13 the bytes of whole blocks per row; in the block loops R8,
// R9 and R10 hold the inputs, R11 the first output, R12 the end of
// the extra-output table and BX the block's offset.
TEXT ·stepsVec512(SB), NOSPLIT, $128-56
	MOVQ  words+48(FP), CX
	MOVQ  CX, R13
	ANDQ  $7, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	MOVL  $0xff, AX
	KMOVW AX, K3
	SHRQ  $3, R13
	SHLQ  $6, R13
	MOVQ  rows_base+0(FP), SI
	MOVQ  code_base+24(FP), DI
	MOVQ  code_len+32(FP), CX
	LEAQ  (DI)(CX*4), CX
	CMPQ  DI, CX
	JAE   done

step:
	MOVLQSX (DI), R12 // the header
	MOVQ    R12, AX
	ANDQ    $1, AX    // 1 for a majority, whose inputs are 8 bytes more
	LEAQ    8(DI)(AX*8), R10
	ENTRY(0(R10), R11, BX)
	SHRQ    $1, R12
	LEAQ    (R10)(R12*4), R9 // the next step
	ADDQ    $4, R10
	LEAQ    0(SP), R12

extras:
	CMPQ R10, R9
	JAE  inputs
	ENTRY(0(R10), DX, R8)
	XORQ BX, R8
	MOVQ DX, (R12)
	MOVQ R8, 8(R12)
	ADDQ $4, R10
	ADDQ $16, R12
	JMP  extras

inputs:
	KMOVW K3, K2
	TESTQ AX, AX
	MOVQ  R9, AX
	JNZ   majority
	ENTRY(4(DI), R8, DX)
	XORQ  BX, DX
	VPBROADCASTQ DX, Z12
	MOVQ  AX, DI
	XORQ  BX, BX
	TESTQ R13, R13
	JNZ   copy
	KMOVW K1, K2 // a row of fewer than 8 words: its one block is the tail

copy:
	VPXORQ.Z (R8)(BX*1), Z12, K2, Z0
	OUTS(copyout, copydone)
	NEXTBLOCK(copy)

majority:
	ENTRY(4(DI), R8, DX)
	XORQ  BX, DX
	VPBROADCASTQ DX, Z12
	ENTRY(8(DI), R9, DX)
	XORQ  BX, DX
	VPBROADCASTQ DX, Z13
	ENTRY(12(DI), R10, DX)
	XORQ  BX, DX
	VPBROADCASTQ DX, Z14
	MOVQ  AX, DI
	XORQ  BX, BX
	TESTQ R13, R13
	JNZ   maj
	KMOVW K1, K2

maj:
	VPXORQ.Z   (R8)(BX*1), Z12, K2, Z0
	VPXORQ.Z   (R9)(BX*1), Z13, K2, Z1
	VPXORQ.Z   (R10)(BX*1), Z14, K2, Z2
	VPTERNLOGQ $0xE8, Z2, Z1, Z0
	OUTS(majout, majdone)
	NEXTBLOCK(maj)

next:
	CMPQ DI, CX
	JB   step

done:
	VZEROUPPER
	RET
