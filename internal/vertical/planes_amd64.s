#include "textflag.h"

// gather<> holds four VPSHUFB controls, one per load of a group of
// four. Per 128-bit lane a load holds two elements, a (bytes 0-7) and
// b (bytes 8-15); control k moves byte 0 of a and b to bytes 2k and
// 2k+1 of the lane and byte 1 of a and b to bytes 8+2k and 9+2k, and
// zeroes the rest. OR-ing four loads shuffled this way leaves, per
// lane, byte 0 of eight elements in the low qword and their byte 1 in
// the high one.
DATA gather<>+0(SB)/8, $0x8080808080800800
DATA gather<>+8(SB)/8, $0x8080808080800901
DATA gather<>+16(SB)/8, $0x8080808080800800
DATA gather<>+24(SB)/8, $0x8080808080800901
DATA gather<>+32(SB)/8, $0x8080808008008080
DATA gather<>+40(SB)/8, $0x8080808009018080
DATA gather<>+48(SB)/8, $0x8080808008008080
DATA gather<>+56(SB)/8, $0x8080808009018080
DATA gather<>+64(SB)/8, $0x8080080080808080
DATA gather<>+72(SB)/8, $0x8080090180808080
DATA gather<>+80(SB)/8, $0x8080080080808080
DATA gather<>+88(SB)/8, $0x8080090180808080
DATA gather<>+96(SB)/8, $0x0800808080808080
DATA gather<>+104(SB)/8, $0x0901808080808080
DATA gather<>+112(SB)/8, $0x0800808080808080
DATA gather<>+120(SB)/8, $0x0901808080808080
GLOBL gather<>(SB), RODATA|NOPTR, $128

// order<> is the VPSHUFB control that puts a lane's sixteen bytes in
// element order: after the gathers, VPUNPCKLQDQ and VPERMQ $0xD8, lane
// byte 8h+2k+e holds element 4k+2h+e.
DATA order<>+0(SB)/8, $0x0B0A030209080100
DATA order<>+8(SB)/8, $0x0F0E07060D0C0504
DATA order<>+16(SB)/8, $0x0B0A030209080100
DATA order<>+24(SB)/8, $0x0F0E07060D0C0504
GLOBL order<>(SB), RODATA|NOPTR, $32

// GATHER ORs into Y the four loads at off(SI), shuffled by the four
// gather<> controls in Y8-Y11, using Y4 and Y5 as scratch.
#define GATHER(off, Y) \
	VMOVDQU off(SI), Y; \
	VPSHUFB Y8, Y, Y; \
	VMOVDQU off+32(SI), Y4; \
	VPSHUFB Y9, Y4, Y4; \
	VPOR    Y4, Y, Y; \
	VMOVDQU off+64(SI), Y5; \
	VPSHUFB Y10, Y5, Y5; \
	VPOR    Y5, Y, Y; \
	VMOVDQU off+96(SI), Y4; \
	VPSHUFB Y11, Y4, Y4; \
	VPOR    Y4, Y, Y

// PLANES stores the eight bit planes of the 32 bytes in Y as 32-bit
// halves at off(DI), plane 7 first: each round VPMOVMSKB takes every
// byte's top bit and VPADDB shifts the next bit up.
#define PLANES(Y, off) \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+56(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+48(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+40(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+32(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+24(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+16(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+8(DI); \
	VPADDB    Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL      AX, off+0(DI)

// func planes16(p *[16]uint64, v *[64]uint64, wide bool)
//
// Two rounds of 32 elements: the first fills the low halves of p's
// words, the second the high halves.
TEXT ·planes16(SB), NOSPLIT, $0-17
	MOVQ    p+0(FP), DI
	MOVQ    v+8(FP), SI
	MOVBLZX wide+16(FP), DX
	VMOVDQU gather<>+0(SB), Y8
	VMOVDQU gather<>+32(SB), Y9
	VMOVDQU gather<>+64(SB), Y10
	VMOVDQU gather<>+96(SB), Y11
	VMOVDQU order<>+0(SB), Y12
	MOVQ    $2, CX

half:
	GATHER(0, Y0)
	GATHER(128, Y1)
	VPUNPCKLQDQ Y1, Y0, Y2
	VPERMQ      $0xD8, Y2, Y2
	VPSHUFB     Y12, Y2, Y2
	PLANES(Y2, 0)
	TESTQ       DX, DX
	JZ          next
	VPUNPCKHQDQ Y1, Y0, Y3
	VPERMQ      $0xD8, Y3, Y3
	VPSHUFB     Y12, Y3, Y3
	PLANES(Y3, 64)

next:
	ADDQ $256, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  half
	VZEROUPPER
	RET
