#include "textflag.h"

// gather<> holds four VPSHUFB controls, one per load of a group of
// four. Per 128-bit lane a load holds two elements, a (bytes 0-7) and
// b (bytes 8-15); control k moves byte 0 of a and b to bytes 2k and
// 2k+1 of the lane and byte 1 of a and b to bytes 8+2k and 9+2k, and
// zeroes the rest. OR-ing four loads shuffled this way leaves, per
// lane, byte 0 of eight elements in the low qword and their byte 1 in
// the high one. Adding 2 to every control byte gives the controls for
// bytes 2 and 3: a zeroing entry 0x80 stays at or above 0x80.
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

DATA twos<>+0(SB)/4, $0x02020202
GLOBL twos<>(SB), RODATA|NOPTR, $4

// order<> is the VPSHUFB control that puts a lane's sixteen bytes in
// element order: after the gathers, VPUNPCKLQDQ and VPERMQ $0xD8, lane
// byte 8h+2k+e holds element 4k+2h+e.
DATA order<>+0(SB)/8, $0x0B0A030209080100
DATA order<>+8(SB)/8, $0x0F0E07060D0C0504
DATA order<>+16(SB)/8, $0x0B0A030209080100
DATA order<>+24(SB)/8, $0x0F0E07060D0C0504
GLOBL order<>(SB), RODATA|NOPTR, $32

// GATHER ORs into Y the four loads at off(SI), shuffled by the four
// controls C0-C3, using Y4 and Y5 as scratch.
#define GATHER(off, Y, C0, C1, C2, C3) \
	VMOVDQU off(SI), Y; \
	VPSHUFB C0, Y, Y; \
	VMOVDQU off+32(SI), Y4; \
	VPSHUFB C1, Y4, Y4; \
	VPOR    Y4, Y, Y; \
	VMOVDQU off+64(SI), Y5; \
	VPSHUFB C2, Y5, Y5; \
	VPOR    Y5, Y, Y; \
	VMOVDQU off+96(SI), Y4; \
	VPSHUFB C3, Y4, Y4; \
	VPOR    Y4, Y, Y

// BYTES puts in Y2 the low byte, and in Y3 the high byte, of the 16-bit
// pairs that GATHER leaves in Y0 (elements 0-15) and Y1 (16-31), in
// element order.
#define BYTES \
	VPUNPCKLQDQ Y1, Y0, Y2; \
	VPERMQ      $0xD8, Y2, Y2; \
	VPSHUFB     Y12, Y2, Y2; \
	VPUNPCKHQDQ Y1, Y0, Y3; \
	VPERMQ      $0xD8, Y3, Y3; \
	VPSHUFB     Y12, Y3, Y3

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

// func planes32(p *[32]uint64, v *[64]uint64, bytes int)
//
// Two rounds of 32 elements: the first fills the low halves of p's
// words, the second the high halves. Each round gathers bytes 0 and 1,
// and for bytes > 2 bytes 2 and 3, and stores the planes of the first
// bytes bytes.
TEXT ·planes32(SB), NOSPLIT, $0-24
	MOVQ         p+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         bytes+16(FP), DX
	VMOVDQU      gather<>+0(SB), Y8
	VMOVDQU      gather<>+32(SB), Y9
	VMOVDQU      gather<>+64(SB), Y10
	VMOVDQU      gather<>+96(SB), Y11
	VMOVDQU      order<>+0(SB), Y12
	VPBROADCASTD twos<>(SB), Y15
	VPADDB       Y15, Y8, Y6
	VPADDB       Y15, Y9, Y7
	VPADDB       Y15, Y10, Y13
	VPADDB       Y15, Y11, Y14
	MOVQ         $2, CX

half:
	GATHER(0, Y0, Y8, Y9, Y10, Y11)
	GATHER(128, Y1, Y8, Y9, Y10, Y11)
	BYTES
	PLANES(Y2, 0)
	CMPQ DX, $1
	JEQ  next
	PLANES(Y3, 64)
	CMPQ DX, $2
	JEQ  next
	GATHER(0, Y0, Y6, Y7, Y13, Y14)
	GATHER(128, Y1, Y6, Y7, Y13, Y14)
	BYTES
	PLANES(Y2, 128)
	CMPQ DX, $3
	JEQ  next
	PLANES(Y3, 192)

next:
	ADDQ $256, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  half
	VZEROUPPER
	RET

// spread<> holds two VPSHUFB controls that copy byte j/8 of a
// broadcast qword to byte j of 32, for elements 0-31 (bytes 0-3 of the
// qword) and 32-63 (bytes 4-7). Per 128-bit lane the qword sits in
// bytes 0-7.
DATA spread<>+0(SB)/8, $0x0000000000000000
DATA spread<>+8(SB)/8, $0x0101010101010101
DATA spread<>+16(SB)/8, $0x0202020202020202
DATA spread<>+24(SB)/8, $0x0303030303030303
DATA spread<>+32(SB)/8, $0x0404040404040404
DATA spread<>+40(SB)/8, $0x0505050505050505
DATA spread<>+48(SB)/8, $0x0606060606060606
DATA spread<>+56(SB)/8, $0x0707070707070707
GLOBL spread<>(SB), RODATA|NOPTR, $64

// bitsel<> selects bit j%8 in byte j.
DATA bitsel<>+0(SB)/8, $0x8040201008040201
GLOBL bitsel<>(SB), RODATA|NOPTR, $8

// INTERLEAVE sets lo and hi to the n-byte elements a, b (each 32 bytes
// in element order) interleaved into 2n-byte ones, a the low half, in
// element order: lo the first 32 bytes, hi the rest. UL and UH are the
// unpacks of n-byte units; t is scratch.
#define INTERLEAVE(UL, UH, a, b, lo, hi, t) \
	UL         b, a, t; \
	UH         b, a, hi; \
	VPERM2I128 $0x20, hi, t, lo; \
	VPERM2I128 $0x31, hi, t, hi

// func lanes32(v *[64]uint64, rows *[]uint64, wd, width int)
//
// rows points at width row slices, each with a word wd. Per 8 bit
// planes below the width, one byte plane (bits 8k to 8k+7 of the 64
// elements of word wd, a byte each) goes to the frame at 256+64k. The
// byte planes are then interleaved into 1-, 2- or 4-byte elements at
// 0(SP) and widened to the 64 words of v.
TEXT ·lanes32(SB), NOSPLIT, $512-32
	MOVQ         v+0(FP), DI
	MOVQ         rows+8(FP), SI
	MOVQ         wd+16(FP), R11
	SHLQ         $3, R11                // word wd's offset in a row
	MOVQ         width+24(FP), DX
	LEAQ         7(DX), R12
	SHRQ         $3, R12                // byte planes
	VMOVDQU      spread<>+0(SB), Y12
	VMOVDQU      spread<>+32(SB), Y13
	VPBROADCASTQ bitsel<>(SB), Y15
	LEAQ         256(SP), R9            // byte plane k

byteplane:
	MOVQ    $8, CX
	CMPQ    DX, CX
	CMOVQLT DX, CX                 // bit planes in this byte plane
	SUBQ    CX, DX
	LEAQ    (CX)(CX*2), R10
	LEAQ    -24(SI)(R10*8), R10    // its top row's slice header
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1

	// From the top plane down: bit j of a plane becomes 0xFF or 0 in
	// byte j, and the byte doubles and subtracts it.
bit:
	MOVQ         (R10), R13
	VPBROADCASTQ (R13)(R11*1), Y2
	VPSHUFB      Y12, Y2, Y3
	VPSHUFB      Y13, Y2, Y2
	VPAND        Y15, Y3, Y3
	VPCMPEQB     Y15, Y3, Y3
	VPAND        Y15, Y2, Y2
	VPCMPEQB     Y15, Y2, Y2
	VPADDB       Y0, Y0, Y0
	VPSUBB       Y3, Y0, Y0
	VPADDB       Y1, Y1, Y1
	VPSUBB       Y2, Y1, Y1
	SUBQ         $24, R10
	DECQ         CX
	JNZ          bit
	VMOVDQU      Y0, (R9)
	VMOVDQU      Y1, 32(R9)
	ADDQ         $192, SI
	ADDQ         $64, R9
	TESTQ        DX, DX
	JNZ          byteplane

	CMPQ R12, $2
	JEQ  words
	JGT  dwords

	// One byte plane: the elements are its bytes.
	LEAQ 256(SP), R9
	MOVQ $16, CX

bytes:
	VPMOVZXBQ (R9), Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $4, R9
	ADDQ      $32, DI
	DECQ      CX
	JNZ       bytes
	VZEROUPPER
	RET

	// Two byte planes make 16-bit elements.
words:
	VMOVDQU    256(SP), Y0
	VMOVDQU    320(SP), Y1
	INTERLEAVE(VPUNPCKLBW, VPUNPCKHBW, Y0, Y1, Y4, Y5, Y8)
	VMOVDQU    288(SP), Y0
	VMOVDQU    352(SP), Y1
	INTERLEAVE(VPUNPCKLBW, VPUNPCKHBW, Y0, Y1, Y6, Y7, Y8)
	VMOVDQU    Y4, 0(SP)
	VMOVDQU    Y5, 32(SP)
	VMOVDQU    Y6, 64(SP)
	VMOVDQU    Y7, 96(SP)
	LEAQ       0(SP), R9
	MOVQ       $16, CX

wordsOut:
	VPMOVZXWQ (R9), Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $8, R9
	ADDQ      $32, DI
	DECQ      CX
	JNZ       wordsOut
	VZEROUPPER
	RET

	// Three or four byte planes: bytes 0 and 1, and 2 and 3, make
	// 16-bit halves, which make 32-bit elements. A third plane is
	// paired with zeros.
dwords:
	CMPQ    R12, $3
	JGT     four
	VPXOR   Y0, Y0, Y0
	VMOVDQU Y0, 448(SP)
	VMOVDQU Y0, 480(SP)

four:
	LEAQ 0(SP), R9
	LEAQ 256(SP), R10
	MOVQ $2, CX

half:
	VMOVDQU    0(R10), Y0
	VMOVDQU    64(R10), Y1
	INTERLEAVE(VPUNPCKLBW, VPUNPCKHBW, Y0, Y1, Y4, Y5, Y8)
	VMOVDQU    128(R10), Y0
	VMOVDQU    192(R10), Y1
	INTERLEAVE(VPUNPCKLBW, VPUNPCKHBW, Y0, Y1, Y6, Y7, Y8)
	INTERLEAVE(VPUNPCKLWD, VPUNPCKHWD, Y4, Y6, Y0, Y1, Y8)
	INTERLEAVE(VPUNPCKLWD, VPUNPCKHWD, Y5, Y7, Y2, Y3, Y8)
	VMOVDQU    Y0, 0(R9)
	VMOVDQU    Y1, 32(R9)
	VMOVDQU    Y2, 64(R9)
	VMOVDQU    Y3, 96(R9)
	ADDQ       $128, R9
	ADDQ       $32, R10
	DECQ       CX
	JNZ        half
	LEAQ       0(SP), R9
	MOVQ       $16, CX

dwordsOut:
	VPMOVZXDQ (R9), Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $16, R9
	ADDQ      $32, DI
	DECQ      CX
	JNZ       dwordsOut
	VZEROUPPER
	RET
