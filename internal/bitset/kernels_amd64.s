//go:build amd64 && !purego

#include "textflag.h"

// AVX2/POPCNT kernels for the flat word-slice operations of the
// package. Layout conventions shared by every kernel below:
//
//   - operands are raw *uint64 bases plus a word count, handed over by
//     the dispatch wrappers (dispatch_amd64.go) which already did the
//     length/threshold checks;
//   - the main loops step 16 words (four YMM registers, 128 bytes) per
//     iteration, with a 4-word (one YMM) loop and a scalar word loop
//     picking up the tail, so ANY length and ANY stride — including the
//     odd strides and tail words the fuzz targets exercise — take the
//     exact same bit-for-bit effect as the generic Go loops;
//   - all loads/stores are unaligned (VMOVDQU): matrices are carved at
//     word granularity from shared backings (MatrixOn, Arena), so rows
//     have no 32-byte alignment guarantee;
//   - every kernel that touched a YMM register executes VZEROUPPER
//     before returning, keeping subsequent SSE code (the Go runtime's
//     memmove, etc.) out of the AVX transition penalty.

// func orWordsAVX2(dst, src *uint64, n int)
TEXT ·orWordsAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

or16:
	LEAQ 16(AX), DX
	CMPQ DX, CX
	JG   or4
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VMOVDQU 64(SI)(AX*8), Y2
	VMOVDQU 96(SI)(AX*8), Y3
	VPOR    (DI)(AX*8), Y0, Y0
	VPOR    32(DI)(AX*8), Y1, Y1
	VPOR    64(DI)(AX*8), Y2, Y2
	VPOR    96(DI)(AX*8), Y3, Y3
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	VMOVDQU Y2, 64(DI)(AX*8)
	VMOVDQU Y3, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     or16

or4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   or1
	VMOVDQU (SI)(AX*8), Y0
	VPOR    (DI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     or4

or1:
	CMPQ AX, CX
	JGE  ordone
	MOVQ (SI)(AX*8), DX
	ORQ  DX, (DI)(AX*8)
	INCQ AX
	JMP  or1

ordone:
	VZEROUPPER
	RET

// func andWordsAVX2(dst, src *uint64, n int)
TEXT ·andWordsAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

and16:
	LEAQ 16(AX), DX
	CMPQ DX, CX
	JG   and4
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VMOVDQU 64(SI)(AX*8), Y2
	VMOVDQU 96(SI)(AX*8), Y3
	VPAND   (DI)(AX*8), Y0, Y0
	VPAND   32(DI)(AX*8), Y1, Y1
	VPAND   64(DI)(AX*8), Y2, Y2
	VPAND   96(DI)(AX*8), Y3, Y3
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	VMOVDQU Y2, 64(DI)(AX*8)
	VMOVDQU Y3, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     and16

and4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   and1
	VMOVDQU (SI)(AX*8), Y0
	VPAND   (DI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     and4

and1:
	CMPQ AX, CX
	JGE  anddone
	MOVQ (SI)(AX*8), DX
	ANDQ DX, (DI)(AX*8)
	INCQ AX
	JMP  and1

anddone:
	VZEROUPPER
	RET

// func intersectsAVX2(a, b *uint64, n int) bool
TEXT ·intersectsAVX2(SB), NOSPLIT, $0-25
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX

is8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JG   is1
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VPAND   (DI)(AX*8), Y0, Y0
	VPAND   32(DI)(AX*8), Y1, Y1
	VPOR    Y1, Y0, Y0
	VPTEST  Y0, Y0
	JNZ     isfound
	MOVQ    DX, AX
	JMP     is8

is1:
	CMPQ AX, CX
	JGE  isempty
	MOVQ (SI)(AX*8), DX
	ANDQ (DI)(AX*8), DX
	JNE  isfound
	INCQ AX
	JMP  is1

isempty:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET

isfound:
	VZEROUPPER
	MOVB $1, ret+24(FP)
	RET

// func anyWordsAVX2(p *uint64, n int) bool
TEXT ·anyWordsAVX2(SB), NOSPLIT, $0-17
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX

ay8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JG   ay1
	VMOVDQU (SI)(AX*8), Y0
	VPOR    32(SI)(AX*8), Y0, Y0
	VPTEST  Y0, Y0
	JNZ     ayfound
	MOVQ    DX, AX
	JMP     ay8

ay1:
	CMPQ AX, CX
	JGE  ayempty
	CMPQ (SI)(AX*8), $0
	JNE  ayfound
	INCQ AX
	JMP  ay1

ayempty:
	VZEROUPPER
	MOVB $0, ret+16(FP)
	RET

ayfound:
	VZEROUPPER
	MOVB $1, ret+16(FP)
	RET

// func popcntWords(p *uint64, n int) int
//
// Four POPCNT lanes with independent destination registers: POPCNT has
// a false output dependency on several microarchitectures, so a single
// rolling destination would serialize the loop.
TEXT ·popcntWords(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11

pc4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   pc1
	POPCNTQ (SI)(AX*8), BX
	POPCNTQ 8(SI)(AX*8), R12
	POPCNTQ 16(SI)(AX*8), R13
	POPCNTQ 24(SI)(AX*8), R14
	ADDQ    BX, R8
	ADDQ    R12, R9
	ADDQ    R13, R10
	ADDQ    R14, R11
	MOVQ    DX, AX
	JMP     pc4

pc1:
	CMPQ AX, CX
	JGE  pcdone
	POPCNTQ (SI)(AX*8), BX
	ADDQ    BX, R8
	INCQ    AX
	JMP     pc1

pcdone:
	ADDQ R9, R8
	ADDQ R11, R10
	ADDQ R10, R8
	MOVQ R8, ret+16(FP)
	RET

// func composeRowsAVX2(dst, a, b *uint64, rows, aStride, bStride int)
//
// The multi-word composition row accumulation, whole-matrix: for each
// row i of a and each set bit j in it (BSF word scan), OR row j of b
// into row i of dst. Row pointers advance by stride per outer
// iteration, so one call covers the entire matrix — the per-row
// function-call and bounds overhead of the old path is paid once.
//
// Register plan: DI dst row, SI a row, BX b base, CX remaining rows,
// R8 aStride, R9 bStride, R10 word index, R11 current a word, R12 bit
// base, R13 selected b row, R14 BSF result, AX inner word index,
// DX scratch.
TEXT ·composeRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ aStride+32(FP), R8
	MOVQ bStride+40(FP), R9

crrow:
	TESTQ CX, CX
	JZ    crdone
	XORQ  R10, R10

crword:
	CMPQ  R10, R8
	JGE   crrownext
	MOVQ  (SI)(R10*8), R11
	TESTQ R11, R11
	JZ    crwordnext
	MOVQ  R10, R12
	SHLQ  $6, R12

crbit:
	BSFQ  R11, R14
	LEAQ  -1(R11), DX
	ANDQ  DX, R11
	LEAQ  (R12)(R14*1), R13
	IMULQ R9, R13
	LEAQ  (BX)(R13*8), R13
	XORQ  AX, AX

cror8:
	LEAQ 8(AX), DX
	CMPQ DX, R9
	JG   cror4
	VMOVDQU (R13)(AX*8), Y0
	VMOVDQU 32(R13)(AX*8), Y1
	VPOR    (DI)(AX*8), Y0, Y0
	VPOR    32(DI)(AX*8), Y1, Y1
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     cror8

cror4:
	LEAQ 4(AX), DX
	CMPQ DX, R9
	JG   cror1
	VMOVDQU (R13)(AX*8), Y0
	VPOR    (DI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     cror4

cror1:
	CMPQ AX, R9
	JGE  crornext
	MOVQ (R13)(AX*8), DX
	ORQ  DX, (DI)(AX*8)
	INCQ AX
	JMP  cror1

crornext:
	TESTQ R11, R11
	JNZ   crbit

crwordnext:
	INCQ R10
	JMP  crword

crrownext:
	LEAQ (SI)(R8*8), SI
	LEAQ (DI)(R9*8), DI
	DECQ CX
	JMP  crrow

crdone:
	VZEROUPPER
	RET
