#include "textflag.h"

// Every kernel here gives each output element the portable leaf's
// operations in the leaf's order: a product is rounded before it is
// added (never a fused multiply-add), and lanes only ever hold
// independent outputs. Only VEX-encoded instructions are used, so the
// loops pay no SSE/AVX transition.

// func seedRoundAVX2(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64
//
// Rows are walked sixteen at a time (four YMM accumulators), then four
// at a time. For each block the inner loop runs j = 0 … len(seed)−1:
// broadcast seed[j], subtract the block's values of row j of xt,
// square, add to the accumulators. The block's sums then replace d2
// where strictly smaller (VCMPPD LT_OQ and VMINPD: false, and d2 kept,
// when either side is NaN), near takes c under the same mask, and the
// running total X14 adds the block's d2 one by one in row order. That
// serial chain overlaps the next block's distance arithmetic.
TEXT ·seedRoundAVX2(SB), NOSPLIT, $0-152
	MOVQ seed_base+0(FP), SI
	MOVQ seed_len+8(FP), CX
	MOVQ xt_base+24(FP), DI
	MOVQ stride+48(FP), DX
	VPBROADCASTQ c+56(FP), Y13
	MOVQ near_base+64(FP), R8
	MOVQ d2_base+88(FP), BX
	MOVQ d2_len+96(FP), R9
	MOVQ sums_base+112(FP), AX
	VMOVSD total+136(FP), X14
	SHLQ $3, DX         // row step of xt in bytes
	XORQ R10, R10       // first row of the block

seed16:
	MOVQ R9, R11
	SUBQ R10, R11
	CMPQ R11, $16
	JLT  seed4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (DI)(R10*8), R11 // &xt[j*stride+row], j = 0
	MOVQ SI, R12          // &seed[j]
	MOVQ CX, R13          // terms left
	PCALIGN $32

sloop16:
	VBROADCASTSD (R12), Y4
	VSUBPD  (R11), Y4, Y5
	VSUBPD  32(R11), Y4, Y6
	VSUBPD  64(R11), Y4, Y7
	VSUBPD  96(R11), Y4, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, R12
	ADDQ    DX, R11
	DECQ    R13
	JNZ     sloop16

	LEAQ (BX)(R10*8), R11 // &d2[row]
	LEAQ (R8)(R10*8), R12 // &near[row]
	LEAQ (AX)(R10*8), R13 // &sums[row]
	VMOVUPD      (R11), Y5
	VCMPPD       $0x11, Y5, Y0, Y6
	VMINPD       Y5, Y0, Y7
	VMOVUPD      Y7, (R11)
	VMOVDQU      (R12), Y8
	VBLENDVPD    Y6, Y13, Y8, Y8
	VMOVDQU      Y8, (R12)
	VMOVUPD      32(R11), Y5
	VCMPPD       $0x11, Y5, Y1, Y6
	VMINPD       Y5, Y1, Y7
	VMOVUPD      Y7, 32(R11)
	VMOVDQU      32(R12), Y8
	VBLENDVPD    Y6, Y13, Y8, Y8
	VMOVDQU      Y8, 32(R12)
	VMOVUPD      64(R11), Y5
	VCMPPD       $0x11, Y5, Y2, Y6
	VMINPD       Y5, Y2, Y7
	VMOVUPD      Y7, 64(R11)
	VMOVDQU      64(R12), Y8
	VBLENDVPD    Y6, Y13, Y8, Y8
	VMOVDQU      Y8, 64(R12)
	VMOVUPD      96(R11), Y5
	VCMPPD       $0x11, Y5, Y3, Y6
	VMINPD       Y5, Y3, Y7
	VMOVUPD      Y7, 96(R11)
	VMOVDQU      96(R12), Y8
	VBLENDVPD    Y6, Y13, Y8, Y8
	VMOVDQU      Y8, 96(R12)

	VADDSD (R11), X14, X14
	VMOVSD X14, (R13)
	VADDSD 8(R11), X14, X14
	VMOVSD X14, 8(R13)
	VADDSD 16(R11), X14, X14
	VMOVSD X14, 16(R13)
	VADDSD 24(R11), X14, X14
	VMOVSD X14, 24(R13)
	VADDSD 32(R11), X14, X14
	VMOVSD X14, 32(R13)
	VADDSD 40(R11), X14, X14
	VMOVSD X14, 40(R13)
	VADDSD 48(R11), X14, X14
	VMOVSD X14, 48(R13)
	VADDSD 56(R11), X14, X14
	VMOVSD X14, 56(R13)
	VADDSD 64(R11), X14, X14
	VMOVSD X14, 64(R13)
	VADDSD 72(R11), X14, X14
	VMOVSD X14, 72(R13)
	VADDSD 80(R11), X14, X14
	VMOVSD X14, 80(R13)
	VADDSD 88(R11), X14, X14
	VMOVSD X14, 88(R13)
	VADDSD 96(R11), X14, X14
	VMOVSD X14, 96(R13)
	VADDSD 104(R11), X14, X14
	VMOVSD X14, 104(R13)
	VADDSD 112(R11), X14, X14
	VMOVSD X14, 112(R13)
	VADDSD 120(R11), X14, X14
	VMOVSD X14, 120(R13)
	ADDQ   $16, R10
	JMP    seed16

seed4:
	CMPQ R10, R9
	JGE  seeddone
	VXORPD Y0, Y0, Y0
	LEAQ (DI)(R10*8), R11
	MOVQ SI, R12
	MOVQ CX, R13
	PCALIGN $32

sloop4:
	VBROADCASTSD (R12), Y4
	VSUBPD  (R11), Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $8, R12
	ADDQ    DX, R11
	DECQ    R13
	JNZ     sloop4

	LEAQ (BX)(R10*8), R11
	LEAQ (R8)(R10*8), R12
	LEAQ (AX)(R10*8), R13
	VMOVUPD   (R11), Y5
	VCMPPD    $0x11, Y5, Y0, Y6
	VMINPD    Y5, Y0, Y7
	VMOVUPD   Y7, (R11)
	VMOVDQU   (R12), Y8
	VBLENDVPD Y6, Y13, Y8, Y8
	VMOVDQU   Y8, (R12)
	VADDSD    (R11), X14, X14
	VMOVSD    X14, (R13)
	VADDSD    8(R11), X14, X14
	VMOVSD    X14, 8(R13)
	VADDSD    16(R11), X14, X14
	VMOVSD    X14, 16(R13)
	VADDSD    24(R11), X14, X14
	VMOVSD    X14, 24(R13)
	ADDQ      $4, R10
	JMP       seed4

seeddone:
	VMOVSD X14, ret+144(FP)
	VZEROUPPER
	RET

// func nearestAVX2(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64)
//
// Rows are walked eight at a time (two YMM of rows), then four. For a
// block, each group of four centres is measured in one pass over
// j = 0 … p−1: broadcast the four centres' value j, subtract the rows'
// value j, square, add — eight accumulators, one per (centre, half).
// The group is then folded into the running minimum centre by centre in
// index order: VCMPPD LT_OQ gives the lanes where the new distance is
// strictly below the minimum (never for a NaN), VMINPD takes the same
// choice for the value and VBLENDVPD for the centre index, so ties keep
// the lower index. The minimum (Y8, Y9), its index (Y10, Y11) and the
// running centre index (Y15, stepped by Y14 = 1) stay in registers
// across all groups; dist and assign are written once per block.
TEXT ·nearestAVX2(SB), NOSPLIT, $0-112
	MOVQ packed_base+0(FP), SI
	MOVQ packed_len+8(FP), R13
	MOVQ p+24(FP), CX
	MOVQ xt_base+32(FP), DI
	MOVQ stride+56(FP), DX
	MOVQ assign_base+64(FP), R8
	MOVQ dist_base+88(FP), BX
	MOVQ dist_len+96(FP), R9
	SHLQ $3, DX
	LEAQ (SI)(R13*8), R13 // end of packed
	MOVQ $1, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	XORQ R10, R10

near8:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $8
	JLT  near4
	MOVQ $0x7ff0000000000000, AX
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8
	VMOVDQU Y8, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y15, Y15, Y15
	MOVQ SI, R12 // &packed[group][j][0]

group8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (DI)(R10*8), R11
	MOVQ CX, AX
	PCALIGN $32

nloop8:
	VBROADCASTSD (R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y0, Y0
	VSUBPD       32(R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD 8(R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y2, Y2
	VSUBPD       32(R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD 16(R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VSUBPD       32(R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y5, Y5
	VBROADCASTSD 24(R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y6, Y6
	VSUBPD       32(R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y7, Y7
	ADDQ         $32, R12
	ADDQ         DX, R11
	DECQ         AX
	JNZ          nloop8

	VCMPPD    $0x11, Y8, Y0, Y13
	VMINPD    Y8, Y0, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VCMPPD    $0x11, Y9, Y1, Y13
	VMINPD    Y9, Y1, Y9
	VBLENDVPD Y13, Y15, Y11, Y11
	VPADDQ    Y14, Y15, Y15
	VCMPPD    $0x11, Y8, Y2, Y13
	VMINPD    Y8, Y2, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VCMPPD    $0x11, Y9, Y3, Y13
	VMINPD    Y9, Y3, Y9
	VBLENDVPD Y13, Y15, Y11, Y11
	VPADDQ    Y14, Y15, Y15
	VCMPPD    $0x11, Y8, Y4, Y13
	VMINPD    Y8, Y4, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VCMPPD    $0x11, Y9, Y5, Y13
	VMINPD    Y9, Y5, Y9
	VBLENDVPD Y13, Y15, Y11, Y11
	VPADDQ    Y14, Y15, Y15
	VCMPPD    $0x11, Y8, Y6, Y13
	VMINPD    Y8, Y6, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VCMPPD    $0x11, Y9, Y7, Y13
	VMINPD    Y9, Y7, Y9
	VBLENDVPD Y13, Y15, Y11, Y11
	VPADDQ    Y14, Y15, Y15
	CMPQ      R12, R13
	JLT       group8

	VMOVUPD Y8, (BX)(R10*8)
	VMOVUPD Y9, 32(BX)(R10*8)
	VMOVDQU Y10, (R8)(R10*8)
	VMOVDQU Y11, 32(R8)(R10*8)
	ADDQ    $8, R10
	JMP     near8

near4:
	CMPQ R10, R9
	JGE  neardone
	MOVQ $0x7ff0000000000000, AX
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8
	VPXOR Y10, Y10, Y10
	VPXOR Y15, Y15, Y15
	MOVQ SI, R12

group4:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	LEAQ (DI)(R10*8), R11
	MOVQ CX, AX
	PCALIGN $32

nloop4:
	VBROADCASTSD (R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y0, Y0
	VBROADCASTSD 8(R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y2, Y2
	VBROADCASTSD 16(R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD 24(R12), Y12
	VSUBPD       (R11), Y12, Y13
	VMULPD       Y13, Y13, Y13
	VADDPD       Y13, Y6, Y6
	ADDQ         $32, R12
	ADDQ         DX, R11
	DECQ         AX
	JNZ          nloop4

	VCMPPD    $0x11, Y8, Y0, Y13
	VMINPD    Y8, Y0, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VPADDQ    Y14, Y15, Y15
	VCMPPD    $0x11, Y8, Y2, Y13
	VMINPD    Y8, Y2, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VPADDQ    Y14, Y15, Y15
	VCMPPD    $0x11, Y8, Y4, Y13
	VMINPD    Y8, Y4, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VPADDQ    Y14, Y15, Y15
	VCMPPD    $0x11, Y8, Y6, Y13
	VMINPD    Y8, Y6, Y8
	VBLENDVPD Y13, Y15, Y10, Y10
	VPADDQ    Y14, Y15, Y15
	CMPQ      R12, R13
	JLT       group4

	VMOVUPD Y8, (BX)(R10*8)
	VMOVDQU Y10, (R8)(R10*8)
	ADDQ    $4, R10
	JMP     near4

neardone:
	VZEROUPPER
	RET

// func reflectAVX2(h []float64, ntau float64, cols []float64, stride, m int)
//
// Columns are taken four at a time, then one. Pass one forms the dots:
// per step of four rows, load h[i:i+4] once and add its products with
// each column's four values to that column's accumulator, whose lane q
// is Dot's s_q. The high halves (s_2, s_3) are set aside, the tail
// products go into lane 0 (s_0) in order, and the dot is
// (s_0+s_1)+(s_2+s_3). Pass two scales each dot by ntau and adds α·h[i]
// to its column, four rows per step, then the tail.
TEXT ·reflectAVX2(SB), NOSPLIT, $0-72
	MOVQ   h_base+0(FP), SI
	MOVQ   h_len+8(FP), CX
	VMOVSD ntau+24(FP), X13
	MOVQ   cols_base+32(FP), DI
	MOVQ   stride+56(FP), DX
	MOVQ   m+64(FP), BX
	SHLQ   $3, DX

cols4:
	CMPQ BX, $4
	JLT  cols1
	LEAQ (DI)(DX*1), R8  // column 1
	LEAQ (DI)(DX*2), R9  // column 2
	LEAQ (R8)(DX*2), R10 // column 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX // byte offset of row i
	MOVQ CX, R11
	SHRQ $2, R11
	JZ   dottail
	PCALIGN $32

dot4:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  (DI)(AX*1), Y4, Y5
	VMULPD  (R8)(AX*1), Y4, Y6
	VMULPD  (R9)(AX*1), Y4, Y7
	VMULPD  (R10)(AX*1), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, AX
	DECQ    R11
	JNZ     dot4

dottail:
	VEXTRACTF128 $1, Y0, X9
	VEXTRACTF128 $1, Y1, X10
	VEXTRACTF128 $1, Y2, X11
	VEXTRACTF128 $1, Y3, X12
	MOVQ CX, R11
	ANDQ $3, R11
	JZ   dotsum

dot1:
	VMOVSD (SI)(AX*1), X4
	VMULSD (DI)(AX*1), X4, X5
	VMULSD (R8)(AX*1), X4, X6
	VMULSD (R9)(AX*1), X4, X7
	VMULSD (R10)(AX*1), X4, X8
	VADDSD X5, X0, X0
	VADDSD X6, X1, X1
	VADDSD X7, X2, X2
	VADDSD X8, X3, X3
	ADDQ   $8, AX
	DECQ   R11
	JNZ    dot1

dotsum:
	VHADDPD X0, X0, X0
	VHADDPD X9, X9, X9
	VADDSD  X9, X0, X0
	VHADDPD X1, X1, X1
	VHADDPD X10, X10, X10
	VADDSD  X10, X1, X1
	VHADDPD X2, X2, X2
	VHADDPD X11, X11, X11
	VADDSD  X11, X2, X2
	VHADDPD X3, X3, X3
	VHADDPD X12, X12, X12
	VADDSD  X12, X3, X3
	VMULSD  X0, X13, X0
	VMULSD  X1, X13, X1
	VMULSD  X2, X13, X2
	VMULSD  X3, X13, X3
	VBROADCASTSD X0, Y0
	VBROADCASTSD X1, Y1
	VBROADCASTSD X2, Y2
	VBROADCASTSD X3, Y3

	XORQ AX, AX
	MOVQ CX, R11
	SHRQ $2, R11
	JZ   axpytail
	PCALIGN $32

axpy4:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  Y4, Y0, Y5
	VMULPD  Y4, Y1, Y6
	VMULPD  Y4, Y2, Y7
	VMULPD  Y4, Y3, Y8
	VMOVUPD (DI)(AX*1), Y9
	VMOVUPD (R8)(AX*1), Y10
	VMOVUPD (R9)(AX*1), Y11
	VMOVUPD (R10)(AX*1), Y12
	VADDPD  Y5, Y9, Y9
	VADDPD  Y6, Y10, Y10
	VADDPD  Y7, Y11, Y11
	VADDPD  Y8, Y12, Y12
	VMOVUPD Y9, (DI)(AX*1)
	VMOVUPD Y10, (R8)(AX*1)
	VMOVUPD Y11, (R9)(AX*1)
	VMOVUPD Y12, (R10)(AX*1)
	ADDQ    $32, AX
	DECQ    R11
	JNZ     axpy4

axpytail:
	MOVQ CX, R11
	ANDQ $3, R11
	JZ   next4

axpy1:
	VMOVSD (SI)(AX*1), X4
	VMULSD X4, X0, X5
	VMULSD X4, X1, X6
	VMULSD X4, X2, X7
	VMULSD X4, X3, X8
	VMOVSD (DI)(AX*1), X9
	VMOVSD (R8)(AX*1), X10
	VMOVSD (R9)(AX*1), X11
	VMOVSD (R10)(AX*1), X12
	VADDSD X5, X9, X9
	VADDSD X6, X10, X10
	VADDSD X7, X11, X11
	VADDSD X8, X12, X12
	VMOVSD X9, (DI)(AX*1)
	VMOVSD X10, (R8)(AX*1)
	VMOVSD X11, (R9)(AX*1)
	VMOVSD X12, (R10)(AX*1)
	ADDQ   $8, AX
	DECQ   R11
	JNZ    axpy1

next4:
	LEAQ (DI)(DX*4), DI
	SUBQ $4, BX
	JMP  cols4

cols1:
	TESTQ BX, BX
	JZ    reflectdone
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, R11
	SHRQ $2, R11
	JZ   sdottail

sdot4:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  (DI)(AX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $32, AX
	DECQ    R11
	JNZ     sdot4

sdottail:
	VEXTRACTF128 $1, Y0, X9
	MOVQ CX, R11
	ANDQ $3, R11
	JZ   sdotsum

sdot1:
	VMOVSD (SI)(AX*1), X4
	VMULSD (DI)(AX*1), X4, X5
	VADDSD X5, X0, X0
	ADDQ   $8, AX
	DECQ   R11
	JNZ    sdot1

sdotsum:
	VHADDPD      X0, X0, X0
	VHADDPD      X9, X9, X9
	VADDSD       X9, X0, X0
	VMULSD       X0, X13, X0
	VBROADCASTSD X0, Y0
	XORQ AX, AX
	MOVQ CX, R11
	SHRQ $2, R11
	JZ   saxpytail

saxpy4:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  Y4, Y0, Y5
	VMOVUPD (DI)(AX*1), Y9
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y9, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    R11
	JNZ     saxpy4

saxpytail:
	MOVQ CX, R11
	ANDQ $3, R11
	JZ   next1

saxpy1:
	VMOVSD (SI)(AX*1), X4
	VMULSD X4, X0, X5
	VMOVSD (DI)(AX*1), X9
	VADDSD X5, X9, X9
	VMOVSD X9, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   R11
	JNZ    saxpy1

next1:
	ADDQ DX, DI
	DECQ BX
	JMP  cols1

reflectdone:
	VZEROUPPER
	RET

// func liftAVX2(h []float64, tau float64, rows []float64, r, m int)
//
// Columns are taken twelve at a time (three YMM), then four. Pass one
// adds h[i]·rows[i][c] onto +0 in row order in lane c and scales by τ;
// pass two subtracts h[i]·w_c from every row of those columns.
TEXT ·liftAVX2(SB), NOSPLIT, $0-72
	MOVQ h_base+0(FP), SI
	MOVQ h_len+8(FP), CX
	VBROADCASTSD tau+24(FP), Y15
	MOVQ rows_base+32(FP), DI
	MOVQ r+56(FP), DX
	MOVQ m+64(FP), R9
	SHLQ $3, DX // row step in bytes
	SHLQ $3, R9 // end of the vector columns in bytes
	XORQ R10, R10

lift12:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $96
	JLT  lift4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	LEAQ (DI)(R10*1), R11
	MOVQ SI, R12
	MOVQ CX, R13
	PCALIGN $32

hu12:
	VBROADCASTSD (R12), Y4
	VMULPD       (R11), Y4, Y5
	VMULPD       32(R11), Y4, Y6
	VMULPD       64(R11), Y4, Y7
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	ADDQ         $8, R12
	ADDQ         DX, R11
	DECQ         R13
	JNZ          hu12

	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y2, Y2
	LEAQ   (DI)(R10*1), R11
	MOVQ   SI, R12
	MOVQ   CX, R13
	PCALIGN $32

upd12:
	VBROADCASTSD (R12), Y4
	VMULPD       Y0, Y4, Y5
	VMULPD       Y1, Y4, Y6
	VMULPD       Y2, Y4, Y7
	VMOVUPD      (R11), Y8
	VMOVUPD      32(R11), Y9
	VMOVUPD      64(R11), Y10
	VSUBPD       Y5, Y8, Y8
	VSUBPD       Y6, Y9, Y9
	VSUBPD       Y7, Y10, Y10
	VMOVUPD      Y8, (R11)
	VMOVUPD      Y9, 32(R11)
	VMOVUPD      Y10, 64(R11)
	ADDQ         $8, R12
	ADDQ         DX, R11
	DECQ         R13
	JNZ          upd12

	ADDQ $96, R10
	JMP  lift12

lift4:
	CMPQ R10, R9
	JGE  liftdone
	VXORPD Y0, Y0, Y0
	LEAQ (DI)(R10*1), R11
	MOVQ SI, R12
	MOVQ CX, R13
	PCALIGN $32

hu4:
	VBROADCASTSD (R12), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R12
	ADDQ         DX, R11
	DECQ         R13
	JNZ          hu4

	VMULPD Y15, Y0, Y0
	LEAQ   (DI)(R10*1), R11
	MOVQ   SI, R12
	MOVQ   CX, R13
	PCALIGN $32

upd4:
	VBROADCASTSD (R12), Y4
	VMULPD       Y0, Y4, Y5
	VMOVUPD      (R11), Y8
	VSUBPD       Y5, Y8, Y8
	VMOVUPD      Y8, (R11)
	ADDQ         $8, R12
	ADDQ         DX, R11
	DECQ         R13
	JNZ          upd4

	ADDQ $32, R10
	JMP  lift4

liftdone:
	VZEROUPPER
	RET

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
