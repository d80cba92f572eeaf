#include "textflag.h"

// The AVX-512 kernels keep the AVX2 kernels' contract: each output
// element gets the portable leaf's operations in the leaf's order, a
// product is rounded before it is added, and lanes only ever hold
// independent outputs. They use AVX512F only (ZMM arithmetic, opmask
// compares, masked moves), and every Z or K register and EVEX-only
// mnemonic stays inside a TEXT block whose name ends in AVX512, so a
// host without AVX-512 never decodes one (scripts/check.sh holds this).

// func seedRoundAVX512(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64
//
// Rows are walked sixty-four at a time, eight ZMM accumulators of eight
// rows each. For a block the distance loop runs j = 0 … len(seed)−1:
// broadcast seed[j], subtract the block's values of row j of xt,
// square, add to the accumulators. In the same loop the running total
// X14 is extended over the previous block's d2, eight rows per step in
// row order, and stored to sums: that serial chain of scalar adds is
// what bounds a round, and interleaving it with the distance arithmetic
// lets the two overlap. What the loop leaves of the previous block
// (fewer than eight steps) is drained after it. The block's sums then
// replace d2 where strictly smaller (VCMPPD LT_OQ into K1: false when
// either side is NaN), and near takes c under the same mask. The last
// block is drained after the walk.
//
// Byte offsets: R10 is the block's first row, R9 the next row the total
// has not reached yet; rows [R9, R10) are pending.
TEXT ·seedRoundAVX512(SB), NOSPLIT, $0-152
	MOVQ         seed_base+0(FP), SI
	MOVQ         seed_len+8(FP), CX
	MOVQ         xt_base+24(FP), DI
	MOVQ         stride+48(FP), DX
	VPBROADCASTQ c+56(FP), Z13
	MOVQ         near_base+64(FP), R8
	MOVQ         d2_base+88(FP), BX
	MOVQ         sums_base+112(FP), AX
	VMOVSD       total+136(FP), X14
	SHLQ         $3, DX // row step of xt in bytes
	XORQ         R10, R10
	XORQ         R9, R9

seed64:
	MOVQ d2_len+96(FP), R11
	SHLQ $3, R11
	CMPQ R10, R11
	JGE  seeddrain
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	LEAQ   (DI)(R10*1), R11 // &xt[j*stride+row], j = 0
	MOVQ   SI, R12          // &seed[j]
	MOVQ   CX, R13          // terms left
	PCALIGN $32

sloopsum:
	CMPQ         R9, R10
	JGE          sloop
	VBROADCASTSD (R12), Z8
	VSUBPD       (R11), Z8, Z16
	VSUBPD       64(R11), Z8, Z17
	VSUBPD       128(R11), Z8, Z18
	VSUBPD       192(R11), Z8, Z19
	VSUBPD       256(R11), Z8, Z20
	VSUBPD       320(R11), Z8, Z21
	VSUBPD       384(R11), Z8, Z22
	VSUBPD       448(R11), Z8, Z23
	VMULPD       Z16, Z16, Z16
	VMULPD       Z17, Z17, Z17
	VMULPD       Z18, Z18, Z18
	VMULPD       Z19, Z19, Z19
	VMULPD       Z20, Z20, Z20
	VMULPD       Z21, Z21, Z21
	VMULPD       Z22, Z22, Z22
	VMULPD       Z23, Z23, Z23
	VADDPD       Z16, Z0, Z0
	VADDPD       Z17, Z1, Z1
	VADDPD       Z18, Z2, Z2
	VADDPD       Z19, Z3, Z3
	VADDPD       Z20, Z4, Z4
	VADDPD       Z21, Z5, Z5
	VADDPD       Z22, Z6, Z6
	VADDPD       Z23, Z7, Z7
	VADDSD       (BX)(R9*1), X14, X14
	VMOVSD       X14, (AX)(R9*1)
	VADDSD       8(BX)(R9*1), X14, X14
	VMOVSD       X14, 8(AX)(R9*1)
	VADDSD       16(BX)(R9*1), X14, X14
	VMOVSD       X14, 16(AX)(R9*1)
	VADDSD       24(BX)(R9*1), X14, X14
	VMOVSD       X14, 24(AX)(R9*1)
	VADDSD       32(BX)(R9*1), X14, X14
	VMOVSD       X14, 32(AX)(R9*1)
	VADDSD       40(BX)(R9*1), X14, X14
	VMOVSD       X14, 40(AX)(R9*1)
	VADDSD       48(BX)(R9*1), X14, X14
	VMOVSD       X14, 48(AX)(R9*1)
	VADDSD       56(BX)(R9*1), X14, X14
	VMOVSD       X14, 56(AX)(R9*1)
	ADDQ         $64, R9
	ADDQ         $8, R12
	ADDQ         DX, R11
	DECQ         R13
	JNZ          sloopsum
	JMP          sfold
	PCALIGN      $32

sloop:
	VBROADCASTSD (R12), Z8
	VSUBPD       (R11), Z8, Z16
	VSUBPD       64(R11), Z8, Z17
	VSUBPD       128(R11), Z8, Z18
	VSUBPD       192(R11), Z8, Z19
	VSUBPD       256(R11), Z8, Z20
	VSUBPD       320(R11), Z8, Z21
	VSUBPD       384(R11), Z8, Z22
	VSUBPD       448(R11), Z8, Z23
	VMULPD       Z16, Z16, Z16
	VMULPD       Z17, Z17, Z17
	VMULPD       Z18, Z18, Z18
	VMULPD       Z19, Z19, Z19
	VMULPD       Z20, Z20, Z20
	VMULPD       Z21, Z21, Z21
	VMULPD       Z22, Z22, Z22
	VMULPD       Z23, Z23, Z23
	VADDPD       Z16, Z0, Z0
	VADDPD       Z17, Z1, Z1
	VADDPD       Z18, Z2, Z2
	VADDPD       Z19, Z3, Z3
	VADDPD       Z20, Z4, Z4
	VADDPD       Z21, Z5, Z5
	VADDPD       Z22, Z6, Z6
	VADDPD       Z23, Z7, Z7
	ADDQ         $8, R12
	ADDQ         DX, R11
	DECQ         R13
	JNZ          sloop

sfold:
	CMPQ   R9, R10
	JGE    sstore
	VADDSD (BX)(R9*1), X14, X14
	VMOVSD X14, (AX)(R9*1)
	ADDQ   $8, R9
	JMP    sfold

sstore:
	LEAQ      (BX)(R10*1), R11 // &d2[row]
	LEAQ      (R8)(R10*1), R12 // &near[row]
	VCMPPD    $0x11, (R11), Z0, K1
	VMOVUPD   Z0, K1, (R11)
	VMOVDQU64 Z13, K1, (R12)
	VCMPPD    $0x11, 64(R11), Z1, K1
	VMOVUPD   Z1, K1, 64(R11)
	VMOVDQU64 Z13, K1, 64(R12)
	VCMPPD    $0x11, 128(R11), Z2, K1
	VMOVUPD   Z2, K1, 128(R11)
	VMOVDQU64 Z13, K1, 128(R12)
	VCMPPD    $0x11, 192(R11), Z3, K1
	VMOVUPD   Z3, K1, 192(R11)
	VMOVDQU64 Z13, K1, 192(R12)
	VCMPPD    $0x11, 256(R11), Z4, K1
	VMOVUPD   Z4, K1, 256(R11)
	VMOVDQU64 Z13, K1, 256(R12)
	VCMPPD    $0x11, 320(R11), Z5, K1
	VMOVUPD   Z5, K1, 320(R11)
	VMOVDQU64 Z13, K1, 320(R12)
	VCMPPD    $0x11, 384(R11), Z6, K1
	VMOVUPD   Z6, K1, 384(R11)
	VMOVDQU64 Z13, K1, 384(R12)
	VCMPPD    $0x11, 448(R11), Z7, K1
	VMOVUPD   Z7, K1, 448(R11)
	VMOVDQU64 Z13, K1, 448(R12)
	ADDQ      $512, R10
	JMP       seed64

seeddrain:
	CMPQ   R9, R10
	JGE    seeddone
	VADDSD (BX)(R9*1), X14, X14
	VMOVSD X14, (AX)(R9*1)
	ADDQ   $8, R9
	JMP    seeddrain

seeddone:
	VMOVSD X14, ret+144(FP)
	VZEROUPPER
	RET

// func nearestAVX512(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64)
//
// Rows are walked sixteen at a time (two ZMM of rows). For a block, each
// group of four centres is measured in one pass over j = 0 … p−1: load
// the rows' value j once, broadcast the four centres' value j, subtract
// the rows from each, square, add — eight accumulators, one per
// (centre, half). The group is then folded into the running minimum
// centre by centre in index order: VCMPPD LT_OQ sets K1/K2 where the new
// distance is strictly below the minimum (never for a NaN), VMINPD
// takes the same choice for the value, and a masked VMOVDQA64 merges the
// centre index, so ties keep the lower index. The minimum (Z8, Z9), its
// index (Z10, Z11) and the running centre index (Z15, stepped by Z14 =
// 1) stay in registers across all groups; dist and assign are written
// once per block.
TEXT ·nearestAVX512(SB), NOSPLIT, $0-112
	MOVQ         packed_base+0(FP), SI
	MOVQ         packed_len+8(FP), R13
	MOVQ         p+24(FP), CX
	MOVQ         xt_base+32(FP), DI
	MOVQ         stride+56(FP), DX
	MOVQ         assign_base+64(FP), R8
	MOVQ         dist_base+88(FP), BX
	MOVQ         dist_len+96(FP), R9
	SHLQ         $3, DX
	LEAQ         (SI)(R13*8), R13 // end of packed
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z14
	MOVQ         $0x7ff0000000000000, AX
	VPBROADCASTQ AX, Z12 // +Inf
	XORQ         R10, R10

near16:
	CMPQ      R10, R9
	JGE       neardone
	VMOVAPD   Z12, Z8
	VMOVAPD   Z12, Z9
	VPXORQ    Z10, Z10, Z10
	VPXORQ    Z11, Z11, Z11
	VPXORQ    Z15, Z15, Z15
	MOVQ      SI, R12 // &packed[group][j][0]

group16:
	VPXORQ  Z0, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VPXORQ  Z6, Z6, Z6
	VPXORQ  Z7, Z7, Z7
	LEAQ    (DI)(R10*8), R11
	MOVQ    CX, AX
	PCALIGN $32

nloop16:
	VMOVUPD      (R11), Z16
	VMOVUPD      64(R11), Z17
	VBROADCASTSD (R12), Z18
	VBROADCASTSD 8(R12), Z19
	VBROADCASTSD 16(R12), Z20
	VBROADCASTSD 24(R12), Z21
	VSUBPD       Z16, Z18, Z22
	VSUBPD       Z17, Z18, Z23
	VSUBPD       Z16, Z19, Z24
	VSUBPD       Z17, Z19, Z25
	VSUBPD       Z16, Z20, Z26
	VSUBPD       Z17, Z20, Z27
	VSUBPD       Z16, Z21, Z28
	VSUBPD       Z17, Z21, Z29
	VMULPD       Z22, Z22, Z22
	VMULPD       Z23, Z23, Z23
	VMULPD       Z24, Z24, Z24
	VMULPD       Z25, Z25, Z25
	VMULPD       Z26, Z26, Z26
	VMULPD       Z27, Z27, Z27
	VMULPD       Z28, Z28, Z28
	VMULPD       Z29, Z29, Z29
	VADDPD       Z22, Z0, Z0
	VADDPD       Z23, Z1, Z1
	VADDPD       Z24, Z2, Z2
	VADDPD       Z25, Z3, Z3
	VADDPD       Z26, Z4, Z4
	VADDPD       Z27, Z5, Z5
	VADDPD       Z28, Z6, Z6
	VADDPD       Z29, Z7, Z7
	ADDQ         $32, R12
	ADDQ         DX, R11
	DECQ         AX
	JNZ          nloop16

	VCMPPD    $0x11, Z8, Z0, K1
	VMINPD    Z8, Z0, Z8
	VMOVDQA64 Z15, K1, Z10
	VCMPPD    $0x11, Z9, Z1, K2
	VMINPD    Z9, Z1, Z9
	VMOVDQA64 Z15, K2, Z11
	VPADDQ    Z14, Z15, Z15
	VCMPPD    $0x11, Z8, Z2, K1
	VMINPD    Z8, Z2, Z8
	VMOVDQA64 Z15, K1, Z10
	VCMPPD    $0x11, Z9, Z3, K2
	VMINPD    Z9, Z3, Z9
	VMOVDQA64 Z15, K2, Z11
	VPADDQ    Z14, Z15, Z15
	VCMPPD    $0x11, Z8, Z4, K1
	VMINPD    Z8, Z4, Z8
	VMOVDQA64 Z15, K1, Z10
	VCMPPD    $0x11, Z9, Z5, K2
	VMINPD    Z9, Z5, Z9
	VMOVDQA64 Z15, K2, Z11
	VPADDQ    Z14, Z15, Z15
	VCMPPD    $0x11, Z8, Z6, K1
	VMINPD    Z8, Z6, Z8
	VMOVDQA64 Z15, K1, Z10
	VCMPPD    $0x11, Z9, Z7, K2
	VMINPD    Z9, Z7, Z9
	VMOVDQA64 Z15, K2, Z11
	VPADDQ    Z14, Z15, Z15
	CMPQ      R12, R13
	JLT       group16

	VMOVUPD   Z8, (BX)(R10*8)
	VMOVUPD   Z9, 64(BX)(R10*8)
	VMOVDQU64 Z10, (R8)(R10*8)
	VMOVDQU64 Z11, 64(R8)(R10*8)
	ADDQ      $16, R10
	JMP       near16

neardone:
	VZEROUPPER
	RET
