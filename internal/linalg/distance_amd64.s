#include "textflag.h"

// func columnDistancesAVX2(a, xt []float64, stride int, out []float64)
//
// Lanes are walked sixteen at a time (four YMM accumulators), then four
// at a time. For each block the inner loop runs j = 0 … len(a)−1:
// broadcast a[j], subtract the block's values of row j of xt, square,
// add to the accumulators. Every lane thus computes
// s = (…((+0 + d0·d0) + d1·d1) …) with each operation rounded, the order
// and rounding of SquaredDistance.
TEXT ·columnDistancesAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ xt_base+24(FP), DI
	MOVQ stride+48(FP), DX
	MOVQ out_base+56(FP), R8
	MOVQ out_len+64(FP), R9
	SHLQ $3, DX         // row step of xt in bytes
	XORQ R10, R10       // first lane of the block

block16:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JLT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (DI)(R10*8), R11 // &xt[j*stride+lane], j = 0
	MOVQ SI, R12          // &a[j]
	MOVQ CX, R13          // terms left
	PCALIGN $32

loop16:
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
	JNZ     loop16

	VMOVUPD Y0, (R8)(R10*8)
	VMOVUPD Y1, 32(R8)(R10*8)
	VMOVUPD Y2, 64(R8)(R10*8)
	VMOVUPD Y3, 96(R8)(R10*8)
	ADDQ    $16, R10
	JMP     block16

block4:
	CMPQ R10, R9
	JGE  done
	VXORPD Y0, Y0, Y0
	LEAQ (DI)(R10*8), R11
	MOVQ SI, R12
	MOVQ CX, R13
	PCALIGN $32

loop4:
	VBROADCASTSD (R12), Y4
	VSUBPD  (R11), Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $8, R12
	ADDQ    DX, R11
	DECQ    R13
	JNZ     loop4

	VMOVUPD Y0, (R8)(R10*8)
	ADDQ    $4, R10
	JMP     block4

done:
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
