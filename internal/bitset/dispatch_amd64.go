//go:build amd64 && !purego

package bitset

import "runtime"

// This file is the amd64 half of the kernel dispatch: CPUID feature
// detection at init (dependency-free — the cpuid/xgetbv leaves are two
// tiny assembly stubs, so go.mod stays empty), package-level flags
// selected ONCE, and thin wrappers that branch on those flags before
// calling either the AVX2/POPCNT assembly (kernels_amd64.s) or the
// portable loops (kernels.go). The branch is a single predictable
// compare per kernel call; everything else about the hot paths —
// zero allocations, //go:noescape argument passing — is unchanged, so
// the alloc guards of circuit and enumerate hold on both paths.
//
// Thresholds: the vector kernels win on multi-word operands and only
// there (a one-word OR is one scalar instruction; a YMM round-trip
// plus VZEROUPPER loses). Each wrapper falls back to the generic loop
// below its kernel's profitable length, so single-word boxes — the
// common case of the paper's small-|Q| regime — never pay vector
// overhead, and wide boxes (the multi-word regime the E-kernel
// experiment measures) get the full SIMD width.

// Dispatch state. cpuAVX2/cpuPOPCNT record what CPUID detected (frozen
// after init, reported by Kernels); useAVX2/usePOPCNT gate the actual
// dispatch and are flipped only by ForceGeneric under test harnesses.
var (
	cpuAVX2   bool
	cpuPOPCNT bool
	useAVX2   bool
	usePOPCNT bool
)

// Minimum operand lengths (in words) for vector dispatch.
const (
	minVecOr    = 4 // one YMM register's worth
	minVecAny   = 8
	minVecCount = 8
)

// cpuid and xgetbv are the raw instruction stubs (cpuid_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	cpuPOPCNT = c1&(1<<23) != 0
	hasOSXSAVE := c1&(1<<27) != 0
	hasAVX := c1&(1<<28) != 0
	// AVX2 needs the CPU feature AND OS support for saving YMM state
	// (XCR0 bits 1|2 via xgetbv, only readable when OSXSAVE is set).
	osAVX := false
	if hasOSXSAVE {
		xa, _ := xgetbv()
		osAVX = xa&6 == 6
	}
	if maxID >= 7 {
		_, b7, _, _ := cpuid(7, 0)
		cpuAVX2 = hasAVX && osAVX && b7&(1<<5) != 0
	}
	useAVX2 = cpuAVX2
	usePOPCNT = cpuPOPCNT
}

func kernelInfo() KernelInfo {
	v := "generic"
	if useAVX2 {
		v = "avx2"
	}
	return KernelInfo{Arch: runtime.GOARCH, PureGo: false, AVX2: cpuAVX2, POPCNT: cpuPOPCNT, Vector: v}
}

func forceGeneric() (restore func()) {
	sa, sp := useAVX2, usePOPCNT
	useAVX2, usePOPCNT = false, false
	return func() { useAVX2, usePOPCNT = sa, sp }
}

// Assembly kernels (kernels_amd64.s). All are //go:noescape so that
// passing &slice[0] never forces the backing array to the heap — the
// zero-allocation guarantees of the arena-carved hot paths depend on it.

//go:noescape
func orWordsAVX2(dst, src *uint64, n int)

//go:noescape
func andWordsAVX2(dst, src *uint64, n int)

//go:noescape
func intersectsAVX2(a, b *uint64, n int) bool

//go:noescape
func anyWordsAVX2(p *uint64, n int) bool

//go:noescape
func popcntWords(p *uint64, n int) int

//go:noescape
func composeRowsAVX2(dst, a, b *uint64, rows, aStride, bStride int)

// Dispatched wrappers. Each falls back to the generic loop when the
// vector kernels are unavailable, below threshold, or when the operand
// shapes would make the generic path's bounds panic — the fallback
// preserves the exact panic behavior of the portable code.

func orWords(dst, src []uint64) {
	if n := len(src); useAVX2 && n >= minVecOr && len(dst) >= n {
		orWordsAVX2(&dst[0], &src[0], n)
		return
	}
	orWordsGeneric(dst, src)
}

func andWords(dst, src []uint64) {
	if n := len(src); useAVX2 && n >= minVecOr && len(dst) >= n {
		andWordsAVX2(&dst[0], &src[0], n)
		return
	}
	andWordsGeneric(dst, src)
}

func intersectWords(a, b []uint64) bool {
	if n := len(b); useAVX2 && n >= minVecOr && len(a) >= n {
		return intersectsAVX2(&a[0], &b[0], n)
	}
	return intersectWordsGeneric(a, b)
}

func anyWords(p []uint64) bool {
	if n := len(p); useAVX2 && n >= minVecAny {
		return anyWordsAVX2(&p[0], n)
	}
	return anyWordsGeneric(p)
}

func popcountWords(p []uint64) int {
	if n := len(p); usePOPCNT && n >= minVecCount {
		return popcntWords(&p[0], n)
	}
	return popcountWordsGeneric(p)
}

func composeRows(dst, a, b []uint64, rows, aStride, bStride int) {
	// bStride >= 2: with single-word b-rows there is nothing to
	// vectorize and the accumulator-in-register generic loop wins.
	if useAVX2 && bStride >= 2 && rows > 0 && len(a) > 0 && len(b) > 0 && len(dst) > 0 {
		composeRowsAVX2(&dst[0], &a[0], &b[0], rows, aStride, bStride)
		return
	}
	composeRowsGeneric(dst, a, b, rows, aStride, bStride)
}
