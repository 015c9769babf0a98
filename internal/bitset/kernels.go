package bitset

import "math/bits"

// This file is the portable half of the kernel layer: pure-Go word-loop
// implementations of every flat kernel the package dispatches. On amd64
// (without the purego build tag) dispatch_amd64.go routes the wrappers
// to AVX2/POPCNT assembly when CPUID says the host supports it; on every
// other target, and under -tags purego, dispatch_generic.go aliases the
// wrappers straight to these loops. The two paths are bit-for-bit
// equivalent (pinned by the differential fuzz targets in fuzz_test.go),
// so callers never observe which one ran.
//
// The generic loops are themselves the restructured scalar fallback the
// vectorization pass produced: no per-bit closures anywhere — bit scans
// are inlined TrailingZeros64 word loops, ORs are unrolled by four — so
// the purego build is faster than the pre-dispatch code, not merely
// compatible with it.

// KernelInfo reports which kernel implementations the package selected
// at init, for benchmark baselines that must record their environment:
// a committed speedup number is meaningless without the feature flags
// of the machine that produced it.
type KernelInfo struct {
	// Arch is runtime.GOARCH of the build.
	Arch string `json:"arch"`
	// PureGo is true when the build carries no vector kernels at all
	// (the purego build tag, or a non-amd64 target).
	PureGo bool `json:"purego"`
	// AVX2 and POPCNT report what CPUID detected on this host at init
	// (always false on PureGo builds, which never ask).
	AVX2   bool `json:"avx2"`
	POPCNT bool `json:"popcnt"`
	// Vector names the kernel set currently live: "avx2" when the
	// vector kernels are dispatched, "generic" otherwise (unsupported
	// host, purego build, or a ForceGeneric window).
	Vector string `json:"vector"`
}

// Kernels returns the dispatch selection made at package init.
func Kernels() KernelInfo { return kernelInfo() }

// ForceGeneric disables the vector kernels until the returned restore
// function runs, so differential tests and the E-kernel experiment can
// measure the portable path inside a vectorized binary. It flips the
// package-level dispatch flags: NOT safe to call while other goroutines
// are using this package — test and benchmark harnesses only.
func ForceGeneric() (restore func()) { return forceGeneric() }

// orWordsGeneric ORs the first len(src) words of src into dst, unrolled
// by four.
func orWordsGeneric(dst, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	w := 0
	for ; w+4 <= len(src); w += 4 {
		dst[w] |= src[w]
		dst[w+1] |= src[w+1]
		dst[w+2] |= src[w+2]
		dst[w+3] |= src[w+3]
	}
	for ; w < len(src); w++ {
		dst[w] |= src[w]
	}
}

// andWordsGeneric ANDs the first len(src) words of src into dst.
func andWordsGeneric(dst, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	w := 0
	for ; w+4 <= len(src); w += 4 {
		dst[w] &= src[w]
		dst[w+1] &= src[w+1]
		dst[w+2] &= src[w+2]
		dst[w+3] &= src[w+3]
	}
	for ; w < len(src); w++ {
		dst[w] &= src[w]
	}
}

// intersectWordsGeneric reports whether a and b share a set bit in the
// first len(b) words.
func intersectWordsGeneric(a, b []uint64) bool {
	if len(b) == 0 {
		return false
	}
	_ = a[len(b)-1]
	for w, v := range b {
		if a[w]&v != 0 {
			return true
		}
	}
	return false
}

// anyWordsGeneric reports whether any word of p is nonzero.
func anyWordsGeneric(p []uint64) bool {
	for _, w := range p {
		if w != 0 {
			return true
		}
	}
	return false
}

// popcountWordsGeneric returns the number of set bits across p.
func popcountWordsGeneric(p []uint64) int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// composeRowsGeneric is the general (multi-word) boolean-composition row
// accumulation: for each row i and each bit j set in row i of a
// (aStride words per row), OR row j of b (bStride words per row) into
// row i of dst (bStride words per row). The bit scan is an inlined
// TrailingZeros64 word loop — no closure per bit, unlike the old
// Row(i).ForEach path.
func composeRowsGeneric(dst, a, b []uint64, rows, aStride, bStride int) {
	for i := 0; i < rows; i++ {
		drow := dst[i*bStride : (i+1)*bStride]
		arow := a[i*aStride : (i+1)*aStride]
		for wi, w := range arow {
			base := wi << 6
			for w != 0 {
				j := base + bits.TrailingZeros64(w)
				w &= w - 1
				orWordsGeneric(drow, b[j*bStride:(j+1)*bStride])
			}
		}
	}
}
