package bitset

import (
	"math/bits"
	"runtime"
)

// This file holds the flat word-loop kernels every Set and Matrix
// operation runs on. They are plain Go: no per-bit closures anywhere —
// bit scans are inlined TrailingZeros64 word loops, ORs are unrolled by
// four — and the same code runs on every target.

// KernelInfo names the kernel implementation of the build, for
// benchmark harnesses that record their environment.
type KernelInfo struct {
	// Arch is runtime.GOARCH of the build.
	Arch string `json:"arch"`
	// Path is always "portable": the Go loops of this file.
	Path string `json:"path"`
}

// Kernels reports the kernel implementation of the build.
func Kernels() KernelInfo { return KernelInfo{Arch: runtime.GOARCH, Path: "portable"} }

// orWords ORs the first len(src) words of src into dst, unrolled by
// four.
func orWords(dst, src []uint64) {
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

// andWords ANDs the first len(src) words of src into dst.
func andWords(dst, src []uint64) {
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

// intersectWords reports whether a and b share a set bit in the first
// len(b) words.
func intersectWords(a, b []uint64) bool {
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

// anyWords reports whether any word of p is nonzero.
func anyWords(p []uint64) bool {
	for _, w := range p {
		if w != 0 {
			return true
		}
	}
	return false
}

// popcountWords returns the number of set bits across p.
func popcountWords(p []uint64) int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// composeRows is the general (multi-word) boolean-composition row
// accumulation: for each row i and each bit j set in row i of a
// (aStride words per row), OR row j of b (bStride words per row) into
// row i of dst (bStride words per row).
func composeRows(dst, a, b []uint64, rows, aStride, bStride int) {
	for i := 0; i < rows; i++ {
		drow := dst[i*bStride : (i+1)*bStride]
		arow := a[i*aStride : (i+1)*aStride]
		for wi, w := range arow {
			base := wi << 6
			for w != 0 {
				j := base + bits.TrailingZeros64(w)
				w &= w - 1
				orWords(drow, b[j*bStride:(j+1)*bStride])
			}
		}
	}
}
