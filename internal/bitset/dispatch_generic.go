//go:build !amd64 || purego

package bitset

import "runtime"

// Portable dispatch: on non-amd64 targets, and under -tags purego on
// any target, every kernel wrapper aliases the generic Go loop in
// kernels.go directly — no feature detection, no assembly, no runtime
// branching. CI builds and tests this configuration on every push so
// the fallback can never rot behind the vector path.

func kernelInfo() KernelInfo {
	return KernelInfo{Arch: runtime.GOARCH, PureGo: true, Vector: "generic"}
}

func forceGeneric() (restore func()) { return func() {} }

func orWords(dst, src []uint64)  { orWordsGeneric(dst, src) }
func andWords(dst, src []uint64) { andWordsGeneric(dst, src) }

func intersectWords(a, b []uint64) bool { return intersectWordsGeneric(a, b) }
func anyWords(p []uint64) bool          { return anyWordsGeneric(p) }
func popcountWords(p []uint64) int      { return popcountWordsGeneric(p) }

func composeRows(dst, a, b []uint64, rows, aStride, bStride int) {
	composeRowsGeneric(dst, a, b, rows, aStride, bStride)
}
