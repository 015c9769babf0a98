// Package slab lays several small arrays of plain data out on one
// backing allocation. The frozen per-box units of the circuit and
// enumerate layers each hold half a dozen short arrays (γ vectors, gate
// lists, wire matrices, index tables); carving them from one []uint64
// makes a unit one allocation instead of one per array, which is most
// of its resident cost when the arrays hold a few entries each.
//
// Only pointer-free element types may be carved: the backing is a
// []uint64, which the garbage collector never scans.
package slab

import "unsafe"

// Words returns the number of backing words n elements of T occupy.
func Words[T any](n int) int {
	var zero T
	return (n*int(unsafe.Sizeof(zero)) + 7) / 8
}

// Carve cuts n elements of T from the front of *words, which must hold
// at least Words[T](n) words, and advances *words past them. T must be
// pointer-free with an alignment of at most 8. The result's capacity
// is n, so appending to it never writes into the rest of the slab.
func Carve[T any](words *[]uint64, n int) []T {
	if n == 0 {
		return nil
	}
	w := Words[T](n)
	s := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData((*words)[:w]))), n)
	*words = (*words)[w:]
	return s[:n:n]
}
