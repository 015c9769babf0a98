package bitset

import (
	"fmt"
	"math/bits"
)

// Matrix is a boolean matrix with word-packed rows. Entry (i, j) set means
// the relation contains the pair (row element i, column element j).
//
// In the enumeration engine rows index the ∪-gates of a descendant box B′
// and columns index the ∪-gates of an ancestor box B (or a boxed set Γ),
// so the matrix is the ∪-reachability relation R(B′, B) of Section 5.
type Matrix struct {
	Rows   int
	Cols   int
	stride int // words per row
	bits   []uint64
}

// NewMatrix returns an all-false rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	stride := (cols + 63) / 64
	return Matrix{Rows: rows, Cols: cols, stride: stride, bits: make([]uint64, rows*stride)}
}

// Words returns the number of backing words a rows×cols matrix needs,
// for callers that lay several matrices out on one allocation (MatrixOn).
func Words(rows, cols int) int { return rows * ((cols + 63) / 64) }

// MatrixOn returns a rows×cols matrix laid out on the given backing
// words, which must have exactly Words(rows, cols) entries and be
// all-zero (freshly allocated, or cleared by the caller when reusing
// scratch — the helper does NOT clear, so carving many matrices from
// one fresh allocation pays the runtime's zeroing once, not per
// matrix). Together with Words this lets hot paths carve many small
// matrices out of one allocation; the resulting matrices behave exactly
// like NewMatrix results.
func MatrixOn(bits []uint64, rows, cols int) Matrix {
	stride := (cols + 63) / 64
	if len(bits) != rows*stride {
		panic(fmt.Sprintf("bitset: MatrixOn backing has %d words, want %d", len(bits), rows*stride))
	}
	return Matrix{Rows: rows, Cols: cols, stride: stride, bits: bits}
}

// IdentityOn returns the n×n identity relation laid out on a
// caller-provided backing (see MatrixOn).
func IdentityOn(bits []uint64, n int) Matrix {
	m := MatrixOn(bits, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i)
	}
	return m
}

// ComposeInto is Compose OR-accumulating into a caller-provided
// destination matrix, which must be a.Rows×b.Cols and ALL-FALSE on
// entry (typically carved with MatrixOn from a fresh allocation; the
// helper does not clear it — see MatrixOn), and must not alias a or b.
// It returns dst.
//
// This is the composition hot loop of the enumeration descent, so it is
// written word-parallel twice over: when every matrix fits one word per
// row (the common case — boxes rarely carry more than 64 ∪-gates) the
// whole composition runs on raw words with no closure calls and an
// all-zero early exit per row; the general multi-word path goes through
// the composeRows kernel, an inlined TrailingZeros64 word loop.
func ComposeInto(dst, a, b Matrix) Matrix {
	checkCompose(dst, a, b)
	if a.stride == 1 && b.stride == 1 {
		composeRows1(dst.bits, a.bits, b.bits, a.Rows)
		return dst
	}
	composeRows(dst.bits, a.bits, b.bits, a.Rows, a.stride, b.stride)
	return dst
}

// checkCompose validates the ComposeInto shape contract.
func checkCompose(dst, a, b Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("bitset: ComposeInto dimension mismatch %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("bitset: ComposeInto destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
}

// composeRows1 is the single-word-rows composition fast path: row i of
// the result is the OR of the b-row words selected by the bits of a's
// row word, accumulated in a register.
func composeRows1(dst, a, b []uint64, rows int) {
	for i := 0; i < rows; i++ {
		w := a[i]
		if w == 0 {
			continue
		}
		acc := dst[i]
		for w != 0 {
			acc |= b[bits.TrailingZeros64(w)]
			w &= w - 1
		}
		dst[i] = acc
	}
}

// ComposeManyInto is ComposeInto batched over many left operands
// sharing one right operand: dsts[i] = as[i] ∘ b, accumulated into
// dsts[i] (same all-false, non-aliasing contract as ComposeInto). The
// batch form exists for the per-box wiring loops — the index builder
// composes every child relation of a box against the same W matrix —
// where it validates the whole box before composing any of it.
func ComposeManyInto(dsts, as []Matrix, b Matrix) {
	if len(dsts) != len(as) {
		panic(fmt.Sprintf("bitset: ComposeManyInto got %d destinations for %d operands", len(dsts), len(as)))
	}
	for i := range as {
		checkCompose(dsts[i], as[i], b)
	}
	for i, a := range as {
		if a.stride == 1 && b.stride == 1 {
			composeRows1(dsts[i].bits, a.bits, b.bits, a.Rows)
		} else {
			composeRows(dsts[i].bits, a.bits, b.bits, a.Rows, a.stride, b.stride)
		}
	}
}

// Set makes (i, j) true.
func (m Matrix) Set(i, j int) { m.bits[i*m.stride+j>>6] |= 1 << uint(j&63) }

// Get reports whether (i, j) is true.
func (m Matrix) Get(i, j int) bool { return m.bits[i*m.stride+j>>6]&(1<<uint(j&63)) != 0 }

// Row returns row i as a Set sharing the matrix storage: mutating the set
// mutates the matrix.
func (m Matrix) Row(i int) Set {
	return Set{words: m.bits[i*m.stride : (i+1)*m.stride], n: m.Cols}
}

// Clone returns an independent copy.
func (m Matrix) Clone() Matrix {
	c := m
	c.bits = make([]uint64, len(m.bits))
	copy(c.bits, m.bits)
	return c
}

// Empty reports whether no entry is set.
func (m Matrix) Empty() bool { return !anyWords(m.bits) }

// Count returns the number of true entries. Padding bits past Cols are
// an invariant zero (Set masks, ComposeInto only ORs rows together), so
// the count is one flat popcount sweep over the backing — POPCNT lanes
// on amd64 — rather than a per-row walk.
func (m Matrix) Count() int { return popcountWords(m.bits) }

// Equal reports whether m and o have identical dimensions and entries.
func (m Matrix) Equal(o Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// NonEmptyRows returns the set of row indices with at least one true entry.
// This is π₁(R), the projection to the first component used by the
// enumeration algorithms (Algorithm 2 line 4, Algorithm 3 lines 4 and 11).
func (m Matrix) NonEmptyRows() Set {
	s := NewSet(m.Rows)
	m.NonEmptyRowsInto(s)
	return s
}

// NonEmptyRowsInto is NonEmptyRows writing into a caller-provided set of
// capacity m.Rows, which must be empty on entry; it returns dst. With
// single-word rows the scan is branch-light: one word test per row,
// bit-packed straight into dst's words.
func (m Matrix) NonEmptyRowsInto(dst Set) Set {
	if dst.n != m.Rows {
		panic(fmt.Sprintf("bitset: NonEmptyRowsInto capacity %d, want %d", dst.n, m.Rows))
	}
	if m.stride == 1 {
		for i, w := range m.bits {
			if w != 0 {
				dst.words[i>>6] |= 1 << uint(i&63)
			}
		}
		return dst
	}
	for i := 0; i < m.Rows; i++ {
		if !m.RowEmpty(i) {
			dst.Add(i)
		}
	}
	return dst
}

// RowEmpty reports whether row i has no true entry, without materializing
// the row as a Set.
func (m Matrix) RowEmpty(i int) bool {
	return !anyWords(m.bits[i*m.stride : (i+1)*m.stride])
}

// ColUnion returns the union of the rows indexed by rows, i.e. the image of
// the set rows under the relation. The row scan is an inlined
// TrailingZeros64 word loop (no closure per element) feeding the OR
// kernel.
func (m Matrix) ColUnion(rows Set) Set {
	out := NewSet(m.Cols)
	for wi, w := range rows.words {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			orWords(out.words, m.bits[i*m.stride:(i+1)*m.stride])
		}
	}
	return out
}

// SetCol sets (int(r), j) for every r in rows — the bulk form of Set
// used by the circuit builder's wire-matrix loops, which paint one
// ancestor column across many descendant rows. The column word and mask
// are computed once for the whole batch.
func (m Matrix) SetCol(rows []int32, j int) {
	wj := j >> 6
	mask := uint64(1) << uint(j&63)
	for _, r := range rows {
		m.bits[int(r)*m.stride+wj] |= mask
	}
}

// RowsIntersectingInto adds to dst every row index whose row shares an
// element with g, and returns dst. dst must have capacity m.Rows; g is
// truncated or zero-extended to the row width as needed. This is the
// "which wires land in the changed gate set" scan of the answer-delta
// pipeline, run per repair — one intersection kernel call per row
// instead of a Set materialization + closure walk.
func (m Matrix) RowsIntersectingInto(g Set, dst Set) Set {
	if dst.n != m.Rows {
		panic(fmt.Sprintf("bitset: RowsIntersectingInto capacity %d, want %d", dst.n, m.Rows))
	}
	n := m.stride
	if len(g.words) < n {
		n = len(g.words)
	}
	if n == 0 {
		return dst
	}
	gw := g.words[:n]
	for i := 0; i < m.Rows; i++ {
		if intersectWords(m.bits[i*m.stride:i*m.stride+n], gw) {
			dst.words[i>>6] |= 1 << uint(i&63)
		}
	}
	return dst
}

// Compose returns the relational composition a∘b as a matrix:
// (i, k) ∈ a∘b iff ∃j: (i, j) ∈ a ∧ (j, k) ∈ b.
// a must be rows×mid and b mid×cols. This is boolean matrix multiplication
// implemented word-parallel: for each true (i, j) the whole row b[j] is
// OR-ed into the output row in Cols/64 operations.
func Compose(a, b Matrix) Matrix {
	return ComposeInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// ComposeNaive is the textbook O(rows·mid·cols) triple loop. It exists to
// make benchmark E10 (naive join vs word-packed composition, the paper's ω
// remark) honest; the engine always uses Compose.
func ComposeNaive(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("bitset: ComposeNaive dimension mismatch %d != %d", a.Cols, b.Rows))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if !a.Get(i, j) {
				continue
			}
			for k := 0; k < b.Cols; k++ {
				if b.Get(j, k) {
					out.Set(i, k)
				}
			}
		}
	}
	return out
}

// String renders the matrix as 0/1 rows, for debugging.
func (m Matrix) String() string {
	out := make([]byte, 0, m.Rows*(m.Cols+1))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Get(i, j) {
				out = append(out, '1')
			} else {
				out = append(out, '0')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
