// Package bitset provides word-packed bit sets and boolean matrices.
//
// These are the low-level carriers for the ∪-reachability relations of
// Sections 5 and 6 of the paper: a relation R(B′, B) between the ∪-gates of
// two boxes is a boolean matrix, and the enumeration algorithms repeatedly
// compose such relations. The paper bounds each composition by O(w³) with
// the naive join algorithm and remarks that any Boolean matrix
// multiplication algorithm (exponent ω) can be substituted. We provide the
// naive triple loop (ComposeNaive) and a word-parallel variant (Compose)
// that processes 64 columns per machine operation; benchmark E10 compares
// the two.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bit set over the universe [0, n).
// The zero value is an empty set of capacity 0.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set with capacity for n elements.
func NewSet(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set (the size of the universe, not the
// number of elements currently present; see Count).
func (s Set) Len() int { return s.n }

// Add inserts i into the set.
func (s Set) Add(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Remove deletes i from the set.
func (s Set) Remove(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (s Set) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return !anyWords(s.words) }

// Count returns the number of elements in the set.
func (s Set) Count() int { return popcountWords(s.words) }

// Clear removes all elements.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Or adds every element of o to s.
func (s Set) Or(o Set) { orWords(s.words, o.words) }

// And removes from s every element not in o.
func (s Set) And(o Set) { andWords(s.words, o.words) }

// Intersects reports whether s and o share an element.
func (s Set) Intersects(o Set) bool { return intersectWords(s.words, o.words) }

// Equal reports whether s and o contain exactly the same elements.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// First returns the smallest element of the set, or -1 if empty.
func (s Set) First() int {
	for i, w := range s.words {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Next returns the smallest element ≥ i, or -1 if there is none. It is
// the closure-free iteration primitive for hot loops:
//
//	for g := s.Next(0); g >= 0; g = s.Next(g + 1) { ... }
func (s Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i >> 6
	if wi >= len(s.words) {
		return -1
	}
	if w := s.words[wi] >> uint(i&63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if w := s.words[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Single returns the set's sole element when it has exactly one, else
// (-1, false) — the closure-free form of the "is this provenance a
// singleton" test of the direct-access descent.
func (s Set) Single() (int, bool) {
	e := -1
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		if e >= 0 || w&(w-1) != 0 {
			return -1, false
		}
		e = i<<6 + bits.TrailingZeros64(w)
	}
	return e, e >= 0
}

// ForEach calls f for every element in increasing order. If f returns
// false, iteration stops.
func (s Set) ForEach(f func(int) bool) {
	for i, w := range s.words {
		base := i << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elems returns the elements of the set in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// String renders the set as "{1, 5, 7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
