// Package enumerate implements the enumeration algorithms of Sections 5
// and 6 of the paper on assignment circuits built by package circuit:
//
//   - Algorithm 2 (the boxwise scheme of Section 5): duplicate-free
//     enumeration with provenance, parameterized by a box-enumeration
//     strategy.
//   - The naive box-enumeration (delay proportional to circuit depth) and
//     the jump-pointer box-enumeration of Section 6 (Algorithm 3), which
//     uses the index structure I(C) of Definition 6.1 to achieve delay
//     independent of the circuit depth.
//
// All of them run on one enumeration cursor (enum.go): an explicit stack
// of frames, each a piece of the algorithms' recursion still pending,
// whose Next pops and expands frames. The cursor starts either at the
// first answer (Ropes) or right after the answer a count-guided descent
// lands on (Descender.RopesFrom, seek.go); the descent records its
// pending pieces as the same frames. Per-answer scratch — relations,
// provenance sets, ×-gate selections — is carved from the cursor's
// bitset.Arena and given back frame by frame as frames pop; cursors are
// pooled, so a steady-state stream allocates only the ropes it yields
// (carved from append-only slabs) and what the caller materializes.
//
// The index is computed bottom-up per box (Lemma 6.3) and can therefore be
// repaired along a hollowing trunk after updates (Lemma 7.3).
package enumerate

import (
	"iter"
	"math/bits"

	"repro/internal/tree"
)

// Rope is a persistent, immutable assignment under construction: a binary
// concatenation tree over var-gate outputs. Concatenation is O(1) and
// materialization is O(size), which is what gives Algorithm 2 its
// O(|S|·poly(w)) delay: a produced assignment is shared between iterations
// rather than copied.
type Rope struct {
	set   tree.VarSet // leaf: variables placed at node
	node  tree.NodeID // leaf: the node
	left  *Rope       // internal: concatenation
	right *Rope
	size  int // number of singletons
}

// LeafRope returns the rope for a var gate capturing {⟨Z:n⟩ | Z ∈ set}.
func LeafRope(set tree.VarSet, node tree.NodeID) *Rope {
	return &Rope{set: set, node: node, size: set.Count()}
}

// Concat returns the concatenation of two ropes in O(1).
func Concat(l, r *Rope) *Rope {
	return &Rope{left: l, right: r, size: l.size + r.size}
}

// Size returns the number of singletons in the assignment.
func (r *Rope) Size() int { return r.size }

// Materialize flattens the rope into an assignment in O(size) with one
// allocation, the result (AppendTo on a fresh slice).
func (r *Rope) Materialize() tree.Assignment {
	return r.AppendTo(make(tree.Assignment, 0, r.size))
}

// AppendTo appends the rope's assignment to dst in canonical form and
// returns the extended slice; a nil rope (the empty assignment) appends
// nothing. The v-tree discipline of structured DNNFs guarantees the
// leaves are already in document order of the underlying tree, but
// Normalize is cheap (a scan when the order holds) and makes the
// appended run canonical regardless.
func (r *Rope) AppendTo(dst tree.Assignment) tree.Assignment {
	if r == nil {
		return dst
	}
	start := len(dst)
	// The right factors still to visit; ropes nest deeper than this
	// only for answers of more than 32 singletons.
	var spill [32]*Rope
	pending := spill[:0]
	for x := r; ; {
		for x.left != nil {
			pending = append(pending, x.right)
			x = x.left
		}
		for m := uint32(x.set); m != 0; m &= m - 1 {
			dst = append(dst, tree.Singleton{Var: tree.Var(bits.TrailingZeros32(m)), Node: x.node})
		}
		if len(pending) == 0 {
			return dst[:start+len(dst[start:].Normalize())]
		}
		x = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	}
}

// ropeSlab is a bump allocator for the ropes the cursor yields. Yielded
// ropes are persistent — a consumer may keep them past the stream, which
// is how callers materialize in batches — so a slab is only ever
// appended to: an exhausted slab is dropped to the garbage collector
// (alive for as long as any of its ropes is) and a fresh one started.
type ropeSlab []Rope

const ropeSlabLen = 256

// leaf is LeafRope carved from the slab.
func (s *ropeSlab) leaf(set tree.VarSet, node tree.NodeID) *Rope {
	return s.put(Rope{set: set, node: node, size: set.Count()})
}

// concat is Concat carved from the slab.
func (s *ropeSlab) concat(l, r *Rope) *Rope {
	return s.put(Rope{left: l, right: r, size: l.size + r.size})
}

func (s *ropeSlab) put(r Rope) *Rope {
	if len(*s) == cap(*s) {
		*s = make([]Rope, 0, ropeSlabLen)
	}
	*s = append(*s, r)
	return &(*s)[len(*s)-1]
}

// collectSeq adapts an iterator to a slice; used in tests.
func collectSeq[T any](s iter.Seq[T]) []T {
	var out []T
	for v := range s {
		out = append(out, v)
	}
	return out
}
