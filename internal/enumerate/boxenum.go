package enumerate

import (
	"iter"

	"repro/internal/bitset"
	"repro/internal/circuit"
)

// BoxRelation is one output of box-enum (Section 5): an interesting box B′
// together with the full ∪-reachability relation R(B′, Γ) (rows: ∪-gates
// of B′, columns: ∪-gates of Γ's box, populated only on Γ's columns).
type BoxRelation struct {
	Box *IndexedBox
	R   bitset.Matrix
}

// BoxEnum enumerates, exactly once each, the interesting boxes for the
// boxed set gamma of box b, i.e. the boxes B′ with ↓(Γ) ∩ B′ ≠ ∅.
type BoxEnum func(b *IndexedBox, gamma bitset.Set) iter.Seq[BoxRelation]

// interesting reports whether the box holds ↓-gates for the relation R:
// some ∪-gate with a nonempty R-row has a local var- or ×-input.
func interesting(b *circuit.Box, r bitset.Matrix) bool {
	for u := range b.Unions {
		if r.Row(u).Empty() {
			continue
		}
		if len(b.Unions[u].Vars) > 0 || len(b.Unions[u].Times) > 0 {
			return true
		}
	}
	return false
}

// seedRelation builds the identity relation restricted to gamma.
func seedRelation(b *circuit.Box, gamma bitset.Set) bitset.Matrix {
	r := bitset.NewMatrix(len(b.Unions), len(b.Unions))
	gamma.ForEach(func(g int) bool {
		r.Set(g, g)
		return true
	})
	return r
}

// NaiveBoxEnum is the straightforward implementation discussed in Section
// 5: depth-first traversal of the tree of boxes carrying the relation
// along, with delay proportional to the depth of the circuit. It is the
// baseline of experiment E8. It never touches the index, so it works on
// wrappers built without one.
func NaiveBoxEnum(b *IndexedBox, gamma bitset.Set) iter.Seq[BoxRelation] {
	return func(yield func(BoxRelation) bool) {
		naiveRec(b, seedRelation(b.Box, gamma), yield)
	}
}

func naiveRec(n *IndexedBox, r bitset.Matrix, yield func(BoxRelation) bool) bool {
	b := n.Box
	if interesting(b, r) {
		if !yield(BoxRelation{n, r}) {
			return false
		}
	}
	if n.IsLeaf() {
		return true
	}
	rl := bitset.Compose(b.WLeft, r)
	if !rl.Empty() {
		if !naiveRec(n.Left, rl, yield) {
			return false
		}
	}
	rr := bitset.Compose(b.WRight, r)
	if !rr.Empty() {
		if !naiveRec(n.Right, rr, yield) {
			return false
		}
	}
	return true
}

// IndexedBoxEnum is Algorithm 3 (Lemma 6.4): box enumeration with delay
// O(w³) independent of the circuit depth, jumping with the fib/fbb
// pointers of the index structure. The wrapper tree must have been built
// with the index (Wrap withIndex / BuildIndex).
func IndexedBoxEnum(b *IndexedBox, gamma bitset.Set) iter.Seq[BoxRelation] {
	return func(yield func(BoxRelation) bool) {
		indexedRec(b, seedRelation(b.Box, gamma), yield)
	}
}

// indexedRec is b-enum(B, R) of Algorithm 3. It receives R = R(B, Γ) and
// outputs the relations R(B′, Γ) for all interesting boxes B′ in the
// subtree of B. It is split into its three phases — the jump to the
// first interesting box B1 (here), the boxes strictly below B1
// (belowRec) and the walk over the bidirectional boxes above B1
// (walkRec) — so a ranked seek (seek.go) can resume any of them.
func indexedRec(n *IndexedBox, r bitset.Matrix, yield func(BoxRelation) bool) bool {
	gates := r.NonEmptyRows()
	// Line 4: jump to the first interesting box B1 and output it.
	fib := n.Index.FoldFib(gates)
	if fib < 0 {
		return true // empty relation: nothing below
	}
	b1 := n.Index.Targets[fib]
	r1 := bitset.Compose(n.Index.Rel[fib], r)
	return yield(BoxRelation{b1, r1}) && belowRec(b1, r1, yield) && walkRec(n, r, gates, yield)
}

// belowRec is lines 7-10 of Algorithm 3: all interesting boxes strictly
// below B1, left subtree first.
func belowRec(b1 *IndexedBox, r1 bitset.Matrix, yield func(BoxRelation) bool) bool {
	if b1.IsLeaf() {
		return true
	}
	rl := bitset.Compose(b1.Box.WLeft, r1)
	if !rl.Empty() && !indexedRec(b1.Left, rl, yield) {
		return false
	}
	return belowRightRec(b1, r1, yield)
}

// belowRightRec is the right half of belowRec (b1 is not a leaf).
func belowRightRec(b1 *IndexedBox, r1 bitset.Matrix, yield func(BoxRelation) bool) bool {
	rr := bitset.Compose(b1.Box.WRight, r1)
	return rr.Empty() || indexedRec(b1.Right, rr, yield)
}

// walkRec is lines 11-17 of Algorithm 3 for the region (n, r) whose
// nonempty rows are gates: walk the bidirectional boxes on the path
// from n down to B1; each right subtree hanging off that path holds
// further interesting boxes, enumerated recursively. The left descent
// continues toward B1 (which stays the first interesting box of every
// shrinking region, so the fib fold re-identifies it). The explicit
// loop plays the role of the paper's tail-recursion elimination.
func walkRec(n *IndexedBox, r bitset.Matrix, gates bitset.Set, yield func(BoxRelation) bool) bool {
	for {
		idx := n.Index
		fbb := idx.FoldFbb(gates)
		fib := idx.FoldFib(gates)
		if fbb < 0 || !idx.StrictAncestor(fbb, fib) {
			return true
		}
		bb := idx.Targets[fbb]
		rb := bitset.Compose(idx.Rel[fbb], r)
		rr := bitset.Compose(bb.Box.WRight, rb)
		if !rr.Empty() {
			if !indexedRec(bb.Right, rr, yield) {
				return false
			}
		}
		r = bitset.Compose(bb.Box.WLeft, rb)
		n = bb.Left
		gates = r.NonEmptyRows()
	}
}
