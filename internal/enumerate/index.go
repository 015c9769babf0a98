package enumerate

import (
	"math/big"
	"slices"

	"repro/internal/bitset"
	"repro/internal/circuit"
)

// IndexedBox pairs an immutable circuit box with the enumerate-layer
// data attached to it: the tree structure mirroring the tree of boxes
// and, when built in indexed mode, the per-box part of the index
// structure I(C) of Definition 6.1. It is the typed replacement for the
// untyped side field the circuit layer used to carry.
//
// An IndexedBox — like the box it wraps — is frozen after construction:
// nothing reachable from it is ever modified. A box plus its index
// therefore form a shareable unit, and the update machinery repairs the
// index along a hollowing trunk by building fresh IndexedBox nodes over
// the fresh boxes while reusing the wrappers of all untouched subtrees
// (Lemma 7.3). Any number of goroutines may enumerate from the same
// IndexedBox concurrently.
type IndexedBox struct {
	Box   *circuit.Box
	Left  *IndexedBox
	Right *IndexedBox
	// Index is nil when the wrapper was built without the Definition 6.1
	// index (withIndex false). The engine always builds it; ModeNaive and
	// ModeSimple, the baselines that run on the engine's frozen roots,
	// never read it.
	Index *BoxIndex
	// Counts, when counting is enabled, holds the number of circuit
	// derivations of each local ∪-gate — the Section 4 multiset count of
	// (run, valuation) pairs, computed by counting.Derivations — indexed
	// by local ∪-gate. It is the per-box state of the direct-access
	// descent (direct.go). Like everything else reachable from the
	// wrapper it is frozen: the engine fills it before the wrapper is
	// shared and nothing may mutate it (or the big.Ints inside) after.
	// Nil when counting is disabled or the box has no ∪-gates.
	Counts []*big.Int
}

// IsLeaf reports whether the wrapped box is a leaf of the tree of boxes.
func (n *IndexedBox) IsLeaf() bool { return n.Left == nil }

// Walk visits every wrapper bottom-up (children before parents).
func (n *IndexedBox) Walk(f func(*IndexedBox)) {
	if n == nil {
		return
	}
	n.Left.Walk(f)
	n.Right.Walk(f)
	f(n)
}

// Indexer builds IndexedBox wrappers. It owns the reusable construction
// scratch (raw per-gate tables, seed buffers, child position maps), so a
// long-lived Indexer — one per engine pipeline — makes per-box index
// repair allocate only the frozen result arrays. The zero value is
// ready to use.
//
// CONCURRENCY: an Indexer is NOT safe for concurrent use (the scratch is
// shared across calls); confine it like a circuit.Builder. The wrappers
// it returns are immutable and freely shareable.
type Indexer struct {
	rawFib   []targetKey
	rawFbb   []rawFbbVal
	seeds    []targetKey
	leftPos  []int16
	rightPos []int16
	// batchDst/batchSrc collect each side's (destination, child-relation)
	// pairs for the batched ComposeManyInto in buildBoxIndex. They are
	// cleared (headers zeroed) after every build so the scratch never
	// keeps a previous index generation's backing arrays alive.
	batchDst []bitset.Matrix
	batchSrc []bitset.Matrix
}

// Wrap builds the IndexedBox for a box whose children wrappers are given
// (nil for leaf boxes); left and right must wrap b.Left and b.Right.
// With withIndex set, the children must have been wrapped with an index
// too, and the box's part of I(C) is computed from theirs (Lemma 6.3).
func (ix *Indexer) Wrap(b *circuit.Box, left, right *IndexedBox, withIndex bool) *IndexedBox {
	n := &IndexedBox{Box: b, Left: left, Right: right}
	if withIndex {
		n.Index = ix.buildBoxIndex(n)
	}
	return n
}

// Wrap is Indexer.Wrap with one-shot scratch, for callers without a
// long-lived Indexer.
func Wrap(b *circuit.Box, left, right *IndexedBox, withIndex bool) *IndexedBox {
	var ix Indexer
	return ix.Wrap(b, left, right, withIndex)
}

// WrapCircuit wraps a whole circuit bottom-up.
func WrapCircuit(c *circuit.Circuit, withIndex bool) *IndexedBox {
	var ix Indexer
	var rec func(b *circuit.Box) *IndexedBox
	rec = func(b *circuit.Box) *IndexedBox {
		if b == nil {
			return nil
		}
		return ix.Wrap(b, rec(b.Left), rec(b.Right), withIndex)
	}
	return rec(c.Root)
}

// BuildIndex computes the index structure for the whole circuit bottom-up
// (Lemma 6.3), returning the root wrapper.
func BuildIndex(c *circuit.Circuit) *IndexedBox { return WrapCircuit(c, true) }

// BoxIndex is the per-box part of the index structure I(C) of Definition
// 6.1. For each box B it stores:
//
//   - a list of target boxes: the boxes of the form fib(g) or fbb(g) for
//     ∪-gates g of B, closed under pairwise least common ancestors and
//     sorted by preorder of the tree of boxes (the "linear order implied
//     by preorder over 𝔅′" of Definition 6.1);
//   - the reachability relation R(B*, B) for every target B* (Lemma 6.3);
//   - the pairwise-lca table over the targets — row-major in one flat
//     array, read through Lca(i, j) — which also answers ancestor
//     queries (A ancestor of B iff lca(A,B) = A);
//   - per ∪-gate g: fib(g) as a target position, and the pair
//     (FbbF, FbbE) summarizing the ∪-path structure below g. FbbE is the
//     deepest box of g's unbranched descent path; FbbF is the first
//     bidirectional box fbb(g) (equal to FbbE when defined, -1 when g's
//     ∪-paths never split). Together they let fbb(Γ) for arbitrary boxed
//     sets Γ be computed by an associative fold (Equation (2) together
//     with Observation 6.2), including the cases where individual fbb(g)
//     are undefined.
//
// Everything is computed bottom-up from the children's BoxIndex values
// (Lemma 6.3), which is what makes the index repairable along a hollowing
// trunk after updates (Lemma 7.3).
type BoxIndex struct {
	Targets []*IndexedBox
	// locs locates each target: side 0 = the box itself (always target
	// 0), 1 = a target of the left child, 2 = of the right child; ci is
	// the child-level target position.
	locs []targetKey

	Rel []bitset.Matrix // Rel[i] = R(Targets[i], B); rows Targets[i].Unions, cols B.Unions
	lca []int16         // row-major len(Targets)² table; see Lca

	Fib  []int16 // per ∪-gate: target position of fib(g)
	FbbF []int16 // per ∪-gate: target position of fbb(g), -1 if undefined
	FbbE []int16 // per ∪-gate: target position of the end of g's unbranched descent
}

// Lca returns the target position of lca(Targets[i], Targets[j]).
func (idx *BoxIndex) Lca(i, j int16) int16 {
	return idx.lca[int(i)*len(idx.Targets)+int(j)]
}

// targetKey identifies a prospective target during construction.
type targetKey struct {
	side int8
	ci   int16
}

// rawFbbVal is the per-gate (side, F, E) summary before target
// materialization.
type rawFbbVal struct {
	side int8
	f, e int16
}

// buildBoxIndex computes the index for one wrapper from its children's
// indexes (which must already be built).
func (ix *Indexer) buildBoxIndex(n *IndexedBox) *BoxIndex {
	b := n.Box
	nu := len(b.Unions)
	if n.IsLeaf() {
		idx := &BoxIndex{
			Targets: []*IndexedBox{n},
			locs:    []targetKey{{0, 0}},
			Rel:     []bitset.Matrix{bitset.Identity(nu)},
			lca:     []int16{0},
		}
		flat := make([]int16, 3*nu)
		idx.Fib, idx.FbbF, idx.FbbE = flat[:nu:nu], flat[nu:2*nu:2*nu], flat[2*nu:]
		for g := 0; g < nu; g++ {
			idx.FbbF[g] = -1 // Fib and FbbE stay 0: the box itself
		}
		return idx
	}
	li := n.Left.Index
	ri := n.Right.Index

	// Step 1: raw per-gate values in (side, childIdx) form.
	if cap(ix.rawFib) < nu {
		ix.rawFib = make([]targetKey, nu)
		ix.rawFbb = make([]rawFbbVal, nu)
	}
	rawFib := ix.rawFib[:nu]
	rawFbb := ix.rawFbb[:nu]
	for g := 0; g < nu; g++ {
		u := &b.Unions[g]
		hasLocal := len(u.Vars)+len(u.Times) > 0
		switch {
		case hasLocal:
			rawFib[g] = targetKey{0, 0}
		case len(u.LeftUnions) > 0:
			best := int16(-1)
			for _, cg := range u.LeftUnions {
				if f := li.Fib[cg]; best < 0 || f < best {
					best = f
				}
			}
			rawFib[g] = targetKey{1, best}
		case len(u.RightUnions) > 0:
			best := int16(-1)
			for _, cg := range u.RightUnions {
				if f := ri.Fib[cg]; best < 0 || f < best {
					best = f
				}
			}
			rawFib[g] = targetKey{2, best}
		default:
			// A ∪-gate always has at least one input; with no local and
			// no child inputs the circuit is malformed.
			panic("enumerate: ∪-gate with no inputs")
		}

		hasL, hasR := len(u.LeftUnions) > 0, len(u.RightUnions) > 0
		switch {
		case hasL && hasR:
			rawFbb[g] = rawFbbVal{0, 0, 0} // bidirectional at b itself
		case !hasL && !hasR:
			rawFbb[g] = rawFbbVal{0, -1, 0} // ∪-paths end here
		case hasL:
			f, e := int16(-1), int16(-1)
			for _, cg := range u.LeftUnions {
				if e < 0 {
					f, e = li.FbbF[cg], li.FbbE[cg]
				} else {
					f, e = li.combineFbb(f, e, li.FbbF[cg], li.FbbE[cg])
				}
			}
			rawFbb[g] = rawFbbVal{1, f, e}
		default:
			f, e := int16(-1), int16(-1)
			for _, cg := range u.RightUnions {
				if e < 0 {
					f, e = ri.FbbF[cg], ri.FbbE[cg]
				} else {
					f, e = ri.combineFbb(f, e, ri.FbbF[cg], ri.FbbE[cg])
				}
			}
			rawFbb[g] = rawFbbVal{2, f, e}
		}
	}

	// Step 2: collect seeds (duplicates allowed; sorted and compacted).
	seeds := append(ix.seeds[:0], targetKey{0, 0})
	for g := 0; g < nu; g++ {
		if rawFib[g].side != 0 {
			seeds = append(seeds, rawFib[g])
		}
		if rawFbb[g].side != 0 {
			if rawFbb[g].f >= 0 {
				seeds = append(seeds, targetKey{rawFbb[g].side, rawFbb[g].f})
			}
			seeds = append(seeds, targetKey{rawFbb[g].side, rawFbb[g].e})
		}
	}
	sortCompactTargets := func(ks []targetKey) []targetKey {
		slices.SortFunc(ks, func(a, b targetKey) int {
			if a.side != b.side {
				return int(a.side) - int(b.side)
			}
			return int(a.ci) - int(b.ci)
		})
		return slices.Compact(ks)
	}
	seeds = sortCompactTargets(seeds)

	// Step 3: close under pairwise lca (lca of consecutive elements in
	// preorder suffices, as for virtual trees). Cross-side or self lca is
	// the box itself, already present.
	base := len(seeds)
	for i := 0; i+1 < base; i++ {
		a, c := seeds[i], seeds[i+1]
		if a.side != 0 && a.side == c.side {
			var k targetKey
			if a.side == 1 {
				k = targetKey{1, li.Lca(a.ci, c.ci)}
			} else {
				k = targetKey{2, ri.Lca(a.ci, c.ci)}
			}
			seeds = append(seeds, k)
		}
	}
	if len(seeds) > base {
		seeds = sortCompactTargets(seeds)
	}
	ix.seeds = seeds

	// Step 4: materialize targets, position maps, relations. The Rel
	// matrices all live on one backing allocation.
	nt := len(seeds)
	idx := &BoxIndex{
		Targets: make([]*IndexedBox, nt),
		locs:    make([]targetKey, nt),
		Rel:     make([]bitset.Matrix, nt),
	}
	copy(idx.locs, seeds)
	ix.leftPos = growPos(ix.leftPos, len(li.Targets))
	ix.rightPos = growPos(ix.rightPos, len(ri.Targets))
	leftPos, rightPos := ix.leftPos, ix.rightPos
	relWords := 0
	for _, k := range seeds {
		switch k.side {
		case 0:
			relWords += bitset.Words(nu, nu)
		case 1:
			relWords += bitset.Words(li.Rel[k.ci].Rows, nu)
		default:
			relWords += bitset.Words(ri.Rel[k.ci].Rows, nu)
		}
	}
	relBits := make([]uint64, relWords)
	off := 0
	carve := func(rows int) []uint64 {
		w := bitset.Words(rows, nu)
		out := relBits[off : off+w : off+w]
		off += w
		return out
	}
	// Seeds are sorted by side — the box itself, then all left-child
	// targets, then all right-child targets — so each side is one
	// contiguous run and its compositions against the shared wire matrix
	// go through a single batched ComposeManyInto call (one validation
	// and one kernel dispatch per box side, not per target).
	idx.Targets[0] = n
	idx.Rel[0] = bitset.IdentityOn(carve(nu), nu)
	i2 := 1
	for i2 < nt && seeds[i2].side == 1 {
		i2++
	}
	bDst := ix.batchDst[:0]
	bSrc := ix.batchSrc[:0]
	for pos := 1; pos < i2; pos++ {
		k := seeds[pos]
		idx.Targets[pos] = li.Targets[k.ci]
		rel := li.Rel[k.ci]
		idx.Rel[pos] = bitset.MatrixOn(carve(rel.Rows), rel.Rows, nu)
		bDst = append(bDst, idx.Rel[pos])
		bSrc = append(bSrc, rel)
		leftPos[k.ci] = int16(pos)
	}
	bitset.ComposeManyInto(bDst, bSrc, b.WLeft)
	bDst, bSrc = bDst[:0], bSrc[:0]
	for pos := i2; pos < nt; pos++ {
		k := seeds[pos]
		idx.Targets[pos] = ri.Targets[k.ci]
		rel := ri.Rel[k.ci]
		idx.Rel[pos] = bitset.MatrixOn(carve(rel.Rows), rel.Rows, nu)
		bDst = append(bDst, idx.Rel[pos])
		bSrc = append(bSrc, rel)
		rightPos[k.ci] = int16(pos)
	}
	bitset.ComposeManyInto(bDst, bSrc, b.WRight)
	// Drop the matrix headers from the scratch so stale backings from
	// this build don't stay reachable across later repairs.
	for i := range bDst[:cap(bDst)] {
		bDst[:cap(bDst)][i] = bitset.Matrix{}
	}
	for i := range bSrc[:cap(bSrc)] {
		bSrc[:cap(bSrc)][i] = bitset.Matrix{}
	}
	ix.batchDst, ix.batchSrc = bDst[:0], bSrc[:0]

	// Step 5: lca table, flat row-major.
	idx.lca = make([]int16, nt*nt)
	for i := 0; i < nt; i++ {
		row := idx.lca[i*nt : (i+1)*nt]
		for j := 0; j < nt; j++ {
			si, sj := idx.locs[i].side, idx.locs[j].side
			switch {
			case si == 0 || sj == 0 || si != sj:
				row[j] = 0
			case si == 1:
				row[j] = leftPos[li.Lca(idx.locs[i].ci, idx.locs[j].ci)]
			default:
				row[j] = rightPos[ri.Lca(idx.locs[i].ci, idx.locs[j].ci)]
			}
			if row[j] < 0 {
				panic("enumerate: lca closure incomplete")
			}
		}
	}

	// Step 6: map per-gate values to target positions.
	flat := make([]int16, 3*nu)
	idx.Fib, idx.FbbF, idx.FbbE = flat[:nu:nu], flat[nu:2*nu:2*nu], flat[2*nu:]
	mapKey := func(k targetKey) int16 {
		switch k.side {
		case 0:
			return 0
		case 1:
			return leftPos[k.ci]
		default:
			return rightPos[k.ci]
		}
	}
	for g := 0; g < nu; g++ {
		idx.Fib[g] = mapKey(rawFib[g])
		if idx.Fib[g] < 0 {
			panic("enumerate: fib target not materialized")
		}
		fb := rawFbb[g]
		if fb.side == 0 {
			idx.FbbF[g] = fb.f // 0 or -1
			idx.FbbE[g] = 0
		} else {
			if fb.f >= 0 {
				idx.FbbF[g] = mapKey(targetKey{fb.side, fb.f})
			} else {
				idx.FbbF[g] = -1
			}
			idx.FbbE[g] = mapKey(targetKey{fb.side, fb.e})
		}
		if idx.FbbE[g] < 0 {
			panic("enumerate: fbb end target not materialized")
		}
	}
	return idx
}

// growPos returns a length-n position buffer filled with -1.
func growPos(s []int16, n int) []int16 {
	if cap(s) < n {
		s = make([]int16, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}

// combineFbb merges the (F, E) summaries of two boxed sets living in
// this box, using its lca table. The result summarizes the union: E is
// the deepest box of the common unbranched prefix of the union's
// ∪-paths, F the first box where they split (-1 if they never do).
func (idx *BoxIndex) combineFbb(f1, e1, f2, e2 int16) (f, e int16) {
	d := idx.Lca(e1, e2)
	if d != e1 && d != e2 {
		// The two descent paths split strictly above both ends: the
		// union is bidirectional exactly at their divergence box.
		return d, d
	}
	if d == e1 && d == e2 {
		// Same end box: whichever side already branches wins.
		if f1 >= 0 {
			return f1, e1
		}
		if f2 >= 0 {
			return f2, e2
		}
		return -1, e1
	}
	if d == e1 {
		// e1 is a strict ancestor of e2. If side 1 branches at e1 it is
		// the first split; otherwise side 1's paths end at e1 and the
		// union behaves like side 2 below.
		if f1 >= 0 {
			return f1, e1
		}
		return f2, e2
	}
	// e2 strict ancestor of e1: symmetric.
	if f2 >= 0 {
		return f2, e2
	}
	return f1, e1
}

// FoldFib returns the target position of fib(Γ) = min over g ∈ Γ of
// fib(g) in preorder (Equation (1)); -1 if Γ is empty.
func (idx *BoxIndex) FoldFib(gamma bitset.Set) int16 {
	best := int16(-1)
	for g := gamma.Next(0); g >= 0; g = gamma.Next(g + 1) {
		if f := idx.Fib[g]; best < 0 || f < best {
			best = f
		}
	}
	return best
}

// FoldFbb returns the target position of fbb(Γ) for a boxed set Γ
// (Equation (2) with Observation 6.2, generalized to handle gates whose
// singleton fbb is undefined); -1 if undefined.
func (idx *BoxIndex) FoldFbb(gamma bitset.Set) int16 {
	g := gamma.Next(0)
	if g < 0 {
		return -1
	}
	f, e := idx.FbbF[g], idx.FbbE[g]
	for g = gamma.Next(g + 1); g >= 0; g = gamma.Next(g + 1) {
		f, e = idx.combineFbb(f, e, idx.FbbF[g], idx.FbbE[g])
	}
	return f
}

// StrictAncestor reports whether target i is a strict ancestor of target
// j in the tree of boxes.
func (idx *BoxIndex) StrictAncestor(i, j int16) bool {
	return i != j && idx.Lca(i, j) == i
}
