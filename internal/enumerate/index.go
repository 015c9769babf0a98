package enumerate

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/slab"
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
// IndexedBox concurrently. Every term leaf has its own wrapper (the
// engine's reuse tests and the Differ compare wrapper pointers), but
// the index and counts of a leaf depend on its gates only and are
// shared between leaves.
type IndexedBox struct {
	Box   *circuit.Box
	Left  *IndexedBox
	Right *IndexedBox
	// Index is nil when the wrapper was built without the Definition 6.1
	// index (withIndex false). The engine always builds it; ModeNaive,
	// the baseline that runs on the engine's frozen roots, never reads
	// it.
	Index *BoxIndex
	// Counts holds the number of circuit derivations of each local
	// ∪-gate — the Section 4 multiset count of (run, valuation) pairs,
	// computed by counting.Derivations from the children's Counts —
	// indexed by local ∪-gate. It is the per-box state of the
	// direct-access descent (direct.go). Like everything else reachable
	// from the wrapper it is frozen: the engine fills it before the
	// wrapper is shared and nothing may mutate it (or the big.Ints
	// inside) after; leaves of one template share one slice. Nil when
	// counting is disabled or the box has no ∪-gates.
	Counts []*big.Int
}

// IsLeaf reports whether the wrapped box is a leaf of the tree of boxes.
func (n *IndexedBox) IsLeaf() bool { return n.Left == nil }

// Target returns the wrapper at target position i of n's index.
// Position 0 is n itself, which the index does not store: that is what
// makes a leaf's index independent of its node, and shareable.
func (n *IndexedBox) Target(i int16) *IndexedBox {
	if i == 0 {
		return n
	}
	return n.Index.Targets[i].Box
}

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
// scratch (raw per-gate tables, seed buffers, child position maps) and
// the shared leaf indexes, so a long-lived Indexer — one per engine
// pipeline — makes per-box index repair allocate only the frozen
// result. The zero value is ready to use.
//
// CONCURRENCY: an Indexer is NOT safe for concurrent use (the scratch is
// shared across calls); confine it like a circuit.Builder. The wrappers
// it returns are immutable and freely shareable.
type Indexer struct {
	rawFib []targetKey
	rawFbb []rawFbbVal
	// seeds collects the targets of the box being indexed; once sorted
	// it locates each target position (side 0 = the box itself, 1 = a
	// target of the left child, 2 = of the right child; ci is the
	// child-level position).
	seeds    []targetKey
	leftPos  []int16
	rightPos []int16
	// batchDst/batchSrc collect each side's (destination, child-relation)
	// pairs for the batched ComposeManyInto in buildBoxIndex. They are
	// cleared (headers zeroed) after every build so the scratch never
	// keeps a previous index generation's backing arrays alive.
	batchDst []bitset.Matrix
	batchSrc []bitset.Matrix
	// leaves[nu] is the index every leaf with nu ∪-gates shares.
	leaves []*BoxIndex
}

// indexedUnit is an inner wrapper and its index in one allocation.
type indexedUnit struct {
	ib  IndexedBox
	idx BoxIndex
}

// Wrap builds the IndexedBox for a box whose children wrappers are given
// (nil for leaf boxes); left and right must wrap b.Left and b.Right.
// With withIndex set, the children must have been wrapped with an index
// too, and the box's part of I(C) is computed from theirs (Lemma 6.3).
// An indexed inner wrapper takes three allocations: the wrapper with
// its index, the target list, and one slab for the relations and the
// position tables; a leaf wrapper takes one.
func (ix *Indexer) Wrap(b *circuit.Box, left, right *IndexedBox, withIndex bool) *IndexedBox {
	switch {
	case !withIndex:
		return &IndexedBox{Box: b, Left: left, Right: right}
	case left == nil:
		return &IndexedBox{Box: b, Index: ix.leafIndex(len(b.Unions))}
	}
	u := &indexedUnit{ib: IndexedBox{Box: b, Left: left, Right: right}}
	u.ib.Index = &u.idx
	ix.buildBoxIndex(&u.ib)
	return &u.ib
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
//   - a list of targets: the boxes of the form fib(g) or fbb(g) for
//     ∪-gates g of B, closed under pairwise least common ancestors and
//     sorted by preorder of the tree of boxes (the "linear order implied
//     by preorder over 𝔅′" of Definition 6.1), each with the
//     reachability relation R(B*, B) (Lemma 6.3); position 0 is always
//     B itself;
//   - the pairwise-lca table over the targets, read through Lca(i, j),
//     which also answers ancestor queries (A ancestor of B iff
//     lca(A,B) = A);
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
// trunk after updates (Lemma 7.3). The relations and the position
// tables of one index live on one slab. A leaf's index depends only on
// its number of ∪-gates, so leaves share it.
type BoxIndex struct {
	Targets []Target
	lca     []int16 // row-major len(Targets)² table; see Lca
	gates   []int16 // Fib, then FbbF, then FbbE, one entry per ∪-gate each
}

// Target is one entry of a BoxIndex's target list.
type Target struct {
	// Box is the target's wrapper; nil at position 0, the wrapper the
	// index belongs to (read targets through IndexedBox.Target).
	Box *IndexedBox
	// Rel is R(target, B): rows are the target's ∪-gates, columns B's.
	Rel bitset.Matrix
}

// CheckIndex verifies the shape of n's index: one fib/fbb entry per
// ∪-gate of the box, every target position in range, position 0 not
// stored and every other target present, each relation sized (target's
// ∪-gates) × (box's ∪-gates), and an lca table that is symmetric, has
// Lca(i, i) = i, and puts the box itself (position 0) above every
// target.
func (n *IndexedBox) CheckIndex() error {
	idx := n.Index
	if idx == nil {
		return errors.New("enumerate: wrapper has no index")
	}
	nt, nu := len(idx.Targets), len(n.Box.Unions)
	if nt == 0 || len(idx.lca) != nt*nt || len(idx.gates) != 3*nu {
		return fmt.Errorf("enumerate: index sized for %d targets and %d gates, box has %d ∪-gates", nt, len(idx.gates)/3, nu)
	}
	if idx.Targets[0].Box != nil {
		return errors.New("enumerate: index stores target position 0")
	}
	inRange := func(p int16) bool { return p >= 0 && int(p) < nt }
	for i := range nt {
		t := n.Target(int16(i))
		if t == nil {
			return fmt.Errorf("enumerate: target %d missing", i)
		}
		if rel := idx.Targets[i].Rel; rel.Rows != len(t.Box.Unions) || rel.Cols != nu {
			return fmt.Errorf("enumerate: relation of target %d is %d×%d, want %d×%d", i, rel.Rows, rel.Cols, len(t.Box.Unions), nu)
		}
		for j := range nt {
			l := idx.Lca(int16(i), int16(j))
			if !inRange(l) || l != idx.Lca(int16(j), int16(i)) {
				return fmt.Errorf("enumerate: lca(%d, %d) = %d is out of range or asymmetric", i, j, l)
			}
		}
		if idx.Lca(int16(i), int16(i)) != int16(i) || idx.Lca(0, int16(i)) != 0 {
			return fmt.Errorf("enumerate: lca table wrong on the diagonal or the box row at %d", i)
		}
	}
	for g := range nu {
		if f := idx.FbbF(g); !inRange(idx.Fib(g)) || !inRange(idx.FbbE(g)) || (f != -1 && !inRange(f)) {
			return fmt.Errorf("enumerate: fib/fbb of gate %d out of range", g)
		}
	}
	return nil
}

// Lca returns the target position of lca(Targets[i], Targets[j]).
func (idx *BoxIndex) Lca(i, j int16) int16 {
	return idx.lca[int(i)*len(idx.Targets)+int(j)]
}

// Fib returns the target position of fib(g) for ∪-gate g.
func (idx *BoxIndex) Fib(g int) int16 { return idx.gates[g] }

// FbbF returns the target position of fbb(g), -1 if undefined.
func (idx *BoxIndex) FbbF(g int) int16 { return idx.gates[len(idx.gates)/3+g] }

// FbbE returns the target position of the end of g's unbranched descent.
func (idx *BoxIndex) FbbE(g int) int16 { return idx.gates[2*len(idx.gates)/3+g] }

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

// leafIndex returns the shared index of leaves with nu ∪-gates: the box
// itself is the only target, with the identity relation; every fib and
// FbbE is the box, every fbb undefined.
func (ix *Indexer) leafIndex(nu int) *BoxIndex {
	if nu < len(ix.leaves) && ix.leaves[nu] != nil {
		return ix.leaves[nu]
	}
	words := make([]uint64, bitset.Words(nu, nu)+slab.Words[int16](1+3*nu))
	rel := bitset.IdentityOn(words[:bitset.Words(nu, nu)], nu)
	rest := words[bitset.Words(nu, nu):]
	tab := slab.Carve[int16](&rest, 1+3*nu)
	idx := &BoxIndex{Targets: []Target{{Rel: rel}}, lca: tab[:1:1], gates: tab[1:]}
	for g := range nu {
		idx.gates[nu+g] = -1
	}
	if nu >= len(ix.leaves) {
		ix.leaves = append(ix.leaves, make([]*BoxIndex, nu+1-len(ix.leaves))...)
	}
	ix.leaves[nu] = idx
	return idx
}

// buildBoxIndex computes the index of an inner wrapper (n.Index, not
// yet filled) from its children's indexes, which must already be built.
func (ix *Indexer) buildBoxIndex(n *IndexedBox) {
	b := n.Box
	nu := len(b.Unions)
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
		lefts, rights := b.UnionLeft(g), b.UnionRight(g)
		switch {
		case b.HasLocal(g):
			rawFib[g] = targetKey{0, 0}
		case len(lefts) > 0:
			best := int16(-1)
			for _, cg := range lefts {
				if f := li.Fib(int(cg)); best < 0 || f < best {
					best = f
				}
			}
			rawFib[g] = targetKey{1, best}
		case len(rights) > 0:
			best := int16(-1)
			for _, cg := range rights {
				if f := ri.Fib(int(cg)); best < 0 || f < best {
					best = f
				}
			}
			rawFib[g] = targetKey{2, best}
		default:
			// A ∪-gate always has at least one input; with no local and
			// no child inputs the circuit is malformed.
			panic("enumerate: ∪-gate with no inputs")
		}

		switch {
		case len(lefts) > 0 && len(rights) > 0:
			rawFbb[g] = rawFbbVal{0, 0, 0} // bidirectional at b itself
		case len(lefts) == 0 && len(rights) == 0:
			rawFbb[g] = rawFbbVal{0, -1, 0} // ∪-paths end here
		case len(lefts) > 0:
			f, e := li.foldFbb(lefts)
			rawFbb[g] = rawFbbVal{1, f, e}
		default:
			f, e := ri.foldFbb(rights)
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

	// Step 4: materialize targets, position maps, relations. The
	// relations and the position tables share one slab.
	nt := len(seeds)
	idx := n.Index
	idx.Targets = make([]Target, nt)
	ix.leftPos = growPos(ix.leftPos, len(li.Targets))
	ix.rightPos = growPos(ix.rightPos, len(ri.Targets))
	leftPos, rightPos := ix.leftPos, ix.rightPos
	relWords := 0
	for _, k := range seeds {
		switch k.side {
		case 0:
			relWords += bitset.Words(nu, nu)
		case 1:
			relWords += bitset.Words(li.Targets[k.ci].Rel.Rows, nu)
		default:
			relWords += bitset.Words(ri.Targets[k.ci].Rel.Rows, nu)
		}
	}
	words := make([]uint64, relWords+slab.Words[int16](nt*nt+3*nu))
	relBits, rest := words[:relWords], words[relWords:]
	tab := slab.Carve[int16](&rest, nt*nt+3*nu)
	idx.lca, idx.gates = tab[:nt*nt:nt*nt], tab[nt*nt:]
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
	// go through a single batched ComposeManyInto call per box side.
	idx.Targets[0].Rel = bitset.IdentityOn(carve(nu), nu)
	i2 := 1
	for i2 < nt && seeds[i2].side == 1 {
		i2++
	}
	bDst := ix.batchDst[:0]
	bSrc := ix.batchSrc[:0]
	for pos := 1; pos < i2; pos++ {
		k := seeds[pos]
		rel := li.Targets[k.ci].Rel
		idx.Targets[pos] = Target{Box: n.Left.Target(k.ci), Rel: bitset.MatrixOn(carve(rel.Rows), rel.Rows, nu)}
		bDst = append(bDst, idx.Targets[pos].Rel)
		bSrc = append(bSrc, rel)
		leftPos[k.ci] = int16(pos)
	}
	bitset.ComposeManyInto(bDst, bSrc, b.WLeft)
	bDst, bSrc = bDst[:0], bSrc[:0]
	for pos := i2; pos < nt; pos++ {
		k := seeds[pos]
		rel := ri.Targets[k.ci].Rel
		idx.Targets[pos] = Target{Box: n.Right.Target(k.ci), Rel: bitset.MatrixOn(carve(rel.Rows), rel.Rows, nu)}
		bDst = append(bDst, idx.Targets[pos].Rel)
		bSrc = append(bSrc, rel)
		rightPos[k.ci] = int16(pos)
	}
	bitset.ComposeManyInto(bDst, bSrc, b.WRight)
	// Drop the matrix headers from the scratch so stale backings from
	// this build don't stay reachable across later repairs.
	clear(bDst[:cap(bDst)])
	clear(bSrc[:cap(bSrc)])
	ix.batchDst, ix.batchSrc = bDst[:0], bSrc[:0]

	// Step 5: lca table, flat row-major.
	for i := 0; i < nt; i++ {
		row := idx.lca[i*nt : (i+1)*nt]
		for j := 0; j < nt; j++ {
			si, sj := seeds[i].side, seeds[j].side
			switch {
			case si == 0 || sj == 0 || si != sj:
				row[j] = 0
			case si == 1:
				row[j] = leftPos[li.Lca(seeds[i].ci, seeds[j].ci)]
			default:
				row[j] = rightPos[ri.Lca(seeds[i].ci, seeds[j].ci)]
			}
			if row[j] < 0 {
				panic("enumerate: lca closure incomplete")
			}
		}
	}

	// Step 6: map per-gate values to target positions.
	fib, fbbF, fbbE := idx.gates[:nu], idx.gates[nu:2*nu], idx.gates[2*nu:]
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
		fib[g] = mapKey(rawFib[g])
		if fib[g] < 0 {
			panic("enumerate: fib target not materialized")
		}
		fb := rawFbb[g]
		if fb.side == 0 {
			fbbF[g] = fb.f // 0 or -1
			fbbE[g] = 0
		} else {
			if fb.f >= 0 {
				fbbF[g] = mapKey(targetKey{fb.side, fb.f})
			} else {
				fbbF[g] = -1
			}
			fbbE[g] = mapKey(targetKey{fb.side, fb.e})
		}
		if fbbE[g] < 0 {
			panic("enumerate: fbb end target not materialized")
		}
	}
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
		if f := idx.Fib(g); best < 0 || f < best {
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
	f, e := idx.FbbF(g), idx.FbbE(g)
	for g = gamma.Next(g + 1); g >= 0; g = gamma.Next(g + 1) {
		f, e = idx.combineFbb(f, e, idx.FbbF(g), idx.FbbE(g))
	}
	return f
}

// foldFbb is FoldFbb over a list of ∪-gates, returning both halves of
// the summary; the list is nonempty.
func (idx *BoxIndex) foldFbb(gates []int32) (f, e int16) {
	f, e = idx.FbbF(int(gates[0])), idx.FbbE(int(gates[0]))
	for _, g := range gates[1:] {
		f, e = idx.combineFbb(f, e, idx.FbbF(int(g)), idx.FbbE(int(g)))
	}
	return f, e
}

// StrictAncestor reports whether target i is a strict ancestor of target
// j in the tree of boxes.
func (idx *BoxIndex) StrictAncestor(i, j int16) bool {
	return i != j && idx.Lca(i, j) == i
}
