package enumerate

import (
	"errors"
	"math/big"

	"repro/internal/bitset"
	"repro/internal/circuit"
)

// This file implements rank-indexed direct access over a frozen
// (box, index, counts) tree: At(root, Γ, emptyOK, mode, j) returns the
// j-th rope of Ropes(root, Γ, emptyOK, mode) without producing the
// first j. The descent is count-guided: per-box derivation counts
// (IndexedBox.Counts, maintained by the engine with the same hollowing-
// trunk invalidation as the index) tell, at every branch point of the
// enumeration recursion, how many outputs each branch contributes, so
// whole branches are skipped in O(poly(w)) each. Total cost is
// O(h·poly(w)) for a box tree of height h — independent of the number
// of answers, and logarithmic in |T| on the engine's balanced terms.
// Along the way every descent records on the descender's trail the
// parts of the enumeration still pending after each branch it takes,
// which is what lets RopesFrom (seek.go) stream on from the rank it
// reached.
//
// Correctness rests on the derivation counts being exact answer counts,
// i.e. on the query automaton being unambiguous (tva.Unambiguous): then
// every assignment has exactly one derivation, the sets captured by the
// ∪-gates of any boxed set arising in Algorithm 2 are pairwise
// disjoint, and every provenance computed below is a singleton. Callers
// gate on that check; the descent additionally verifies every
// provenance it touches and fails with ErrAmbiguous on a violation
// instead of returning a wrong rank. (The verification is sound but not
// complete: ambiguity confined to the inside of a single gate is not
// structurally visible, which is why the automaton-level check is the
// authoritative gate.)
//
// For ModeIndexed the descent mirrors IndexedBoxEnum + Boxwise
// (indexedRec's jump order, then Algorithm 2's var/product order per
// interesting box). Product blocks are handled by WEIGHTED ranks: the
// j-th product of a box is found by descending the left factors with
// per-gate weights (how many outputs each left factor fans out to),
// then the right factors with the remaining offset — the same recursion
// as the enumeration, so the order matches output for output.
//
// For ModeSimple the descent follows Algorithm 1's gate recursion
// directly (vars, then ×-gates left-major, then child ∪-gates), where
// derivation counts are exact block lengths even for ambiguous
// automata, because Algorithm 1 enumerates with multiplicity.
//
// All transient state — relation matrices, weights, factor-weight
// vectors, the answer rope — lives on a Descender (scratch.go), so a
// worker calling At in a loop reuses one set of slabs. The package-level
// At wraps a throwaway Descender for one-shot callers.

// Errors reported by the direct-access descent.
var (
	// ErrNoDirectAccess means the wrapper tree was built without the
	// structures the requested mode needs (counts, or the Definition 6.1
	// index for ModeIndexed — ModeNaive has no direct-access support).
	ErrNoDirectAccess = errors.New("enumerate: wrapper tree has no direct-access support")
	// ErrRankRange means j is outside [0, Total).
	ErrRankRange = errors.New("enumerate: rank out of range")
	// ErrAmbiguous means a non-singleton provenance was encountered:
	// derivation counts overcount distinct assignments and ranks are
	// undefined. Callers should fall back to enumeration.
	ErrAmbiguous = errors.New("enumerate: ambiguous derivations, ranks undefined")
)

// Total returns the number of derivations of the boxed set gamma, plus
// one for the empty assignment if emptyOK: the exact length of the
// ModeSimple enumeration always, and of the duplicate-free enumerations
// exactly when the automaton is unambiguous.
func Total(root *IndexedBox, gamma bitset.Set, emptyOK bool) (*big.Int, error) {
	return totalInto(new(big.Int), root, gamma, emptyOK)
}

// totalInto is Total accumulating into a caller-provided big.Int.
func totalInto(total *big.Int, root *IndexedBox, gamma bitset.Set, emptyOK bool) (*big.Int, error) {
	total.SetInt64(0)
	if emptyOK {
		total.SetInt64(1)
	}
	if root == nil || gamma.Empty() {
		return total, nil
	}
	if root.Counts == nil {
		return nil, ErrNoDirectAccess
	}
	gamma.ForEach(func(g int) bool {
		total.Add(total, root.Counts[g])
		return true
	})
	return total, nil
}

// At returns the j-th rope (0-based) of Ropes(root, gamma, emptyOK,
// mode). A nil rope with a nil error is the empty assignment. At never
// mutates j. One-shot wrapper over a fresh Descender; loops over many
// ranks should hold a Descender and call its At instead.
func At(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j *big.Int) (*Rope, error) {
	return new(Descender).At(root, gamma, emptyOK, mode, j)
}

// At returns the j-th rope (0-based) of Ropes(root, gamma, emptyOK,
// mode), reusing the descender's scratch: the call recycles everything
// handed out by previous calls, so the returned rope is only valid until
// the descender's next At (materialize it first). A nil rope with a nil
// error is the empty assignment. At never mutates j.
func (d *Descender) At(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j *big.Int) (*Rope, error) {
	if j.Sign() < 0 {
		return nil, ErrRankRange
	}
	d.Reset()
	total, err := totalInto(d.ints.get(), root, gamma, emptyOK)
	if err != nil {
		return nil, err
	}
	if j.Cmp(total) >= 0 {
		return nil, ErrRankRange
	}
	rank := d.ints.get().Set(j)
	if emptyOK {
		if rank.Sign() == 0 {
			return nil, nil
		}
		rank.Sub(rank, bigOne)
	}
	switch mode {
	case ModeSimple:
		return d.simpleAt(root, gamma, rank)
	case ModeIndexed:
		if root.Index == nil {
			return nil, ErrNoDirectAccess
		}
		rope, _, _, err := d.descendRegion(root, d.seedRelation(root.Box, gamma), nil, rank)
		return rope, err
	default:
		return nil, ErrNoDirectAccess
	}
}

// AtInt is At for a machine-word rank, reusing an internal big.Int.
func (d *Descender) AtInt(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j int) (*Rope, error) {
	d.rank.SetInt64(int64(j))
	return d.At(root, gamma, emptyOK, mode, &d.rank)
}

// bigOne and bigZero are shared constants; nothing may mutate them.
var (
	bigOne  = big.NewInt(1)
	bigZero = new(big.Int)
)

// weightOf reads the weight of a top column; a nil vector means all
// ones (the unweighted top-level call).
func weightOf(w []*big.Int, col int) *big.Int {
	if w == nil {
		return bigOne
	}
	return w[col]
}

// singleCol returns the sole element of a provenance set, or
// ErrAmbiguous if it has more than one (see the file comment).
func singleCol(s bitset.Set) (int, error) {
	c, ok := s.Single()
	if !ok {
		// Empty or more than one element; callers only pass nonempty
		// provenances, so this means ambiguity either way.
		return -1, ErrAmbiguous
	}
	return c, nil
}

// seedRelation is boxenum.go's seedRelation carved from the descender's
// arena: the identity relation on gamma's gates.
func (d *Descender) seedRelation(b *circuit.Box, gamma bitset.Set) bitset.Matrix {
	r := d.mats.Matrix(len(b.Unions), len(b.Unions))
	gamma.ForEach(func(g int) bool {
		r.Set(g, g)
		return true
	})
	return r
}

// gateProv is enum.go's gateProv carved from the descender's arena: the
// union of the relation rows of a gate's ∪-outputs.
func (d *Descender) gateProv(r bitset.Matrix, outs []int32) bitset.Set {
	prov := d.mats.Set(r.Cols)
	for _, u := range outs {
		prov.Or(r.Row(int(u)))
	}
	return prov
}

// regionWeight returns the weighted number of outputs of the Algorithm
// 2/3 recursion on (n, r): Σ over ∪-gates u of n with a nonempty
// relation row of Counts[u] · w(column of u). Every assignment topped
// in n's subtree that reaches the top boxed set is derived at exactly
// one such gate (unambiguity), so the sum skips the whole region in one
// O(w) pass.
func (d *Descender) regionWeight(n *IndexedBox, r bitset.Matrix, w []*big.Int) (*big.Int, error) {
	if n.Counts == nil && len(n.Box.Unions) > 0 {
		return nil, ErrNoDirectAccess
	}
	total := d.ints.get().SetInt64(0)
	var tmp *big.Int
	for u := 0; u < r.Rows; u++ {
		if r.RowEmpty(u) {
			continue
		}
		if w == nil {
			total.Add(total, n.Counts[u])
			continue
		}
		col, err := singleCol(r.Row(u))
		if err != nil {
			return nil, err
		}
		if w[col].Sign() == 0 {
			continue
		}
		if tmp == nil {
			tmp = d.ints.get()
		}
		total.Add(total, tmp.Mul(n.Counts[u], w[col]))
	}
	return total, nil
}

// productWeight returns the weighted number of products boxwiseStep
// emits at box b1 under relation r1: Σ over ×-gates in ↓(Γ) of
// D(left factor)·D(right factor)·w(provenance column).
func (d *Descender) productWeight(b1 *IndexedBox, r1 bitset.Matrix, w []*big.Int) (*big.Int, error) {
	bp := b1.Box
	total := d.ints.get().SetInt64(0)
	blk := d.ints.get()
	for ti := range bp.Times {
		prov := d.gateProv(r1, bp.TimesOut[ti])
		if prov.Empty() {
			continue
		}
		col, err := singleCol(prov)
		if err != nil {
			return nil, err
		}
		tg := bp.Times[ti]
		blk.Mul(b1.Left.Counts[tg.Left], b1.Right.Counts[tg.Right])
		total.Add(total, blk.Mul(blk, weightOf(w, col)))
	}
	return total, nil
}

// descendRegion finds the j-th weighted output of the enumeration
// region indexedRec(n, r) — every output counted w(its provenance
// column) times — and returns the rope, its provenance column, and the
// offset of j inside the output's weight block (always 0 at the
// unweighted top level; for product descents it is the rank handed to
// the next factor). j is consumed. The control flow mirrors indexedRec
// (boxenum.go) with boxwiseStep (enum.go) inlined at each interesting
// box, so outputs are visited in exactly the order Boxwise emits them.
func (d *Descender) descendRegion(n *IndexedBox, r bitset.Matrix, w []*big.Int, j *big.Int) (*Rope, int, *big.Int, error) {
outer:
	for {
		idx := n.Index
		if idx == nil {
			return nil, -1, nil, ErrNoDirectAccess
		}
		// Whatever the descent finds below, the walk of this region
		// (indexedRec lines 11-17) follows it.
		walk := d.push(frame{kind: frameWalk, box: n, r: r})
		gates := r.NonEmptyRowsInto(d.mats.Set(r.Rows))
		fib := idx.FoldFib(gates)
		if fib < 0 {
			// Empty relation: the caller's region count said otherwise.
			return nil, -1, nil, ErrAmbiguous
		}
		b1 := idx.Targets[fib]
		r1 := d.mats.Compose(idx.Rel[fib], r)
		bp := b1.Box

		// boxwiseStep at B1, part 1: var gates in ↓(Γ).
		for vi := range bp.Vars {
			prov := d.gateProv(r1, bp.VarOut[vi])
			if prov.Empty() {
				continue
			}
			col, err := singleCol(prov)
			if err != nil {
				return nil, -1, nil, err
			}
			wv := weightOf(w, col)
			if j.Cmp(wv) < 0 {
				d.push(frame{kind: frameVars, box: b1, r: r1, at: vi})
				vg := bp.Vars[vi]
				return d.ropes.Leaf(vg.Set, vg.Node), col, j, nil
			}
			j.Sub(j, wv)
		}
		// boxwiseStep at B1, part 2: ×-gate products.
		if len(bp.Times) > 0 {
			pc, err := d.productWeight(b1, r1, w)
			if err != nil {
				return nil, -1, nil, err
			}
			if j.Cmp(pc) < 0 {
				return d.descendProducts(b1, r1, w, j)
			}
			j.Sub(j, pc)
		}
		// Interesting boxes strictly below B1 (indexedRec lines 7-10).
		if !b1.IsLeaf() {
			rl := d.mats.Compose(bp.WLeft, r1)
			if !rl.Empty() {
				c, err := d.regionWeight(b1.Left, rl, w)
				if err != nil {
					return nil, -1, nil, err
				}
				if j.Cmp(c) < 0 {
					d.push(frame{kind: frameBelowRight, box: b1, r: r1})
					n, r = b1.Left, rl
					continue outer
				}
				j.Sub(j, c)
			}
			rr := d.mats.Compose(bp.WRight, r1)
			if !rr.Empty() {
				c, err := d.regionWeight(b1.Right, rr, w)
				if err != nil {
					return nil, -1, nil, err
				}
				if j.Cmp(c) < 0 {
					n, r = b1.Right, rr
					continue outer
				}
				j.Sub(j, c)
			}
		}
		// Bidirectional boxes on the path from n down to B1 (indexedRec
		// lines 11-17): each hangs a right region with further outputs.
		for {
			gates = r.NonEmptyRowsInto(d.mats.Set(r.Rows))
			fbb := idx.FoldFbb(gates)
			fib = idx.FoldFib(gates)
			if fbb < 0 || !idx.StrictAncestor(fbb, fib) {
				// Region exhausted with j left over: count inconsistency.
				return nil, -1, nil, ErrAmbiguous
			}
			bb := idx.Targets[fbb]
			rb := d.mats.Compose(idx.Rel[fbb], r)
			rr := d.mats.Compose(bb.Box.WRight, rb)
			if !rr.Empty() {
				c, err := d.regionWeight(bb.Right, rr, w)
				if err != nil {
					return nil, -1, nil, err
				}
				if j.Cmp(c) < 0 {
					d.trail[walk] = frame{kind: frameWalkPast, box: bb, r: rb}
					n, r = bb.Right, rr
					continue outer
				}
				j.Sub(j, c)
			}
			r = d.mats.Compose(bb.Box.WLeft, rb)
			n = bb.Left
			idx = n.Index
			if idx == nil {
				return nil, -1, nil, ErrNoDirectAccess
			}
		}
	}
}

// descendProducts finds the j-th weighted product of boxwiseStep at box
// b1 under relation r1. Products are emitted left-factor-major: for
// each left factor sl (in Boxwise(b1.Left, ΓL) order) all compatible
// right factors (in Boxwise(b1.Right, ΓR(sl)) order). The left descent
// therefore runs with per-gate weights — each left factor captured by
// gate g fans out to Σ over ×-gates (g, h) of D(h)·w(prov) outputs —
// and the offset it returns ranks the right factor.
func (d *Descender) descendProducts(b1 *IndexedBox, r1 bitset.Matrix, w []*big.Int, j *big.Int) (*Rope, int, *big.Int, error) {
	bp := b1.Box
	wL := d.wgts.get(len(bp.Left.Unions))
	gammaL := d.mats.Set(len(bp.Left.Unions))
	for ti := range bp.Times {
		prov := d.gateProv(r1, bp.TimesOut[ti])
		if prov.Empty() {
			continue
		}
		col, err := singleCol(prov)
		if err != nil {
			return nil, -1, nil, err
		}
		tg := bp.Times[ti]
		contrib := d.ints.get().Mul(b1.Right.Counts[tg.Right], weightOf(w, col))
		lg := int(tg.Left)
		if wL[lg] == nil {
			wL[lg] = contrib
			gammaL.Add(lg)
		} else {
			wL[lg].Add(wL[lg], contrib)
		}
	}
	for g := range wL {
		if wL[g] == nil {
			wL[g] = bigZero
		}
	}
	lo := len(d.trail)
	sl, lcol, off, err := d.descendRegion(b1.Left, d.seedRelation(bp.Left, gammaL), wL, j)
	if err != nil {
		return nil, -1, nil, err
	}
	// The right factors compatible with sl: the ×-gates whose left input
	// is sl's provenance gate, enumerated as Boxwise(b1.Right, ΓR).
	wR := d.wgts.get(len(bp.Right.Unions))
	cols := d.cols.get(len(bp.Right.Unions))
	gammaR := d.mats.Set(len(bp.Right.Unions))
	for ti := range bp.Times {
		tg := bp.Times[ti]
		if int(tg.Left) != lcol {
			continue
		}
		prov := d.gateProv(r1, bp.TimesOut[ti])
		if prov.Empty() {
			continue
		}
		col, err := singleCol(prov)
		if err != nil {
			return nil, -1, nil, err
		}
		rg := int(tg.Right)
		if wR[rg] != nil {
			// Two ×-gates with the same factor pair derive every product
			// twice: ambiguous.
			return nil, -1, nil, ErrAmbiguous
		}
		wR[rg] = weightOf(w, col)
		cols[rg] = col
		gammaR.Add(rg)
	}
	for g := range wR {
		if wR[g] == nil {
			wR[g] = bigZero
		}
	}
	mid := len(d.trail)
	sr, rcol, off2, err := d.descendRegion(b1.Right, d.seedRelation(bp.Right, gammaR), wR, off)
	if err != nil {
		return nil, -1, nil, err
	}
	d.push(frame{kind: frameProducts, box: b1, r: r1, lo: lo, mid: mid})
	return d.ropes.Concat(sl, sr), cols[rcol], off2, nil
}

// simpleAt finds the j-th rope of Simple(root.Box, gamma): Algorithm
// 1's enumeration order, where derivation counts are exact block
// lengths by construction (one output per derivation), ambiguous or
// not.
func (d *Descender) simpleAt(root *IndexedBox, gamma bitset.Set, j *big.Int) (*Rope, error) {
	var (
		out *Rope
		err error = ErrRankRange
	)
	gamma.ForEach(func(g int) bool {
		c := root.Counts[g]
		if j.Cmp(c) < 0 {
			d.push(frame{kind: frameGamma, box: root, gamma: gamma, at: g + 1})
			out, err = d.simpleAtUnion(root, g, j)
			return false
		}
		j.Sub(j, c)
		return true
	})
	return out, err
}

// simpleAtUnion finds the j-th rope of simpleUnion(n.Box, u): var
// inputs first, then ×-inputs left-factor-major, then the child
// ∪-inputs, exactly the input order of Algorithm 1.
func (d *Descender) simpleAtUnion(n *IndexedBox, u int, j *big.Int) (*Rope, error) {
	if n.Counts == nil && len(n.Box.Unions) > 0 {
		return nil, ErrNoDirectAccess
	}
	g := &n.Box.Unions[u]
	if j.IsInt64() && j.Int64() < int64(len(g.Vars)) {
		d.push(frame{kind: frameInputs, box: n, u: u, at: int(j.Int64())})
		vg := n.Box.Vars[g.Vars[j.Int64()]]
		return d.ropes.Leaf(vg.Set, vg.Node), nil
	}
	j.Sub(j, d.ints.get().SetInt64(int64(len(g.Vars))))
	// in is the position of the current input in Algorithm 1's order
	// (simpleInputs), recorded for a seek to resume after.
	in := len(g.Vars)
	blk := d.ints.get()
	for _, t := range g.Times {
		tg := n.Box.Times[t]
		cl, cr := n.Left.Counts[tg.Left], n.Right.Counts[tg.Right]
		blk.Mul(cl, cr)
		if j.Cmp(blk) < 0 {
			jl, jr := d.ints.get(), d.ints.get()
			jl.DivMod(j, cr, jr)
			lo := len(d.trail)
			sl, err := d.simpleAtUnion(n.Left, int(tg.Left), jl)
			if err != nil {
				return nil, err
			}
			mid := len(d.trail)
			sr, err := d.simpleAtUnion(n.Right, int(tg.Right), jr)
			if err != nil {
				return nil, err
			}
			d.push(frame{kind: frameSimpleProduct, box: n, u: u, at: in, lo: lo, mid: mid})
			return d.ropes.Concat(sl, sr), nil
		}
		j.Sub(j, blk)
		in++
	}
	for _, l := range g.LeftUnions {
		c := n.Left.Counts[l]
		if j.Cmp(c) < 0 {
			d.push(frame{kind: frameInputs, box: n, u: u, at: in + 1})
			return d.simpleAtUnion(n.Left, int(l), j)
		}
		j.Sub(j, c)
		in++
	}
	for _, r := range g.RightUnions {
		c := n.Right.Counts[r]
		if j.Cmp(c) < 0 {
			d.push(frame{kind: frameInputs, box: n, u: u, at: in + 1})
			return d.simpleAtUnion(n.Right, int(r), j)
		}
		j.Sub(j, c)
		in++
	}
	return nil, ErrRankRange
}

// CountCircuit computes the per-gate derivation counts of a circuit
// directly (no evaluator cache), for callers outside the engine that
// wrapped a circuit with WrapCircuit and want direct access on it:
// fills Counts on every wrapper bottom-up.
func CountCircuit(root *IndexedBox, count func(b *circuit.Box) []*big.Int) {
	root.Walk(func(n *IndexedBox) {
		if n.Counts == nil {
			n.Counts = count(n.Box)
		}
	})
}
