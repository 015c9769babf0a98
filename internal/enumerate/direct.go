package enumerate

import (
	"errors"
	"math/big"

	"repro/internal/bitset"
	"repro/internal/circuit"
)

// This file implements rank-indexed direct access over a frozen
// (box, index, counts) tree: Descender.At(root, Γ, emptyOK, ModeIndexed,
// j) returns the j-th rope of Ropes(root, Γ, emptyOK, ModeIndexed)
// without producing the first j. The descent is count-guided: per-box
// derivation counts (IndexedBox.Counts, maintained by the engine with
// the same hollowing-trunk invalidation as the index) tell, at every branch point of the
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
// The descent mirrors the cursor's Algorithm 3 frames (the fib jump
// order) with Algorithm 2's var/product order per interesting box.
// Product blocks are handled by WEIGHTED ranks: the j-th product of a
// box is found by descending the left factors with per-gate weights
// (how many outputs each left factor fans out to), then the right
// factors with the remaining offset — the same recursion as the
// enumeration, so the order matches output for output.
//
// All transient state — relation matrices, weights, factor-weight
// vectors — lives on a Descender (scratch.go), so a worker calling At in
// a loop reuses one set of slabs; the answer rope is carved from the
// descender's append-only rope slab.

// Errors reported by the direct-access descent.
var (
	// ErrNoDirectAccess means the wrapper tree was built without the
	// structures the descent needs (counts, or the Definition 6.1 index),
	// or the requested mode is not ModeIndexed: only the indexed
	// enumeration has direct access.
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
// duplicate-free enumerations when the automaton is unambiguous, and an
// overcount otherwise.
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
// mode), reusing the descender's scratch: the call recycles the scratch
// of previous calls, while the rope, like every rope, is persistent. A
// nil rope with a nil error is the empty assignment. Ranks outside
// [0, Total) fail with ErrRankRange, and modes other than ModeIndexed
// with ErrNoDirectAccess. At never mutates j.
func (d *Descender) At(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j *big.Int) (*Rope, error) {
	rope, ok, err := d.seek(root, gamma, emptyOK, mode, j)
	if err == nil && !ok {
		err = ErrRankRange
	}
	return rope, err
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
	for g := gamma.Next(0); g >= 0; g = gamma.Next(g + 1) {
		r.Set(g, g)
	}
	return r
}

// gateProv is the provenance of a local gate, carved from the
// descender's arena: the union of the relation rows of the ∪-gates its
// output feeds.
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

// productWeight returns the weighted number of products Algorithm 2
// emits at box b1, whose ×-gates have the provenance rows provT
// (timesDown): Σ over ×-gates in ↓(Γ) of D(left factor)·D(right
// factor)·w(provenance column).
func (d *Descender) productWeight(b1 *IndexedBox, provT bitset.Matrix, w []*big.Int) (*big.Int, error) {
	bp := b1.Box
	total := d.ints.get().SetInt64(0)
	blk := d.ints.get()
	for ti := range bp.Times {
		prov := provT.Row(ti)
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
// region (n, r) — every output counted w(its provenance column) times —
// and returns the rope, its provenance column, and the offset of j
// inside the output's weight block (always 0 at the unweighted top
// level; for product descents it is the rank handed to the next
// factor). j is consumed. The control flow mirrors the cursor's
// frameRegion (Algorithm 3, boxenum.go) with Algorithm 2 (frameVars,
// enum.go) at each interesting box, so outputs are visited in exactly
// the order the cursor emits them; the trail frames it records carry
// sink as the receiver of the region's outputs.
func (d *Descender) descendRegion(n *IndexedBox, r bitset.Matrix, w []*big.Int, j *big.Int, sink int32) (*Rope, int, *big.Int, error) {
outer:
	for {
		idx := n.Index
		if idx == nil {
			return nil, -1, nil, ErrNoDirectAccess
		}
		// Whatever the descent finds below, the walk of this region
		// (Algorithm 3 lines 11-17) follows it.
		gates := r.NonEmptyRowsInto(d.mats.Set(r.Rows))
		walk := d.record(frame{kind: frameWalk, box: n, r: r, gamma: gates, sink: sink})
		fib := idx.FoldFib(gates)
		if fib < 0 {
			// Empty relation: the caller's region count said otherwise.
			return nil, -1, nil, ErrAmbiguous
		}
		b1 := n.Target(fib)
		r1 := d.mats.Compose(idx.Targets[fib].Rel, r)
		bp := b1.Box

		// Algorithm 2 at B1, part 1: var gates in ↓(Γ).
		for vi := range bp.Vars {
			prov := d.gateProv(r1, bp.VarOut(vi))
			if prov.Empty() {
				continue
			}
			col, err := singleCol(prov)
			if err != nil {
				return nil, -1, nil, err
			}
			wv := weightOf(w, col)
			if j.Cmp(wv) < 0 {
				d.record(frame{kind: frameBelow, box: b1, r: r1, sink: sink})
				d.record(frame{kind: frameVars, box: b1, r: r1, at: int32(vi + 1), sink: sink})
				return d.slab.leaf(bp.Vars[vi].Set, bp.Node), col, j, nil
			}
			j.Sub(j, wv)
		}
		// Algorithm 2 at B1, part 2: ×-gate products.
		if len(bp.Times) > 0 {
			provT, gammaL, _ := d.timesDown(bp, r1)
			pc, err := d.productWeight(b1, provT, w)
			if err != nil {
				return nil, -1, nil, err
			}
			if j.Cmp(pc) < 0 {
				d.record(frame{kind: frameBelow, box: b1, r: r1, sink: sink})
				return d.descendProducts(b1, provT, gammaL, w, j, sink)
			}
			j.Sub(j, pc)
		}
		// Interesting boxes strictly below B1 (Algorithm 3 lines 7-10).
		if !b1.IsLeaf() {
			rl := d.mats.Compose(bp.WLeft, r1)
			rr := d.mats.Compose(bp.WRight, r1)
			if !rl.Empty() {
				c, err := d.regionWeight(b1.Left, rl, w)
				if err != nil {
					return nil, -1, nil, err
				}
				if j.Cmp(c) < 0 {
					if !rr.Empty() {
						d.record(frame{kind: frameRegion, box: b1.Right, r: rr, sink: sink})
					}
					n, r = b1.Left, rl
					continue outer
				}
				j.Sub(j, c)
			}
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
		// Bidirectional boxes on the path from n down to B1 (Algorithm 3
		// lines 11-17): each hangs a right region with further outputs.
		for {
			gates = r.NonEmptyRowsInto(d.mats.Set(r.Rows))
			fbb := idx.FoldFbb(gates)
			fib = idx.FoldFib(gates)
			if fbb < 0 || !idx.StrictAncestor(fbb, fib) {
				// Region exhausted with j left over: count inconsistency.
				return nil, -1, nil, ErrAmbiguous
			}
			bb := n.Target(fbb)
			rb := d.mats.Compose(idx.Targets[fbb].Rel, r)
			rr := d.mats.Compose(bb.Box.WRight, rb)
			r = d.mats.Compose(bb.Box.WLeft, rb)
			if !rr.Empty() {
				c, err := d.regionWeight(bb.Right, rr, w)
				if err != nil {
					return nil, -1, nil, err
				}
				if j.Cmp(c) < 0 {
					// The walk resumes past bb once its right region is done.
					d.trail[walk] = frame{kind: frameWalk, box: bb.Left, r: r, gamma: r.NonEmptyRowsInto(d.mats.Set(r.Rows)), sink: sink}
					n, r = bb.Right, rr
					continue outer
				}
				j.Sub(j, c)
			}
			n = bb.Left
			idx = n.Index
			if idx == nil {
				return nil, -1, nil, ErrNoDirectAccess
			}
		}
	}
}

// descendProducts finds the j-th weighted product Algorithm 2 emits at
// box b1, whose ×-gates have the provenance rows provT and read the
// left ∪-gates gammaL (timesDown). Products are emitted
// left-factor-major: for each left factor sl (in Boxwise(b1.Left, ΓL)
// order) all compatible right factors (in Boxwise(b1.Right, ΓR(sl))
// order). The left descent therefore runs with per-gate weights — each
// left factor captured by gate g fans out to Σ over ×-gates (g, h) of
// D(h)·w(prov) outputs — and the offset it returns ranks the right
// factor. The trail gets the product frame, the left factor's frames,
// a frameRight holding the landed left factor, and the right factor's
// frames: the cursor's stack right after this product.
func (d *Descender) descendProducts(b1 *IndexedBox, provT bitset.Matrix, gammaL bitset.Set, w []*big.Int, j *big.Int, sink int32) (*Rope, int, *big.Int, error) {
	bp := b1.Box
	wL := d.wgts.get(len(bp.Left.Unions))
	for ti := range bp.Times {
		prov := provT.Row(ti)
		if prov.Empty() {
			continue
		}
		col, err := singleCol(prov)
		if err != nil {
			return nil, -1, nil, err
		}
		tg := bp.Times[ti]
		contrib := d.ints.get().Mul(b1.Right.Counts[tg.Right], weightOf(w, col))
		if lg := int(tg.Left); wL[lg] == nil {
			wL[lg] = contrib
		} else {
			wL[lg].Add(wL[lg], contrib)
		}
	}
	for g := range wL {
		if wL[g] == nil {
			wL[g] = bigZero
		}
	}
	p := d.record(frame{kind: frameProducts, box: b1, r: provT, sink: sink})
	sl, lcol, off, err := d.descendRegion(b1.Left, d.seedRelation(bp.Left, gammaL), wL, j, p)
	if err != nil {
		return nil, -1, nil, err
	}
	// The right factors compatible with sl: the ×-gates whose left input
	// is sl's provenance gate, enumerated as Boxwise(b1.Right, ΓR).
	wR := d.wgts.get(len(bp.Right.Unions))
	cols := d.cols.get(len(bp.Right.Unions))
	gammaR := d.mats.Set(len(bp.Right.Unions))
	liveT := d.mats.Set(len(bp.Times))
	for ti := range bp.Times {
		tg := bp.Times[ti]
		if int(tg.Left) != lcol {
			continue
		}
		prov := provT.Row(ti)
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
		liveT.Add(ti)
	}
	for g := range wR {
		if wR[g] == nil {
			wR[g] = bigZero
		}
	}
	q := d.record(frame{kind: frameRight, gamma: liveT, sl: sl, sink: p})
	sr, rcol, off2, err := d.descendRegion(b1.Right, d.seedRelation(bp.Right, gammaR), wR, off, q)
	if err != nil {
		return nil, -1, nil, err
	}
	return d.slab.concat(sl, sr), cols[rcol], off2, nil
}
