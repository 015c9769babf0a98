package enumerate

import (
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/tree"
)

// This file implements the answer-delta co-descent (DESIGN.md §11): given
// two published versions of one query's frozen (box, index, counts) tree,
// it computes the exact added/removed answer sets by descending BOTH
// trees simultaneously and pruning every region whose contribution is
// provably unchanged. The pruning leans on the engine's reuse machinery:
// signature-pruned repair and moved-subtree reuse keep untouched regions
// POINTER-SHARED between versions, and a shared wrapper reached with the
// same routed ∪-gate set contributes the identical answer set to both
// sides — so the descent only pays along the changed spine, and the cost
// is O((|added|+|removed|)·log n·poly|Q|), not O(Count()).
//
// SOUNDNESS. For an UNAMBIGUOUS automaton every answer has exactly one
// circuit derivation, so the decomposition of S(Γ) at a box — routed var
// gates ⊎ routed ×-gates ⊎ ∪-wires into each child — partitions the
// answers by their derivation route. The differ matches routes across
// the two versions (var gates by (set, node) key; ×-gates grouped by the
// gate index on a pointer-shared child; ∪-wires by child position),
// prunes matched routes with provably equal contributions, and emits
// everything else into two candidate streams. Where route matching is
// imperfect — an answer whose derivation moved between routes, a
// rebalance that realigned the v-tree — the answer is emitted on BOTH
// sides and the key-cancellation in the collector erases it: candidates
// satisfy removed ⊇ S_old∖S_new, added ⊇ S_new∖S_old, and the excess is
// identical on both sides, so the cancelled maps are the exact diff.
// Ambiguous automata may derive one answer along several routes (double
// emission on one side would break cancellation), so the engine routes
// them through a full-drain fallback instead of this descent.
//
// Count-guided pruning — skipping any region whose routed derivation
// counts sum to zero — is sound for ambiguous automata too (zero
// derivations ⇔ zero answers) and is what keeps one-sided descents from
// walking empty structure.

// Differ computes added/removed answer sets between two versions of a
// query's frozen enumeration structure. The zero value is NOT ready:
// use NewDiffer. A Differ is reusable across calls but not safe for
// concurrent use (it owns the candidate maps); the frozen inputs are
// only read, so any number of goroutines may run their own Differ over
// the same snapshots.
type Differ struct {
	mode    Mode // of the box enumeration: ModeIndexed or ModeNaive
	added   map[string]tree.Assignment
	removed map[string]tree.Assignment
}

// NewDiffer returns a Differ enumerating candidate regions with
// Algorithm 2 over the given mode's box-enumeration strategy.
func NewDiffer(mode Mode) *Differ {
	return &Differ{
		mode:    mode,
		added:   map[string]tree.Assignment{},
		removed: map[string]tree.Assignment{},
	}
}

// Diff returns the answers added and removed between the old version
// (oldRoot, oldGamma, oldEmptyOK) and the new version (newRoot,
// newGamma, newEmptyOK) of one query, each sorted by assignment key for
// deterministic output. Either root may be nil (an empty side). The
// exactness contract requires an unambiguous automaton (see the file
// comment); the engine enforces that gate.
func (d *Differ) Diff(oldRoot *IndexedBox, oldGamma bitset.Set, oldEmptyOK bool,
	newRoot *IndexedBox, newGamma bitset.Set, newEmptyOK bool) (added, removed []tree.Assignment) {
	clear(d.added)
	clear(d.removed)
	if oldEmptyOK != newEmptyOK {
		if oldEmptyOK {
			d.emit(nil, true)
		} else {
			d.emit(nil, false)
		}
	}
	d.region(oldRoot, oldGamma, newRoot, newGamma, d.emit)
	added = make([]tree.Assignment, 0, len(d.added))
	for _, a := range d.added {
		added = append(added, a)
	}
	removed = make([]tree.Assignment, 0, len(d.removed))
	for _, a := range d.removed {
		removed = append(removed, a)
	}
	tree.SortByKey(added)
	tree.SortByKey(removed)
	return added, removed
}

// emit inserts one candidate into the collector with key cancellation: a
// rope emitted as old (removed candidate) cancels a pending added
// candidate with the same key, and vice versa. A nil rope is the empty
// assignment.
func (d *Differ) emit(r *Rope, old bool) {
	var a tree.Assignment
	if r == nil {
		a = tree.Assignment{}
	} else {
		a = r.Materialize()
	}
	k := a.Key()
	if old {
		if _, ok := d.added[k]; ok {
			delete(d.added, k)
			return
		}
		d.removed[k] = a
		return
	}
	if _, ok := d.removed[k]; ok {
		delete(d.removed, k)
		return
	}
	d.added[k] = a
}

// sideEmpty reports whether one side of the descent provably contributes
// nothing: no box, no routed gates, or — count-guided pruning — routed
// derivation counts that sum to zero.
func sideEmpty(b *IndexedBox, g bitset.Set) bool {
	if b == nil || g.Empty() {
		return true
	}
	if b.Counts == nil {
		return false // counting disabled: unknown, keep descending
	}
	zero := true
	g.ForEach(func(i int) bool {
		if c := b.Counts[i]; c == nil || c.Sign() != 0 {
			zero = false
			return false
		}
		return true
	})
	return zero
}

// drainInto enumerates one side's region in full into the collector.
// Used when the other side is provably empty, or when no structural
// matching is possible (a fully rebuilt region) — the cost is the
// region's answer count, which in those cases is part of the diff.
func (d *Differ) drainInto(b *IndexedBox, g bitset.Set, old bool, emit func(*Rope, bool)) {
	if sideEmpty(b, g) {
		return
	}
	for r := range Boxwise(b, g, d.mode) {
		emit(r, old)
	}
}

// region diffs S(o, Go) against S(n, Gn), emitting candidates through
// emit (the collector, or a product context's concat wrapper).
func (d *Differ) region(o *IndexedBox, Go bitset.Set, n *IndexedBox, Gn bitset.Set, emit func(*Rope, bool)) {
	oe, ne := sideEmpty(o, Go), sideEmpty(n, Gn)
	if oe && ne {
		return
	}
	if oe {
		d.drainInto(n, Gn, false, emit)
		return
	}
	if ne {
		d.drainInto(o, Go, true, emit)
		return
	}
	// The reuse-implies-identical prune: the SAME frozen wrapper reached
	// with the SAME routed gate set contributes the same answers to both
	// versions. This is what the engine's pointer reuse buys the differ.
	if o == n && Go.Equal(Gn) {
		return
	}
	d.diffVars(o, Go, n, Gn, emit)
	d.diffPass(o, Go, n, Gn, emit)
	d.diffProducts(o, Go, n, Gn, emit)
}

// routedVars collects the var gates of a leaf box routed toward the
// gate set, keyed by their (set, node) payload.
type varKey struct {
	set  tree.VarSet
	node tree.NodeID
}

func routedVars(b *IndexedBox, g bitset.Set) map[varKey]bool {
	bp := b.Box
	if len(bp.Vars) == 0 {
		return nil
	}
	out := make(map[varKey]bool, len(bp.Vars))
	for vi := range bp.Vars {
		if anyRouted(bp.VarOut(vi), g) {
			out[varKey{bp.Vars[vi].Set, bp.Node}] = true
		}
	}
	return out
}

// anyRouted reports whether any ∪-gate in outs is in g.
func anyRouted(outs []int32, g bitset.Set) bool {
	for _, u := range outs {
		if g.Has(int(u)) {
			return true
		}
	}
	return false
}

// diffVars matches the routed var-gate singletons of both sides by
// (set, node) key: a key on both sides is an unchanged answer route and
// emits nothing — the relabel fast path, where the whole leaf diff is
// O(vars) key work.
func (d *Differ) diffVars(o *IndexedBox, Go bitset.Set, n *IndexedBox, Gn bitset.Set, emit func(*Rope, bool)) {
	ov, nv := routedVars(o, Go), routedVars(n, Gn)
	for k := range ov {
		if !nv[k] {
			emit(LeafRope(k.set, k.node), true)
		}
	}
	for k := range nv {
		if !ov[k] {
			emit(LeafRope(k.set, k.node), false)
		}
	}
}

// neRow computes the ∪-wire pass-through set: the child ∪-gates wired
// into any routed gate of this box ({l : W.Row(l) ∩ G ≠ ∅}).
func neRow(w bitset.Matrix, rows int, g bitset.Set) bitset.Set {
	out := bitset.NewSet(rows)
	if rows == w.Rows {
		return w.RowsIntersectingInto(g, out)
	}
	for l := 0; l < rows; l++ {
		if w.Row(l).Intersects(g) {
			out.Add(l)
		}
	}
	return out
}

// diffPass recurses the ∪-wire pass-through routes into both children:
// partial assignments passed through unchanged, so the parent's emit is
// used directly. A side without children contributes empty sets and the
// recursion degrades to one-sided drains.
func (d *Differ) diffPass(o *IndexedBox, Go bitset.Set, n *IndexedBox, Gn bitset.Set, emit func(*Rope, bool)) {
	var oL, oR, nL, nR bitset.Set
	var ol, or_, nl, nr *IndexedBox
	if !o.IsLeaf() {
		ol, or_ = o.Left, o.Right
		oL = neRow(o.Box.WLeft, len(o.Box.Left.Unions), Go)
		oR = neRow(o.Box.WRight, len(o.Box.Right.Unions), Go)
	}
	if !n.IsLeaf() {
		nl, nr = n.Left, n.Right
		nL = neRow(n.Box.WLeft, len(n.Box.Left.Unions), Gn)
		nR = neRow(n.Box.WRight, len(n.Box.Right.Unions), Gn)
	}
	if ol != nil || nl != nil {
		d.region(ol, oL, nl, nL, emit)
	}
	if or_ != nil || nr != nil {
		d.region(or_, oR, nr, nR, emit)
	}
}

// routedTimes returns the ×-gates of the box routed toward g.
func routedTimes(b *IndexedBox, g bitset.Set) []int32 {
	bp := b.Box
	var out []int32
	for ti := range bp.Times {
		if anyRouted(bp.TimesOut(ti), g) {
			out = append(out, int32(ti))
		}
	}
	return out
}

// diffProducts diffs the ×-gate routes. When one child is
// POINTER-SHARED between versions, the ×-gates are grouped by their
// gate index on the shared side: each group's contribution is
// S(changedChild, gates) × S(sharedChild, {g}), so the group diffs by
// recursing on the changed factor and concatenating the sub-diff with
// ONE enumeration of the shared co-factor — output-proportional cost.
// (Both children shared is the same case: the changed-factor recursion
// prunes or diffs gate sets on the shared wrapper.) With neither child
// shared the region was rebuilt outright and both sides' products are
// drained; cancellation keeps that exact.
func (d *Differ) diffProducts(o *IndexedBox, Go bitset.Set, n *IndexedBox, Gn bitset.Set, emit func(*Rope, bool)) {
	oLeaf, nLeaf := o.IsLeaf(), n.IsLeaf()
	if oLeaf && nLeaf {
		return
	}
	var ot, nt []int32
	if !oLeaf {
		ot = routedTimes(o, Go)
	}
	if !nLeaf {
		nt = routedTimes(n, Gn)
	}
	if len(ot) == 0 && len(nt) == 0 {
		return
	}
	switch {
	case !oLeaf && !nLeaf && o.Right == n.Right:
		d.diffGrouped(o, ot, n, nt, o.Right, true, emit)
	case !oLeaf && !nLeaf && o.Left == n.Left:
		d.diffGrouped(o, ot, n, nt, o.Left, false, emit)
	default:
		// No shared factor: drain every routed product on both sides.
		for _, ti := range ot {
			d.drainProduct(o, o.Box.Times[ti], true, emit)
		}
		for _, ti := range nt {
			d.drainProduct(n, n.Box.Times[ti], false, emit)
		}
	}
}

// drainProduct enumerates one ×-gate's full product into the collector.
func (d *Differ) drainProduct(b *IndexedBox, t circuit.TimesGate, old bool, emit func(*Rope, bool)) {
	gl := bitset.NewSet(len(b.Box.Left.Unions))
	gl.Add(int(t.Left))
	if sideEmpty(b.Left, gl) {
		return
	}
	gr := bitset.NewSet(len(b.Box.Right.Unions))
	gr.Add(int(t.Right))
	if sideEmpty(b.Right, gr) {
		return
	}
	for sl := range Boxwise(b.Left, gl, d.mode) {
		for sr := range Boxwise(b.Right, gr, d.mode) {
			emit(Concat(sl, sr), old)
		}
	}
}

// diffPart is one emission captured from a changed-factor recursion,
// awaiting concatenation with the shared co-factor.
type diffPart struct {
	rope *Rope
	old  bool
}

// diffGrouped implements the shared-factor product diff: routed ×-gates
// grouped by their gate on the shared child (byRight selects which side
// is shared), the changed factors diffed recursively per group, and each
// group's sub-diff concatenated with one enumeration of the co-factor.
func (d *Differ) diffGrouped(o *IndexedBox, ot []int32, n *IndexedBox, nt []int32,
	shared *IndexedBox, byRight bool, emit func(*Rope, bool)) {
	type group struct {
		oldG, newG bitset.Set
	}
	key := func(t circuit.TimesGate) (sharedGate, changedGate int32) {
		if byRight {
			return t.Right, t.Left
		}
		return t.Left, t.Right
	}
	changedSize := func(b *IndexedBox) int {
		if byRight {
			return len(b.Box.Left.Unions)
		}
		return len(b.Box.Right.Unions)
	}
	groups := map[int32]*group{}
	lookup := func(sg int32) *group {
		g := groups[sg]
		if g == nil {
			g = &group{oldG: bitset.NewSet(changedSize(o)), newG: bitset.NewSet(changedSize(n))}
			groups[sg] = g
		}
		return g
	}
	for _, ti := range ot {
		sg, cg := key(o.Box.Times[ti])
		lookup(sg).oldG.Add(int(cg))
	}
	for _, ti := range nt {
		sg, cg := key(n.Box.Times[ti])
		lookup(sg).newG.Add(int(cg))
	}
	ochanged, nchanged := o.Left, n.Left
	if !byRight {
		ochanged, nchanged = o.Right, n.Right
	}
	var parts []diffPart
	for sg, g := range groups {
		parts = parts[:0]
		d.region(ochanged, g.oldG, nchanged, g.newG, func(r *Rope, old bool) {
			parts = append(parts, diffPart{r, old})
		})
		if len(parts) == 0 {
			continue
		}
		cg := bitset.NewSet(len(shared.Box.Unions))
		cg.Add(int(sg))
		if sideEmpty(shared, cg) {
			continue
		}
		for co := range Boxwise(shared, cg, d.mode) {
			for _, p := range parts {
				if byRight {
					emit(Concat(p.rope, co), p.old)
				} else {
					emit(Concat(co, p.rope), p.old)
				}
			}
		}
	}
}
