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

// interesting reports whether the box holds ↓-gates for the relation R:
// some ∪-gate with a nonempty R-row has a local var- or ×-input.
func interesting(b *circuit.Box, r bitset.Matrix) bool {
	for u := range b.Unions {
		if r.Row(u).Empty() {
			continue
		}
		if b.HasLocal(u) {
			return true
		}
	}
	return false
}

// seedRelation builds the identity relation restricted to gamma on the
// heap; the cursor carves it from its arena (Descender.seedRelation).
func seedRelation(b *circuit.Box, gamma bitset.Set) bitset.Matrix {
	r := bitset.NewMatrix(len(b.Unions), len(b.Unions))
	for g := gamma.Next(0); g >= 0; g = gamma.Next(g + 1) {
		r.Set(g, g)
	}
	return r
}

// NaiveBoxEnum is the straightforward implementation discussed in Section
// 5: depth-first traversal of the tree of boxes carrying the relation
// along, with delay proportional to the depth of the circuit. It is the
// baseline of experiment E8. It never touches the index, so it works on
// wrappers built without one.
func NaiveBoxEnum(b *IndexedBox, gamma bitset.Set) iter.Seq[BoxRelation] {
	return boxEnum(b, gamma, ModeNaive)
}

// IndexedBoxEnum is Algorithm 3 (Lemma 6.4): box enumeration with delay
// O(w³) independent of the circuit depth, jumping with the fib/fbb
// pointers of the index structure. The wrapper tree must have been built
// with the index (Wrap withIndex / BuildIndex).
func IndexedBoxEnum(b *IndexedBox, gamma bitset.Set) iter.Seq[BoxRelation] {
	return boxEnum(b, gamma, ModeIndexed)
}

// boxEnum runs the cursor in box mode. The relations it yields are
// copies, so they outlive the cursor's scratch.
func boxEnum(b *IndexedBox, gamma bitset.Set, mode Mode) iter.Seq[BoxRelation] {
	return func(yield func(BoxRelation) bool) {
		d := GetDescender()
		defer PutDescender(d)
		d.start(b, gamma, mode, true)
		for {
			if _, _, ok := d.next(); !ok || !yield(BoxRelation{d.out.Box, d.out.R.Clone()}) {
				return
			}
		}
	}
}

// stepBoxes advances a frame of the box enumeration: Algorithm 3
// (frameRegion, frameWalk), the naive traversal (frameNaive), or the
// regions below an output box, which both visit (frameBelow). Output
// boxes are pushed by pushBox.
func (d *Descender) stepBoxes(f *frame) {
	switch f.kind {
	case frameRegion:
		// b-enum(B, R), line 4: jump to the first interesting box B1.
		// It is output first, then the boxes strictly below it (lines
		// 7-10), then the walk of the region (lines 11-17).
		idx := f.box.Index
		gates := f.r.NonEmptyRowsInto(d.mats.Set(f.r.Rows))
		fib := idx.FoldFib(gates)
		if fib < 0 {
			d.pop() // empty relation: nothing below
			return
		}
		r1 := d.mats.Compose(idx.Targets[fib].Rel, f.r)
		f.kind, f.gamma = frameWalk, gates
		d.pushBox(f.box.Target(fib), r1, f.sink, true)
	case frameNaive:
		f.kind = frameBelow // the children follow the box
		if interesting(f.box.Box, f.r) {
			d.pushBox(f.box, f.r, f.sink, false)
		}
	case frameWalk:
		// Lines 11-17: the next bidirectional box bb on the path from the
		// region's box down to B1. The right region hanging off it holds
		// further interesting boxes; the walk goes on left, toward B1,
		// which stays the first interesting box of every shrinking region
		// (the paper's tail-recursion elimination).
		idx := f.box.Index
		fbb, fib := idx.FoldFbb(f.gamma), idx.FoldFib(f.gamma)
		if fbb < 0 || !idx.StrictAncestor(fbb, fib) {
			d.pop()
			return
		}
		bb := f.box.Target(fbb)
		rb := d.mats.Compose(idx.Targets[fbb].Rel, f.r)
		r := d.mats.Compose(bb.Box.WLeft, rb)
		f.box, f.r, f.gamma = bb.Left, r, r.NonEmptyRowsInto(d.mats.Set(r.Rows))
		d.pushChild(bb.Right, bb.Box.WRight, rb, f.sink)
	case frameBelow:
		// Lines 7-10: the regions strictly below an output box, left
		// first. The frame turns into the last nonempty one (popping it
		// would release r, which the naive traversal carved after it).
		b, r := f.box, f.r
		if b.IsLeaf() {
			d.pop()
			return
		}
		rr := d.mats.Compose(b.Box.WRight, r)
		if rr.Empty() {
			if rl := d.mats.Compose(b.Box.WLeft, r); rl.Empty() {
				d.pop()
			} else {
				f.kind, f.box, f.r = d.region, b.Left, rl
			}
			return
		}
		f.kind, f.box, f.r = d.region, b.Right, rr
		d.pushChild(b.Left, b.Box.WLeft, r, f.sink)
	}
}

// pushChild pushes the region of child box c under the relation w∘r,
// unless that relation is empty.
func (d *Descender) pushChild(c *IndexedBox, w, r bitset.Matrix, sink int32) {
	m := d.mats.Mark()
	rc := d.mats.Compose(w, r)
	if rc.Empty() {
		d.mats.Release(m)
		return
	}
	d.push(m, frame{kind: d.region, box: c, r: rc, sink: sink})
}

// pushBox pushes output box b with relation r: Algorithm 2 on it, or
// the box itself in box mode; with below, the boxes below it follow.
func (d *Descender) pushBox(b *IndexedBox, r bitset.Matrix, sink int32, below bool) {
	m := d.mats.Mark()
	if below && !b.IsLeaf() {
		d.push(m, frame{kind: frameBelow, box: b, r: r, sink: sink})
	}
	kind := frameVars
	if d.boxes {
		kind = frameBox
	}
	d.push(m, frame{kind: kind, box: b, r: r, sink: sink})
}
