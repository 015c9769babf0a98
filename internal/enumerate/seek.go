package enumerate

import (
	"iter"
	"math/big"

	"repro/internal/bitset"
)

// This file implements seek-then-stream reads: RopesFrom(j) produces
// the ropes of Ropes from rank j on with ONE count-guided descent
// (direct.go) followed by the unchanged enumeration, so a page of k
// answers costs O(h·poly(w)) + k·delay instead of k descents.
//
// The descent already walks, level by level, the recursion of the
// enumeration down to rank j. Along the way it records on the
// descender's trail every piece of that recursion still pending after
// the branch it takes — the walk of a region (indexedRec lines 11-17),
// the right subtree below an interesting box, the rest of a box's var
// gates and products, the remaining inputs of an Algorithm 1 ∪-gate —
// as one frame each, innermost last. Replaying the trail from its end
// runs those pieces through the very functions Ropes uses (walkRec,
// belowRec, boxVars, boxProducts, simpleInputs, …), which is why the
// stream equals Ropes output for output. A product landing nests: the
// left and the right factor descents each record their own sub-trail,
// and the product frame after them replays the left sub-trail, pairing
// its first factor with the right sub-trail and every later factor
// with a fresh right enumeration. No answer before rank j is ever
// produced.

// frameKind tells which piece of the enumeration a trail frame resumes.
type frameKind uint8

const (
	// Algorithms 2+3 (ModeIndexed).
	frameWalk       frameKind = iota // walkRec on the region (box, r)
	frameWalkPast                    // walkRec past bidirectional box `box` (r = its relation)
	frameBelowRight                  // belowRightRec(box, r)
	frameVars                        // boxVars from var `at`, then all products and belowRec at (box, r)
	frameProducts                    // boxProducts at (box, r) from sub-trails [lo, mid) and [mid, here), then belowRec
	// Algorithm 1 (ModeSimple).
	frameGamma         // simpleUnion of the root gates of gamma from gate `at` on
	frameInputs        // simpleInputs(box, u, at)
	frameSimpleProduct // ×-input `at` of ∪-gate u from sub-trails [lo, mid) and [mid, here), then simpleInputs(box, u, at+1)
)

// frame is one pending piece of the enumeration recorded by a descent.
// Its matrices live in the descender's arena, so a trail is valid until
// the descender's next At, RopesFrom or Reset.
type frame struct {
	kind    frameKind
	box     *IndexedBox
	r       bitset.Matrix
	gamma   bitset.Set
	u, at   int
	lo, mid int
}

// push records a frame and returns its trail position.
func (d *Descender) push(f frame) int {
	d.trail = append(d.trail, f)
	return len(d.trail) - 1
}

// RopesFrom returns the ropes of Ropes(root, gamma, emptyOK, mode) from
// rank j (0-based) on, in the same order, without producing the first
// j: the seek is one count-guided descent, run before RopesFrom
// returns, and the stream continues with the enumeration's own delay.
// j may equal the total (an empty stream); ranks beyond it fail with
// ErrRankRange, and the descent's ErrNoDirectAccess / ErrAmbiguous are
// reported as At reports them. The sequence reads the descender's
// trail: it may be iterated once, and only until the descender's next
// At, RopesFrom or Reset; the ropes it yields are ordinary heap values.
func (d *Descender) RopesFrom(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j *big.Int) (iter.Seq[*Rope], error) {
	if j.Sign() < 0 {
		return nil, ErrRankRange
	}
	d.Reset()
	total, err := totalInto(d.ints.get(), root, gamma, emptyOK)
	if err != nil {
		return nil, err
	}
	switch c := j.Cmp(total); {
	case c > 0:
		return nil, ErrRankRange
	case c == 0:
		return func(func(*Rope) bool) {}, nil
	}
	lead := emptyOK && j.Sign() == 0 // the empty assignment comes first
	rank := d.ints.get().Set(j)
	if emptyOK && !lead {
		rank.Sub(rank, bigOne)
	}
	if !lead || total.Cmp(bigOne) > 0 { // a nonempty answer to reach?
		switch mode {
		case ModeSimple:
			_, err = d.simpleAt(root, gamma, rank)
		case ModeIndexed:
			if root.Index == nil {
				return nil, ErrNoDirectAccess
			}
			_, _, _, err = d.descendRegion(root, d.seedRelation(root.Box, gamma), nil, rank)
		default:
			err = ErrNoDirectAccess
		}
		if err != nil {
			return nil, err
		}
	}
	return func(yield func(*Rope) bool) {
		if lead && !yield(nil) {
			return
		}
		// Without a seek the trail is empty and so is the replay.
		if mode == ModeSimple {
			d.replaySimple(0, len(d.trail), yield)
			return
		}
		d.replay(0, len(d.trail), func(r *Rope, _ bitset.Set) bool { return yield(r) })
	}, nil
}

// RopesFromInt is RopesFrom for a machine-word rank, reusing an
// internal big.Int.
func (d *Descender) RopesFromInt(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j int) (iter.Seq[*Rope], error) {
	d.rank.SetInt64(int64(j))
	return d.RopesFrom(root, gamma, emptyOK, mode, &d.rank)
}

// replay streams the Algorithms 2+3 outputs a trail segment [lo, hi)
// stands for — the rest of one Boxwise enumeration from the descent's
// landing output on, with provenances — by running its frames from the
// innermost out.
func (d *Descender) replay(lo, hi int, yield func(*Rope, bitset.Set) bool) bool {
	boxes := func(br BoxRelation) bool { return boxwiseStep(br, IndexedBoxEnum, yield) }
	for i := hi - 1; i >= lo; i-- {
		f := d.trail[i]
		br := BoxRelation{f.box, f.r}
		ok := true
		switch f.kind {
		case frameWalk:
			ok = walkRec(f.box, f.r, f.r.NonEmptyRows(), boxes)
		case frameWalkPast:
			r := bitset.Compose(f.box.Box.WLeft, f.r)
			ok = walkRec(f.box.Left, r, r.NonEmptyRows(), boxes)
		case frameBelowRight:
			ok = belowRightRec(f.box, f.r, boxes)
		case frameVars:
			ok = boxVars(br, f.at, yield) && boxProducts(br, IndexedBoxEnum, yield) &&
				belowRec(f.box, f.r, boxes)
		case frameProducts:
			ok = d.replayProducts(f, i, yield) && belowRec(f.box, f.r, boxes)
			i = f.lo // the sub-trails are consumed
		}
		if !ok {
			return false
		}
	}
	return true
}

// replayProducts is boxProducts at the box of product frame f resumed
// from its landing: the left factors are the replay of the left
// sub-trail [f.lo, f.mid), and the first of them pairs with the replay
// of the right sub-trail [f.mid, hi) instead of a fresh right
// enumeration.
func (d *Descender) replayProducts(f frame, hi int, yield func(*Rope, bitset.Set) bool) bool {
	bp := f.box.Box
	provT, inDown, _ := timesDown(BoxRelation{f.box, f.r})
	first := true
	return d.replay(f.lo, f.mid, func(sl *Rope, provL bitset.Set) bool {
		gammaR, liveT := rightGates(bp, inDown, provL)
		rights := func(y func(*Rope, bitset.Set) bool) { d.replay(f.mid, hi, y) }
		if !first {
			rights = Boxwise(f.box.Right, gammaR, IndexedBoxEnum)
		}
		first = false
		for sr, provR := range rights {
			if prov, ok := productProv(bp, provT, liveT, provR); ok && !yield(Concat(sl, sr), prov) {
				return false
			}
		}
		return true
	})
}

// replaySimple is replay for the Algorithm 1 trail of ModeSimple.
func (d *Descender) replaySimple(lo, hi int, yield func(*Rope) bool) bool {
	for i := hi - 1; i >= lo; i-- {
		f := d.trail[i]
		ok := true
		switch f.kind {
		case frameGamma:
			f.gamma.ForEach(func(g int) bool {
				if g >= f.at {
					ok = simpleUnion(f.box.Box, g, yield)
				}
				return ok
			})
		case frameInputs:
			ok = simpleInputs(f.box.Box, f.u, f.at, yield)
		case frameSimpleProduct:
			ok = d.replaySimpleProduct(f, i, yield) && simpleInputs(f.box.Box, f.u, f.at+1, yield)
			i = f.lo // the sub-trails are consumed
		}
		if !ok {
			return false
		}
	}
	return true
}

// replaySimpleProduct enumerates the products of the ×-input of frame
// f (left factor outermost, as simpleInputs does) resumed from a
// product landing: the left factors are the replay of the left
// sub-trail [f.lo, f.mid), and the first of them pairs with the replay
// of the right sub-trail [f.mid, hi).
func (d *Descender) replaySimpleProduct(f frame, hi int, yield func(*Rope) bool) bool {
	b := f.box.Box
	g := &b.Unions[f.u]
	tg := b.Times[g.Times[f.at-len(g.Vars)]]
	first := true
	return d.replaySimple(f.lo, f.mid, func(sl *Rope) bool {
		cat := func(sr *Rope) bool { return yield(Concat(sl, sr)) }
		if first {
			first = false
			return d.replaySimple(f.mid, hi, cat)
		}
		return simpleUnion(b.Right, int(tg.Right), cat)
	})
}
