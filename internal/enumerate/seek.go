package enumerate

import (
	"iter"
	"math/big"

	"repro/internal/bitset"
)

// This file implements seek-then-stream reads: RopesFrom(j) produces
// the ropes of Ropes from rank j on with ONE count-guided descent
// (direct.go) followed by the enumeration cursor, so a page of k
// answers costs O(h·poly(w)) + k·delay instead of k descents.
//
// The descent walks, level by level, the recursion of the enumeration
// down to rank j. At each branch it takes it records on the descender's
// trail, as cursor frames (enum.go), the piece of the recursion still
// pending after that branch: the walk of a region, the right region
// below an interesting box, the rest of a box's var gates and its
// products, the regions below it, the remaining inputs of an Algorithm
// 1 ∪-gate. A landing inside a product records the product frame, the
// left factor's frames, a frameRight holding the landed left factor,
// and the right factor's frames, exactly the stack the cursor has right
// after emitting that product. The finished trail is therefore the
// cursor's state right after answer j: the stream yields the landed
// answer, then runs the cursor on a copy of the trail. No answer before
// rank j is ever produced.

// record appends a frame to the trail and returns its position.
func (d *Descender) record(f frame) int32 {
	d.trail = append(d.trail, f)
	return int32(len(d.trail) - 1)
}

// RopesFrom returns the ropes of Ropes(root, gamma, emptyOK, mode) from
// rank j (0-based) on, in the same order, without producing the first
// j: the seek is one count-guided descent, run before RopesFrom
// returns, and the stream continues with the enumeration's own delay.
// j may equal the total (an empty stream); ranks beyond it fail with
// ErrRankRange, and the descent's ErrNoDirectAccess / ErrAmbiguous are
// reported as At reports them. The stream runs the descender's cursor
// on the seek's trail: it is valid only until the descender's next At,
// RopesFrom or Reset, and each iteration recycles the scratch of the
// previous one. The ropes it yields are persistent heap values.
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
	var landed *Rope // nil: the empty assignment is the only answer left
	if !lead || total.Cmp(bigOne) > 0 {
		switch mode {
		case ModeSimple:
			landed, err = d.simpleAt(root, gamma, rank)
		case ModeIndexed:
			if root.Index == nil {
				return nil, ErrNoDirectAccess
			}
			landed, _, _, err = d.descendRegion(root, d.seedRelation(root.Box, gamma), nil, rank, -1)
		default:
			err = ErrNoDirectAccess
		}
		if err != nil {
			return nil, err
		}
	}
	seek := d.mats.Mark()
	return func(yield func(*Rope) bool) {
		if lead && !yield(nil) || landed == nil || !yield(landed) {
			return
		}
		// The trail frames' scratch is the seek's: it stays put.
		d.mats.Release(seek)
		d.stack = append(d.stack[:0], d.trail...)
		d.deep = max(d.deep, len(d.stack))
		for i := range d.stack {
			d.stack[i].mark = seek
		}
		d.region, d.boxes = frameRegion, false
		d.stream(yield)
	}, nil
}

// RopesFromInt is RopesFrom for a machine-word rank, reusing an
// internal big.Int.
func (d *Descender) RopesFromInt(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j int) (iter.Seq[*Rope], error) {
	d.rank.SetInt64(int64(j))
	return d.RopesFrom(root, gamma, emptyOK, mode, &d.rank)
}
