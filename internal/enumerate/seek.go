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
// products, the regions below it. A landing inside a product records
// the product frame, the left factor's frames, a frameRight holding the
// landed left factor, and the right factor's frames, exactly the stack
// the cursor has right after emitting that product. The finished trail
// is therefore the cursor's state right after answer j: the stream
// yields the landed answer, then runs the cursor on a copy of the
// trail. No answer before rank j is ever produced.

// record appends a frame to the trail and returns its position.
func (d *Descender) record(f frame) int32 {
	d.trail = append(d.trail, f)
	return int32(len(d.trail) - 1)
}

// seek is the part of At and RopesFrom before their answer: it checks
// j against Total, steps past the empty assignment, which comes first
// when emptyOK, and runs the count-guided descent (direct.go) to rank j,
// leaving the trail. ok is false, with no error, at j == Total. A nil
// rope with ok is the empty assignment. j is not mutated, and the call
// allocates nothing once the descender's scratch has grown.
func (d *Descender) seek(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j *big.Int) (rope *Rope, ok bool, err error) {
	if j.Sign() < 0 {
		return nil, false, ErrRankRange
	}
	if mode != ModeIndexed {
		return nil, false, ErrNoDirectAccess
	}
	d.Reset()
	total, err := totalInto(d.ints.get(), root, gamma, emptyOK)
	if err != nil {
		return nil, false, err
	}
	switch c := j.Cmp(total); {
	case c > 0:
		return nil, false, ErrRankRange
	case c == 0:
		return nil, false, nil
	}
	rank := d.ints.get().Set(j)
	if emptyOK {
		if rank.Sign() == 0 {
			return nil, true, nil
		}
		rank.Sub(rank, bigOne)
	}
	if root.Index == nil {
		return nil, false, ErrNoDirectAccess
	}
	rope, _, _, err = d.descendRegion(root, d.seedRelation(root.Box, gamma), nil, rank, -1)
	return rope, err == nil, err
}

// RopesFrom returns the ropes of Ropes(root, gamma, emptyOK, mode) from
// rank j (0-based) on, in the same order, without producing the first
// j: the seek is one count-guided descent, run before RopesFrom
// returns, and the stream continues with the enumeration's own delay.
// j may equal the total (an empty stream); otherwise RopesFrom fails
// as At fails. The stream runs the descender's cursor on the seek's
// trail: it is valid only until the descender's next At, RopesFrom or
// Reset, and each iteration recycles the scratch of the previous one.
// The ropes it yields are persistent heap values.
func (d *Descender) RopesFrom(root *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode, j *big.Int) (iter.Seq[*Rope], error) {
	// The empty assignment leads the stream from rank 0; the seek lands
	// on the answer after it, which the cursor needs to resume.
	lead := emptyOK && j.Sign() == 0
	if lead {
		j = bigOne
	}
	landed, ok, err := d.seek(root, gamma, emptyOK, mode, j)
	if err != nil {
		return nil, err
	}
	mark := d.mats.Mark()
	return func(yield func(*Rope) bool) {
		if lead && !yield(nil) || !ok || !yield(landed) {
			return
		}
		// The trail frames' scratch is the seek's: it stays put.
		d.mats.Release(mark)
		d.stack = append(d.stack[:0], d.trail...)
		d.deep = max(d.deep, len(d.stack))
		for i := range d.stack {
			d.stack[i].mark = mark
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
