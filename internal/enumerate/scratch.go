package enumerate

import (
	"math/big"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// This file owns the reusable scratch of the count-guided descent
// (direct.go): a Descender bundles per-call arenas for the transient
// relation matrices, big.Int weights, factor-weight slices and ropes the
// descent builds, so a worker draining a rank range (Snapshot.ParallelAll
// / Chunks) pays the descent's allocations once at the high-water mark
// instead of once per answer. One Descender per goroutine — nothing here
// is safe for concurrent use.

// slicePool is a bump allocator over slabs of []T: get returns a cleared
// length-n slice valid until the next Reset; slabs are retained across
// Resets, so steady-state loops stop allocating.
type slicePool[T any] struct {
	free [][]T
	used [][]T
	cur  []T
}

const sliceSlabLen = 512

func (p *slicePool[T]) get(n int) []T {
	if len(p.cur)+n > cap(p.cur) {
		p.grow(n)
	}
	off := len(p.cur)
	p.cur = p.cur[: off+n : cap(p.cur)]
	s := p.cur[off : off+n : off+n]
	clear(s)
	return s
}

func (p *slicePool[T]) grow(n int) {
	if cap(p.cur) > 0 {
		p.used = append(p.used, p.cur)
	}
	p.cur = nil
	for len(p.free) > 0 {
		s := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if cap(s) >= n {
			p.cur = s[:0]
			return
		}
		p.used = append(p.used, s)
	}
	p.cur = make([]T, 0, max(n, sliceSlabLen))
}

func (p *slicePool[T]) reset() {
	if cap(p.cur) > 0 {
		p.used = append(p.used, p.cur)
	}
	p.cur = nil
	p.free = append(p.free, p.used...)
	clear(p.used)
	p.used = p.used[:0]
}

// bigArena hands out reusable big.Int values. A recycled big.Int keeps
// its limb storage, so steady-state descents perform no big.Int
// allocations for the weight arithmetic. Returned values are NOT zeroed
// — callers must Set before reading.
type bigArena struct {
	slabs [][]big.Int
	si    int // slab index
	off   int // next free element of slabs[si]
}

const bigSlabLen = 64

func (a *bigArena) get() *big.Int {
	if a.si == len(a.slabs) {
		a.slabs = append(a.slabs, make([]big.Int, bigSlabLen))
	}
	s := a.slabs[a.si]
	v := &s[a.off]
	a.off++
	if a.off == len(s) {
		a.si++
		a.off = 0
	}
	return v
}

func (a *bigArena) reset() { a.si, a.off = 0, 0 }

// RopeArena hands out Rope nodes from retained slabs: the rope graphs a
// descent builds (Leaf / Concat) live until the arena's next Reset, which
// recycles them all at once. Materialize copies everything out, so the
// usual discipline — materialize the answer, then reuse the arena for
// the next rank — needs no per-rope bookkeeping.
type RopeArena struct {
	slabs [][]Rope
	si    int
	off   int
}

const ropeSlabLen = 256

func (a *RopeArena) get() *Rope {
	if a.si == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Rope, ropeSlabLen))
	}
	s := a.slabs[a.si]
	r := &s[a.off]
	a.off++
	if a.off == len(s) {
		a.si++
		a.off = 0
	}
	return r
}

// Leaf is LeafRope allocated from the arena.
func (a *RopeArena) Leaf(set tree.VarSet, node tree.NodeID) *Rope {
	r := a.get()
	*r = Rope{set: set, node: node, size: set.Count()}
	return r
}

// Concat is Concat allocated from the arena.
func (a *RopeArena) Concat(l, r *Rope) *Rope {
	c := a.get()
	*c = Rope{left: l, right: r, size: l.size + r.size}
	return c
}

// Reset recycles every rope handed out since the last Reset.
func (a *RopeArena) Reset() { a.si, a.off = 0, 0 }

// Descender runs count-guided descents (the direct.go At logic, and
// the seek of RopesFrom in seek.go) with reusable scratch: relation
// matrices and gate sets come from a bitset.Arena, weights from a
// big.Int arena, per-factor weight vectors from slab pools, the
// answer's rope from a RopeArena, and the seek's trail from a retained
// slice. All scratch is recycled at the start of every At and RopesFrom
// call, so a loop over ranks allocates only until the slabs reach the
// descent's high-water mark.
//
// CONCURRENCY: a Descender is confined to one goroutine. The ropes At
// returns are arena-owned, and the stream RopesFrom returns reads the
// arena-owned trail: both are valid until the descender's NEXT At or
// RopesFrom call (or Reset), so consume each answer or stream before
// asking for the next. Assignments materialized from them are ordinary
// heap values with no such restriction. The zero value is ready to use.
type Descender struct {
	mats  bitset.Arena
	ints  bigArena
	wgts  slicePool[*big.Int]
	cols  slicePool[int]
	ropes RopeArena
	rank  big.Int
	// trail holds the pending enumeration pieces the last descent
	// recorded (seek.go); RopesFrom replays it.
	trail []frame
}

// NewDescender returns an empty Descender. The zero value works too;
// the constructor exists for call-site clarity.
func NewDescender() *Descender { return new(Descender) }

// Reset recycles all scratch, invalidating ropes returned by earlier At
// calls and streams returned by earlier RopesFrom calls. Both call
// Reset themselves; callers only need it to drop references eagerly.
func (d *Descender) Reset() {
	d.mats.Reset()
	d.ints.reset()
	d.wgts.reset()
	d.cols.reset()
	d.ropes.Reset()
	clear(d.trail) // drop references to the previous descent's boxes
	d.trail = d.trail[:0]
}
