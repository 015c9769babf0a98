package enumerate

import (
	"math/big"
	"sync"

	"repro/internal/bitset"
)

// This file owns the reusable scratch of the enumeration cursor and the
// count-guided descent: a Descender bundles arenas for the transient
// relation matrices, big.Int weights and factor-weight slices they
// build, so a stream or a worker draining a rank range pays their
// allocations once at the high-water mark instead of once per answer.
// One Descender per goroutine — nothing here is safe for concurrent use.

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

// Descender is the enumeration cursor together with the count-guided
// descent (direct.go) that can start it at any rank. Its state is the
// frame stack of enum.go; its scratch is reusable: relation matrices,
// gate sets and provenances come from a bitset.Arena — given back frame
// by frame as the cursor pops frames, and all at once at the start of
// every At and RopesFrom call — weights from a big.Int arena, per-factor
// weight vectors from slab pools, and the seek's trail from a retained
// slice. So a loop over ranks, or a long stream, allocates only until
// the slabs reach the high-water mark, plus the ropes it yields, which
// are carved from append-only slabs and stay valid forever.
//
// CONCURRENCY: a Descender is confined to one goroutine. The stream
// RopesFrom returns reads the descender's trail and scratch, so it is
// valid until the descender's NEXT At or RopesFrom call (or Reset);
// ropes and the assignments materialized from them are ordinary heap
// values with no such restriction. The zero value is ready to use;
// GetDescender and PutDescender pool them.
type Descender struct {
	mats bitset.Arena
	ints bigArena
	wgts slicePool[*big.Int]
	cols slicePool[int]
	slab ropeSlab
	rank big.Int
	// trail holds the frames the last descent recorded (seek.go):
	// the enumeration still pending after the answer it landed on.
	trail []frame
	// stack is the cursor's frame stack (enum.go), top last; deep is
	// its high-water length since the last Reset.
	stack []frame
	deep  int
	// region is the frame kind of a region, frameRegion (Algorithm 3)
	// or frameNaive; boxes selects box mode, whose outputs land in out.
	region frameKind
	boxes  bool
	out    BoxRelation
}

// descenders pools cursors: an enumeration takes one per iteration, so
// arena slabs and frame stacks outlive the streams that grew them.
var descenders = sync.Pool{New: func() any { return new(Descender) }}

// GetDescender takes a Descender from the package pool.
func GetDescender() *Descender { return descenders.Get().(*Descender) }

// PutDescender resets d, dropping its references into the structure it
// read, and returns it to the pool. Ropes it produced stay valid.
func PutDescender(d *Descender) {
	d.Reset()
	descenders.Put(d)
}

// NewDescender returns an empty Descender. The zero value works too;
// the constructor exists for call-site clarity.
func NewDescender() *Descender { return new(Descender) }

// Reset recycles all scratch, invalidating streams returned by earlier
// RopesFrom calls, and drops the references into the wrapper tree last
// read. At and RopesFrom call it themselves; callers only need it to
// drop references eagerly.
func (d *Descender) Reset() {
	d.mats.Reset()
	d.ints.reset()
	d.wgts.reset()
	d.cols.reset()
	clear(d.trail)
	d.trail = d.trail[:0]
	clear(d.stack[:d.deep])
	d.stack = d.stack[:0]
	d.deep = 0
	d.out = BoxRelation{}
}
