package bitset

// Arena is a bump allocator for short-lived matrices and sets: carved
// values share backing word slabs that survive Reset, so a hot loop
// that composes many transient relations (the count-guided descent, one
// arena per worker) allocates only while the slabs are still growing
// toward the loop's high-water mark.
//
// Carved values are valid until the next Reset, which recycles ALL of
// them at once, or until a Release to a Mark taken before them, which
// recycles the values carved since that mark and nothing older: marks
// nest like a stack, so a depth-first enumeration can give back each
// frame's scratch as it pops the frame. An Arena is NOT safe for
// concurrent use — confine one per goroutine, like a circuit.Builder.
type Arena struct {
	free [][]uint64 // slabs available for carving
	used [][]uint64 // slabs carved from (or skipped) since the last Reset
	cur  []uint64   // current slab; len = used prefix, cap = slab size
}

// arenaSlabWords is the minimum slab size; requests larger than a slab
// get a dedicated slab of exactly their size.
const arenaSlabWords = 1024

// words carves n zeroed words. Carving clears the region explicitly
// (slabs are dirty after Reset), which is a memclr — far cheaper than a
// fresh allocation per matrix.
func (a *Arena) words(n int) []uint64 {
	if len(a.cur)+n > cap(a.cur) {
		a.grow(n)
	}
	off := len(a.cur)
	a.cur = a.cur[: off+n : cap(a.cur)]
	w := a.cur[off : off+n : off+n]
	clear(w)
	return w
}

// grow installs a slab with room for at least n more words: a retained
// free slab if one fits, else a fresh allocation. The outgoing current
// slab — and any free slab too small for this request — moves to the
// used list, out of reach until Reset.
func (a *Arena) grow(n int) {
	if cap(a.cur) > 0 {
		a.used = append(a.used, a.cur)
	}
	a.cur = nil
	for len(a.free) > 0 {
		s := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		if cap(s) >= n {
			a.cur = s[:0]
			return
		}
		a.used = append(a.used, s)
	}
	a.cur = make([]uint64, 0, max(n, arenaSlabWords))
}

// Matrix carves an all-false rows×cols matrix from the arena.
func (a *Arena) Matrix(rows, cols int) Matrix {
	return MatrixOn(a.words(Words(rows, cols)), rows, cols)
}

// Set carves an empty set of capacity n from the arena.
func (a *Arena) Set(n int) Set {
	return Set{words: a.words((n + 63) / 64), n: n}
}

// Compose carves the result matrix from the arena and composes x∘y into
// it: Compose without the allocation.
func (a *Arena) Compose(x, y Matrix) Matrix {
	return ComposeInto(a.Matrix(x.Rows, y.Cols), x, y)
}

// Mark is a position in an Arena's carving sequence, taken by
// Arena.Mark and handed back to Arena.Release.
type Mark struct {
	used int // len(used) when the mark was taken
	off  int // len(cur) when the mark was taken; -1: there was no current slab
}

// Mark returns the arena's current position.
func (a *Arena) Mark() Mark {
	if cap(a.cur) == 0 {
		return Mark{used: len(a.used), off: -1}
	}
	return Mark{used: len(a.used), off: len(a.cur)}
}

// Release recycles every value carved since m was taken; values carved
// before m stay valid. Marks taken after m become invalid, and m itself
// stays valid until a Reset or a Release to an older mark.
func (a *Arena) Release(m Mark) {
	if len(a.used) == m.used {
		switch {
		case m.off >= 0:
			a.cur = a.cur[:m.off]
		case cap(a.cur) > 0: // a slab installed since the mark
			a.free = append(a.free, a.cur)
			a.cur = nil
		}
		return
	}
	// grow moved the mark's current slab (if any) to used first, then
	// any free slab it skipped as too small: all but the former go back
	// to the free list, along with the current slab.
	since := a.used[m.used:]
	var cur []uint64
	if m.off >= 0 {
		cur, since = since[0][:m.off], since[1:]
	}
	a.free = append(a.free, since...)
	if cap(a.cur) > 0 {
		a.free = append(a.free, a.cur)
	}
	clear(a.used[m.used:])
	a.used = a.used[:m.used]
	a.cur = cur
}

// Reset recycles every value carved since the last Reset. The backing
// slabs are retained, so steady-state loops stop allocating.
func (a *Arena) Reset() {
	if cap(a.cur) > 0 {
		a.used = append(a.used, a.cur)
	}
	a.cur = nil
	a.free = append(a.free, a.used...)
	clear(a.used)
	a.used = a.used[:0]
}
