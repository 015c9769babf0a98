package bitset

import (
	"math/rand"
	"testing"
)

// randMatrix fills a rows×cols matrix with density ~p.
func randMatrix(rng *rand.Rand, rows, cols int, p float64) Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < p {
				m.Set(i, j)
			}
		}
	}
	return m
}

// TestComposeKernelsAgainstNaive drives every composition path — the
// stride-1 fast path, the unrolled multi-word path, and arena-carved
// destinations — against the textbook triple loop across random shapes,
// including dimensions straddling the 64-column word boundary.
func TestComposeKernelsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{1, 3, 17, 63, 64, 65, 130, 300}
	var ar Arena
	for trial := 0; trial < 60; trial++ {
		r := dims[rng.Intn(len(dims))]
		m := dims[rng.Intn(len(dims))]
		c := dims[rng.Intn(len(dims))]
		a := randMatrix(rng, r, m, 0.2)
		b := randMatrix(rng, m, c, 0.2)
		want := ComposeNaive(a, b)
		if got := Compose(a, b); !got.Equal(want) {
			t.Fatalf("Compose %dx%dx%d diverges from naive", r, m, c)
		}
		ar.Reset()
		if got := ar.Compose(a, b); !got.Equal(want) {
			t.Fatalf("Arena.Compose %dx%dx%d diverges from naive", r, m, c)
		}
		if got := ComposeInto(NewMatrix(r, c), a, b); !got.Equal(want) {
			t.Fatalf("ComposeInto %dx%dx%d diverges from naive", r, m, c)
		}
		// NonEmptyRowsInto must agree with the allocating variant.
		got := want.NonEmptyRowsInto(ar.Set(want.Rows))
		if !got.Equal(want.NonEmptyRows()) {
			t.Fatalf("NonEmptyRowsInto diverges on %dx%d", want.Rows, want.Cols)
		}
	}
}

// TestComposeIntoAccumulates pins the OR-accumulate contract: bits
// already set in the destination survive the composition.
func TestComposeIntoAccumulates(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	a.Set(0, 1)
	b.Set(1, 0)
	dst := NewMatrix(2, 2)
	dst.Set(1, 1) // pre-existing bit, untouched by a∘b
	ComposeInto(dst, a, b)
	if !dst.Get(0, 0) || !dst.Get(1, 1) {
		t.Fatalf("ComposeInto lost bits: %v", dst)
	}
}

// TestArenaCarvesAreDisjoint verifies that values carved between Resets
// never alias, across enough carves to force slab growth and recycling.
func TestArenaCarvesAreDisjoint(t *testing.T) {
	var ar Arena
	for cycle := 0; cycle < 3; cycle++ {
		ar.Reset()
		var carved []Matrix
		for i := 0; i < 40; i++ {
			m := ar.Matrix(9, 130) // 3 words/row: multi-word path
			for r := 0; r < m.Rows; r++ {
				if !m.RowEmpty(r) {
					t.Fatalf("cycle %d: carve %d not cleared", cycle, i)
				}
			}
			m.Set(i%9, i%130)
			carved = append(carved, m)
		}
		s := ar.Set(200)
		if !s.Empty() {
			t.Fatal("carved set not empty")
		}
		s.Add(199)
		for i, m := range carved {
			if got := m.Count(); got != 1 || !m.Get(i%9, i%130) {
				t.Fatalf("cycle %d: carve %d clobbered (count %d)", cycle, i, got)
			}
		}
	}
}

// TestArenaSteadyStateAllocs pins the point of the arena: once the slabs
// reach the loop's high-water mark, carving allocates nothing.
func TestArenaSteadyStateAllocs(t *testing.T) {
	var ar Arena
	work := func() {
		ar.Reset()
		for i := 0; i < 16; i++ {
			m := ar.Matrix(8, 64)
			m.Set(1, 2)
			ar.Set(100).Add(3)
		}
	}
	work() // reach the high-water mark
	if avg := testing.AllocsPerRun(50, work); avg > 0.5 {
		t.Fatalf("arena steady state allocates %.1f allocs/cycle, want 0", avg)
	}
}

// TestArenaReleaseToMark pins the stack discipline of Mark/Release in the
// three places a mark can sit: before any slab exists, inside a partly
// used slab, and before grow moved a too-small free slab to the used
// list. After each release the arena carves exactly where it stood at
// the mark, and no slab is lost from the free/used/current sets.
func TestArenaReleaseToMark(t *testing.T) {
	slabs := func(a *Arena) int {
		n := len(a.free) + len(a.used)
		if cap(a.cur) > 0 {
			n++
		}
		return n
	}
	t.Run("no current slab", func(t *testing.T) {
		var ar Arena
		m := ar.Mark()
		ar.Set(64).Add(1)
		ar.Matrix(4, 64*arenaSlabWords) // larger than a slab: a dedicated one
		ar.Release(m)
		if cap(ar.cur) != 0 || len(ar.used) != 0 || len(ar.free) != 2 {
			t.Fatalf("after release: cur cap %d, %d used, %d free; want no slab, 0 used, 2 free",
				cap(ar.cur), len(ar.used), len(ar.free))
		}
		if s := ar.Set(64); !s.Empty() {
			t.Fatal("carve after release not cleared")
		}
	})
	t.Run("inside a slab", func(t *testing.T) {
		var ar Arena
		keep := ar.Set(100)
		keep.Add(99)
		m := ar.Mark()
		off := len(ar.cur)
		for i := 0; i < 5; i++ {
			ar.Matrix(8, 64*40).Set(7, 64*40-1) // 320 words each: the slab overflows
		}
		ar.Release(m)
		if len(ar.cur) != off || len(ar.used) != 0 || slabs(&ar) != 2 {
			t.Fatalf("after release: cur len %d (want %d), %d used, %d slabs", len(ar.cur), off, len(ar.used), slabs(&ar))
		}
		if !keep.Has(99) || keep.Count() != 1 {
			t.Fatal("release clobbered a carve older than the mark")
		}
	})
	t.Run("after grow skipped small free slabs", func(t *testing.T) {
		var ar Arena
		ar.Set(64)
		ar.Reset() // one small slab on the free list
		ar.Set(64)
		m := ar.Mark()
		ar.Matrix(2, arenaSlabWords*64) // skips nothing: the free list is empty
		ar.Release(m)
		ar.Reset()
		// Two slabs free now: a full-size one and a dedicated larger one.
		// A mark inside the first, then a carve too big for it and for
		// the regular free slab, makes grow skip that one into used.
		ar.Set(64)
		m = ar.Mark()
		free := len(ar.free)
		ar.Matrix(3, arenaSlabWords*64)
		if len(ar.used) < 2 {
			t.Fatalf("setup: %d used slabs, want the current and a skipped one", len(ar.used))
		}
		ar.Release(m)
		if len(ar.used) != 0 || len(ar.free) != free+1 || len(ar.cur) != 1 {
			t.Fatalf("after release: %d used, %d free (want %d), cur len %d", len(ar.used), len(ar.free), free+1, len(ar.cur))
		}
	})
}

// TestArenaReleaseCarvesAreDisjoint is TestArenaCarvesAreDisjoint for
// nested marks: values carved after a release never alias the values
// still live below the mark, while the slabs grow, get recycled and get
// skipped.
func TestArenaReleaseCarvesAreDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ar Arena
	type live struct {
		m    Matrix
		i, j int
	}
	var stack []live
	var marks []Mark
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(marks) == 0:
			marks = append(marks, ar.Mark())
			rows, cols := 1+rng.Intn(9), 1+rng.Intn(300)
			if rng.Intn(20) == 0 {
				cols = 64 * arenaSlabWords / 2 // a dedicated slab now and then
			}
			m := ar.Matrix(rows, cols)
			if !m.Empty() {
				t.Fatalf("step %d: carve not cleared", step)
			}
			i, j := rng.Intn(rows), rng.Intn(cols)
			m.Set(i, j)
			stack = append(stack, live{m, i, j})
		default:
			k := rng.Intn(len(marks))
			ar.Release(marks[k])
			marks, stack = marks[:k], stack[:k]
		}
		for n, l := range stack {
			if l.m.Count() != 1 || !l.m.Get(l.i, l.j) {
				t.Fatalf("step %d: live carve %d clobbered", step, n)
			}
		}
	}
}

// TestArenaMarkReleaseSteadyStateAllocs: a mark/carve/release loop, the
// cursor's per-frame pattern, allocates nothing once the slabs exist.
func TestArenaMarkReleaseSteadyStateAllocs(t *testing.T) {
	var ar Arena
	work := func() {
		outer := ar.Mark()
		for i := 0; i < 8; i++ {
			m := ar.Mark()
			ar.Matrix(8, 64).Set(1, 2)
			ar.Set(1000).Add(3)
			ar.Release(m)
		}
		ar.Matrix(4, 64*arenaSlabWords) // forces a slab switch
		ar.Release(outer)
	}
	work() // reach the high-water mark
	if avg := testing.AllocsPerRun(50, work); avg != 0 {
		t.Fatalf("mark/carve/release allocates %.1f allocs/cycle, want 0", avg)
	}
}
