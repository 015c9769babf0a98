package bitset

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The tests in this file pin the word kernels against a bit-at-a-time
// reference on every length (tail words, the unroll width) and every
// stride (odd strides).

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// bitAt reports bit i of p.
func bitAt(p []uint64, i int) bool { return p[i>>6]>>uint(i&63)&1 != 0 }

// naiveZip is the reference for the in-place kernels: it rebuilds dst
// op src one bit at a time. dst and src have the same length.
func naiveZip(dst, src []uint64, op func(x, y bool) bool) []uint64 {
	out := make([]uint64, len(dst))
	for i := 0; i < 64*len(dst); i++ {
		if op(bitAt(dst, i), bitAt(src, i)) {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
	return out
}

// naiveCount counts the set bits of p one bit at a time.
func naiveCount(p []uint64) int {
	c := 0
	for i := 0; i < 64*len(p); i++ {
		if bitAt(p, i) {
			c++
		}
	}
	return c
}

// checkWordKernels checks every word kernel on equal-length operands
// against the bit-at-a-time reference.
func checkWordKernels(t *testing.T, dst, src []uint64) {
	t.Helper()
	and := func(x, y bool) bool { return x && y }
	ops := []struct {
		name string
		run  func(d, s []uint64)
		bit  func(x, y bool) bool
	}{
		{"or", orWords, func(x, y bool) bool { return x || y }},
		{"and", andWords, and},
	}
	for _, op := range ops {
		got := append([]uint64(nil), dst...)
		op.run(got, src)
		if want := naiveZip(dst, src, op.bit); !slices.Equal(got, want) {
			t.Fatalf("%s over %d words: %#x, want %#x", op.name, len(src), got, want)
		}
	}
	if got, want := intersectWords(dst, src), naiveCount(naiveZip(dst, src, and)) > 0; got != want {
		t.Fatalf("intersect over %d words: %v, want %v", len(src), got, want)
	}
	if got, want := anyWords(dst), naiveCount(dst) > 0; got != want {
		t.Fatalf("any over %d words: %v, want %v", len(dst), got, want)
	}
	if got, want := popcountWords(dst), naiveCount(dst); got != want {
		t.Fatalf("popcount over %d words: %d, want %d", len(dst), got, want)
	}
}

func TestKernelInfo(t *testing.T) {
	if info := Kernels(); info != (KernelInfo{Arch: runtime.GOARCH, Path: "portable"}) {
		t.Fatalf("Kernels() = %+v", info)
	}
}

// kernelLengths crosses the 4-word unroll width and odd tails.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 100, 129}

func TestWordKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLengths {
		for trial := 0; trial < 8; trial++ {
			checkWordKernels(t, randWords(rng, n), randWords(rng, n))
		}
	}
}

// TestWordKernelsSparse drives the early-exit predicates through slices
// that are all-zero except one bit at each possible word position, so
// both the "found in the unrolled block" and "found in the tail" exits
// are exercised.
func TestWordKernelsSparse(t *testing.T) {
	for _, n := range kernelLengths {
		zero := make([]uint64, n)
		if anyWords(zero) {
			t.Fatalf("anyWords(zero[%d]) = true", n)
		}
		if popcountWords(zero) != 0 {
			t.Fatalf("popcountWords(zero[%d]) != 0", n)
		}
		if intersectWords(zero, zero) {
			t.Fatalf("intersectWords(zero, zero) n=%d = true", n)
		}
		for w := 0; w < n; w++ {
			p := make([]uint64, n)
			p[w] = 1 << uint(w%64)
			if !anyWords(p) {
				t.Fatalf("anyWords n=%d bit in word %d missed", n, w)
			}
			if popcountWords(p) != 1 {
				t.Fatalf("popcountWords n=%d bit in word %d != 1", n, w)
			}
			if !intersectWords(p, p) {
				t.Fatalf("intersectWords n=%d bit in word %d missed", n, w)
			}
			if intersectWords(p, zero) || intersectWords(zero, p) {
				t.Fatalf("intersectWords n=%d phantom intersection", n)
			}
		}
	}
}

func TestComposeIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []struct{ r, m, c int }{
		{1, 1, 1}, {3, 5, 7}, {8, 64, 64}, {10, 70, 65}, {16, 100, 128},
		{5, 33, 200}, {40, 64, 300}, {7, 129, 66}, {1, 200, 513},
	}
	for _, d := range dims {
		for _, density := range []float64{0.02, 0.3, 0.9} {
			a := randMatrix(rng, d.r, d.m, density)
			b := randMatrix(rng, d.m, d.c, density)
			want := ComposeNaive(a, b)
			if got := Compose(a, b); !got.Equal(want) {
				t.Fatalf("Compose %dx%dx%d density %v != naive", d.r, d.m, d.c, density)
			}
		}
	}
}

func TestComposeManyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cols := range []int{9, 64, 130, 320} {
		mid := 70
		b := randMatrix(rng, mid, cols, 0.25)
		var as, dsts, want []Matrix
		for _, rows := range []int{1, 5, 17, 64} {
			a := randMatrix(rng, rows, mid, 0.25)
			as = append(as, a)
			dsts = append(dsts, NewMatrix(rows, cols))
			want = append(want, ComposeInto(NewMatrix(rows, cols), a, b))
		}
		ComposeManyInto(dsts, as, b)
		for i := range dsts {
			if !dsts[i].Equal(want[i]) {
				t.Fatalf("cols=%d: batch result %d differs from ComposeInto", cols, i)
			}
		}
	}

	// Mixed-width batch over a single-word b (the stride-1 fast path).
	b := randMatrix(rng, 40, 50, 0.3)
	a := randMatrix(rng, 12, 40, 0.3)
	dst := []Matrix{NewMatrix(12, 50)}
	ComposeManyInto(dst, []Matrix{a}, b)
	if want := Compose(a, b); !dst[0].Equal(want) {
		t.Fatal("stride-1 batch differs from Compose")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched ComposeManyInto did not panic")
		}
	}()
	ComposeManyInto(dst, nil, b)
}

func TestSetNext(t *testing.T) {
	s := NewSet(200)
	for _, e := range []int{0, 1, 63, 64, 65, 130, 199} {
		s.Add(e)
	}
	var got []int
	for g := s.Next(0); g >= 0; g = s.Next(g + 1) {
		got = append(got, g)
	}
	want := s.Elems()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Next walk %v, Elems %v", got, want)
	}
	if s.Next(-5) != 0 {
		t.Fatalf("Next(-5) = %d, want 0", s.Next(-5))
	}
	if s.Next(200) != -1 || s.Next(1000) != -1 {
		t.Fatal("Next past capacity should be -1")
	}
	if s.Next(66) != 130 {
		t.Fatalf("Next(66) = %d, want 130", s.Next(66))
	}
	if e := NewSet(70); e.Next(0) != -1 {
		t.Fatal("Next on empty set should be -1")
	}
}

func TestSetSingle(t *testing.T) {
	cases := []struct {
		elems []int
		want  int
		ok    bool
	}{
		{nil, -1, false},
		{[]int{5}, 5, true},
		{[]int{100}, 100, true},
		{[]int{5, 6}, -1, false},
		{[]int{5, 100}, -1, false},
		{[]int{63, 64}, -1, false},
	}
	for _, c := range cases {
		s := NewSet(130)
		for _, e := range c.elems {
			s.Add(e)
		}
		got, ok := s.Single()
		if got != c.want || ok != c.ok {
			t.Fatalf("Single%v = (%d, %v), want (%d, %v)", c.elems, got, ok, c.want, c.ok)
		}
	}
}

func TestSetCol(t *testing.T) {
	for _, cols := range []int{1, 64, 130} {
		m := NewMatrix(100, cols)
		want := NewMatrix(100, cols)
		rows := []int32{0, 3, 41, 97}
		j := cols - 1
		m.SetCol(rows, j)
		for _, r := range rows {
			want.Set(int(r), j)
		}
		if !m.Equal(want) {
			t.Fatalf("SetCol cols=%d differs from per-bit Set", cols)
		}
		m.SetCol(nil, 0)
		if !m.Equal(want) {
			t.Fatal("empty SetCol changed the matrix")
		}
	}
}

func TestRowsIntersectingInto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cols := range []int{7, 64, 130, 300} {
		m := randMatrix(rng, 50, cols, 0.1)
		for trial := 0; trial < 4; trial++ {
			g := NewSet(cols)
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.05 {
					g.Add(j)
				}
			}
			got := m.RowsIntersectingInto(g, NewSet(50))
			want := NewSet(50)
			for i := 0; i < 50; i++ {
				if m.Row(i).Intersects(g) {
					want.Add(i)
				}
			}
			if !got.Equal(want) {
				t.Fatalf("cols=%d trial=%d: RowsIntersectingInto %v, want %v", cols, trial, got, want)
			}
		}
	}
}

func TestColUnionMatchesRowOr(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cols := range []int{5, 64, 200} {
		m := randMatrix(rng, 80, cols, 0.2)
		rows := NewSet(80)
		for i := 0; i < 80; i++ {
			if rng.Float64() < 0.3 {
				rows.Add(i)
			}
		}
		want := NewSet(cols)
		rows.ForEach(func(i int) bool { want.Or(m.Row(i)); return true })
		if got := m.ColUnion(rows); !got.Equal(want) {
			t.Fatalf("cols=%d: ColUnion %v, want %v", cols, got, want)
		}
	}
}

func TestMatrixCountEmptyKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, cols := range []int{3, 64, 65, 290} {
		m := randMatrix(rng, 30, cols, 0.15)
		want := 0
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if m.Get(i, j) {
					want++
				}
			}
		}
		if got := m.Count(); got != want {
			t.Fatalf("cols=%d: Count %d, want %d", cols, got, want)
		}
		if m.Empty() != (want == 0) {
			t.Fatalf("cols=%d: Empty inconsistent with Count", cols)
		}
		for i := 0; i < m.Rows; i++ {
			if m.RowEmpty(i) != (m.Row(i).Count() == 0) {
				t.Fatalf("cols=%d: RowEmpty(%d) inconsistent", cols, i)
			}
		}
		z := NewMatrix(30, cols)
		if !z.Empty() || z.Count() != 0 {
			t.Fatalf("cols=%d: fresh matrix not empty", cols)
		}
	}
}

// ---- benchmarks ----

func BenchmarkOrWords(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 16, 64} {
		dst := randWords(rng, n)
		src := randWords(rng, n)
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				orWords(dst, src)
			}
		})
	}
}

func BenchmarkCountWords(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{16, 64} {
		p := randWords(rng, n)
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = popcountWords(p)
			}
		})
	}
}

var sinkInt int

func BenchmarkComposeInto(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ rows, mid, cols int }{{64, 64, 64}, {64, 64, 512}} {
		a := randMatrix(rng, c.rows, c.mid, 0.3)
		bb := randMatrix(rng, c.mid, c.cols, 0.3)
		dst := NewMatrix(c.rows, c.cols)
		b.Run(fmt.Sprintf("rows=%d/cols=%d", c.rows, c.cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(dst.bits)
				ComposeInto(dst, a, bb)
			}
		})
	}
}
