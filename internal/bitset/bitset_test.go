package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(130)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) = false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if s.First() != 0 {
		t.Fatalf("First = %d, want 0", s.First())
	}
	s.Remove(0)
	s.Remove(64)
	if s.Has(0) || s.Has(64) {
		t.Fatal("Remove did not remove")
	}
	if s.Count() != 6 {
		t.Fatalf("Count = %d, want 6", s.Count())
	}
	got := s.Elems()
	want := []int{1, 63, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

func TestSetAddRemoveIdempotent(t *testing.T) {
	s := NewSet(100)
	s.Add(42)
	s.Add(42)
	if s.Count() != 1 {
		t.Fatalf("Count = %d after double Add, want 1", s.Count())
	}
	s.Remove(42)
	s.Remove(42)
	if s.Count() != 0 {
		t.Fatalf("Count = %d after double Remove, want 0", s.Count())
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(70)
	b := NewSet(70)
	a.Add(1)
	a.Add(65)
	b.Add(2)
	b.Add(65)

	u := a.Clone()
	u.Or(b)
	if u.Count() != 3 || !u.Has(1) || !u.Has(2) || !u.Has(65) {
		t.Fatalf("Or wrong: %v", u)
	}

	i := a.Clone()
	i.And(b)
	if i.Count() != 1 || !i.Has(65) {
		t.Fatalf("And wrong: %v", i)
	}

	if !a.Intersects(b) {
		t.Fatal("Intersects should be true")
	}
	c := NewSet(70)
	c.Add(3)
	if a.Intersects(c) {
		t.Fatal("Intersects should be false")
	}
}

func TestSetCloneIndependence(t *testing.T) {
	a := NewSet(10)
	a.Add(3)
	b := a.Clone()
	b.Add(4)
	if a.Has(4) {
		t.Fatal("Clone shares storage")
	}
	if !b.Has(3) {
		t.Fatal("Clone lost element")
	}
}

func TestSetForEachEarlyStop(t *testing.T) {
	s := NewSet(200)
	for i := 0; i < 200; i += 3 {
		s.Add(i)
	}
	n := 0
	s.ForEach(func(int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(10)
	s.Add(1)
	s.Add(5)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := NewSet(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestSetEqual(t *testing.T) {
	a := NewSet(10)
	b := NewSet(10)
	a.Add(7)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	b.Add(7)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	if a.Equal(NewSet(11)) {
		t.Fatal("different capacities reported equal")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 70)
	m.Set(0, 0)
	m.Set(1, 65)
	m.Set(2, 69)
	if !m.Get(0, 0) || !m.Get(1, 65) || !m.Get(2, 69) {
		t.Fatal("Get/Set mismatch")
	}
	if m.Get(0, 1) {
		t.Fatal("spurious entry")
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d", m.Count())
	}
	r := m.Row(2)
	if !r.Has(69) || r.Count() != 1 {
		t.Fatal("Row wrong")
	}
	// Row shares storage.
	r.Add(1)
	if !m.Get(2, 1) {
		t.Fatal("Row does not share storage")
	}
}

func TestMatrixNonEmptyRowsAndColUnion(t *testing.T) {
	m := NewMatrix(4, 5)
	m.Set(1, 2)
	m.Set(3, 0)
	m.Set(3, 4)
	ne := m.NonEmptyRows()
	if ne.Count() != 2 || !ne.Has(1) || !ne.Has(3) {
		t.Fatalf("NonEmptyRows = %v", ne)
	}
	rows := NewSet(4)
	rows.Add(1)
	rows.Add(3)
	u := m.ColUnion(rows)
	if u.Count() != 3 || !u.Has(0) || !u.Has(2) || !u.Has(4) {
		t.Fatalf("ColUnion = %v", u)
	}
}

func TestIdentityCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 17, 23, 0.3)
	id17 := IdentityOn(make([]uint64, Words(17, 17)), 17)
	id23 := IdentityOn(make([]uint64, Words(23, 23)), 23)
	if !Compose(id17, m).Equal(m) {
		t.Fatal("I∘m != m")
	}
	if !Compose(m, id23).Equal(m) {
		t.Fatal("m∘I != m")
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int, p float64) Matrix {
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

// TestComposeAgreesWithNaive is the core property: the word-packed
// composition must agree with the textbook join on random relations.
func TestComposeAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		c := 1 + rng.Intn(100)
		a := randomMatrix(rng, r, m, rng.Float64())
		b := randomMatrix(rng, m, c, rng.Float64())
		fast := Compose(a, b)
		slow := ComposeNaive(a, b)
		if !fast.Equal(slow) {
			t.Fatalf("trial %d: Compose != ComposeNaive\nA:\n%sB:\n%sfast:\n%sslow:\n%s",
				trial, a, b, fast, slow)
		}
	}
}

// TestComposeAssociative checks (a∘b)∘c == a∘(b∘c), which the enumeration
// algorithms rely on when folding chains of reachability relations.
func TestComposeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n1, n2, n3, n4 := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := randomMatrix(rng, n1, n2, 0.3)
		b := randomMatrix(rng, n2, n3, 0.3)
		c := randomMatrix(rng, n3, n4, 0.3)
		left := Compose(Compose(a, b), c)
		right := Compose(a, Compose(b, c))
		if !left.Equal(right) {
			t.Fatalf("trial %d: composition not associative", trial)
		}
	}
}

func TestComposeDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Compose(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestQuickSetRoundTrip(t *testing.T) {
	f := func(elems []uint16) bool {
		s := NewSet(1 << 16)
		seen := map[int]bool{}
		for _, e := range elems {
			s.Add(int(e))
			seen[int(e)] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		for e := range seen {
			if !s.Has(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComposeImage(t *testing.T) {
	// The image of a singleton row set under a∘b equals the union over
	// intermediate elements, checked via ColUnion.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 10, 12, 0.4)
		b := randomMatrix(rng, 12, 9, 0.4)
		ab := Compose(a, b)
		for i := 0; i < 10; i++ {
			want := b.ColUnion(a.Row(i))
			if !ab.Row(i).Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
