package workload

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/tree"
)

func TestTreeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []string{ShapeRandom, ShapePath, ShapeStar, ShapeComb, ShapeXMLish} {
		ut, err := Tree(shape, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		if ut.Size() < 49 || ut.Size() > 52 {
			t.Fatalf("%s: size %d", shape, ut.Size())
		}
	}
	if _, err := Tree("nope", 10, rng); err == nil {
		t.Fatal("unknown shape should fail")
	}
	// Shape sanity.
	p, _ := Tree(ShapePath, 30, rng)
	if p.Height() != 29 {
		t.Fatalf("path height %d", p.Height())
	}
	s, _ := Tree(ShapeStar, 30, rng)
	if s.Height() != 1 {
		t.Fatalf("star height %d", s.Height())
	}
}

func TestWord(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Word(40, rng)
	if len(w) != 40 {
		t.Fatalf("len %d", len(w))
	}
}

func TestAncestorQuerySemantics(t *testing.T) {
	q := AncestorQuery()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	ut, _ := tree.ParseUnranked("(b (a (c) (b (c))) (c))")
	got, err := q.SatisfyingAssignments(ut, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes under the "a": c, b, c (3 nodes with an a-ancestor).
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3: %v", len(got), got)
	}
	for _, asg := range got {
		n := ut.Node(asg[0].Node)
		found := false
		for p := n.Parent; p != nil; p = p.Parent {
			if p.Label == "a" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d has no a-ancestor", n.ID)
		}
	}
}

// ancestorSet registers AncestorQuery as the one standing query on a
// fresh TreeSet.
func ancestorSet(t *testing.T, ut *tree.Unranked) (*engine.TreeSet, engine.QueryID) {
	t.Helper()
	s := engine.NewTreeSet(ut)
	id, err := s.Register(AncestorQuery(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

func TestApplyEditStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ut, _ := Tree(ShapeRandom, 30, rng)
	e, id := ancestorSet(t, ut)
	edits := RandomEdits(100, rng)
	for _, ed := range edits {
		if err := Apply(e, ed); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-check against the oracle after the storm if small enough;
	// otherwise just exercise the enumeration.
	if e.Tree().Size() <= 7 {
		want, err := AncestorQuery().SatisfyingAssignments(e.Tree(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Snapshot().Query(id).Count(); got != len(want) {
			t.Fatalf("count %d, want %d", got, len(want))
		}
	} else {
		_ = e.Snapshot().Query(id).Count()
	}
}

func TestEditorStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ut, _ := Tree(ShapeRandom, 6, rng)
	e, id := ancestorSet(t, ut)
	ed := NewEditor(e, rng)
	for i := 0; i < 120; i++ {
		if err := ed.Step(); err != nil {
			t.Fatal(err)
		}
		if e.Tree().Size() <= 7 {
			want, err := AncestorQuery().SatisfyingAssignments(e.Tree(), 7)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Snapshot().Query(id).Count(); got != len(want) {
				t.Fatalf("step %d: count %d, want %d", i, got, len(want))
			}
		}
	}
}
