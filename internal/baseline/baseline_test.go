package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// TestRebuildMatchesIncremental compares the rebuild baseline and the
// incremental engine on the same update sequence.
func TestRebuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := tva.SelectLabel(alphaAB, "a", 0)
	ut := tva.RandomUnrankedTree(rng, 10, alphaAB)
	inc := engine.NewTreeSet(ut.Clone())
	id, err := inc.Register(q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reb, err := NewRebuildEnumerator(ut.Clone(), q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// apply runs one update on both sides and checks they created the
	// same node.
	apply := func(u engine.Update) {
		t.Helper()
		v1, err := inc.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := reb.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Fatalf("%v: diverging node IDs %d vs %d", u.Op, v1, v2)
		}
	}
	for step := 0; step < 25; step++ {
		nodes := inc.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		l := alphaAB[rng.Intn(2)]
		switch rng.Intn(3) {
		case 0:
			apply(engine.Update{Op: engine.OpRelabel, Node: n.ID, Label: l})
		case 1:
			apply(engine.Update{Op: engine.OpInsertFirstChild, Node: n.ID, Label: l})
		default:
			if n.IsLeaf() && n.Parent != nil {
				apply(engine.Update{Op: engine.OpDelete, Node: n.ID})
			}
		}
		a := map[string]bool{}
		for asg := range inc.Snapshot().Query(id).Results() {
			a[asg.Key()] = true
		}
		b := map[string]bool{}
		for asg := range reb.Results() {
			b[asg.Key()] = true
		}
		if len(a) != len(b) {
			t.Fatalf("step %d: incremental %d vs rebuild %d", step, len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Fatalf("step %d: rebuild missing %q", step, k)
			}
		}
	}
	// InsertRightSibling parity too.
	nodes := inc.Tree().Nodes()
	for _, n := range nodes {
		if n.Parent != nil {
			apply(engine.Update{Op: engine.OpInsertRightSibling, Node: n.ID, Label: "b"})
			if inc.Snapshot().Query(id).Count() != reb.Count() {
				t.Fatal("insertR parity broken")
			}
			break
		}
	}
}

// TestDeterminizeFirstExplodes verifies the E5 premise: the determinized
// route grows much faster in |Q| than the nondeterministic one.
func TestDeterminizeFirstExplodes(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	var lastRatio float64
	for k := 1; k <= 4; k++ {
		q := tva.DescendantAtDepth(alpha, "b", k, 0)
		db, st, err := DeterminizeFirst(q)
		if err != nil {
			t.Fatal(err)
		}
		if !db.IsDeterministic() {
			t.Fatal("determinize-first route produced a nondeterministic automaton")
		}
		if st.DetStates < st.NondetStates {
			// Trimming may shrink it on tiny k, but by k=4 the blowup
			// must show.
			if k >= 4 {
				t.Fatalf("k=%d: det %d < nondet %d", k, st.DetStates, st.NondetStates)
			}
		}
		lastRatio = float64(st.DetStates) / float64(st.NondetStates)
	}
	if lastRatio < 1.5 {
		t.Fatalf("expected determinization blowup, ratio %.2f", lastRatio)
	}
}
