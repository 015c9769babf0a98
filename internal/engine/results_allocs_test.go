package engine

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/tva"
)

// TestResultsAllocsPerAnswer is the engine-level allocation guard of the
// enumeration cursor: a steady-state Results drain allocates one
// assignment per answer and little else — the cursor is pooled, its
// scratch is recycled frame by frame, and ropes are carved from slabs.
// It runs on the single-variable ancestor query, on the two-variable
// childPair query (its answers are products of two var gates), and on
// the ambiguous //a//b path query, the enumeration behind the keyed
// full-drain diff.
func TestResultsAllocsPerAnswer(t *testing.T) {
	queries := directAccessQueries(t)
	for _, name := range []string{"ancestor", "childPair", "pathAB"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			ut := tva.RandomUnrankedTree(rng, 5000, []tree.Label{"a", "b", "c"})
			e, qid := treeQuery(t, ut, queries[name], Options{})
			s := e.Snapshot().Query(qid)
			n := len(s.All())
			if n < 1000 {
				t.Fatalf("want at least 1000 answers, got %d", n)
			}
			drain := func() {
				for range s.Results() {
				}
			}
			drain()
			perAnswer := testing.AllocsPerRun(5, drain) / float64(n)
			t.Logf("%d answers: %.4f allocations per answer", n, perAnswer)
			if perAnswer > 1.1 {
				t.Fatalf("Results drain makes %.3f allocations per answer, want ≤ 1.1", perAnswer)
			}
		})
	}
}

// TestAmbiguousPageAllocs guards the skip in the ranked stream of
// ambiguous snapshots: Page(off, 20) enumerates off+20 answers but
// materializes only the 20 it returns, so it allocates no more than
// Page(0, 20) plus the rope slabs of the skipped answers (256 ropes to a
// slab) and a small constant.
func TestAmbiguousPageAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ut := tva.RandomUnrankedTree(rng, 5000, []tree.Label{"a", "b", "c"})
	e, qid := treeQuery(t, ut, directAccessQueries(t)["pathAB"], Options{})
	s := e.Snapshot().Query(qid)
	if s.DirectAccess() {
		t.Fatal("//a//b must not have direct access")
	}
	n := s.Count()
	if n < 1000 {
		t.Fatalf("want at least 1000 answers, got %d", n)
	}
	pageAllocs := func(off int) float64 {
		return testing.AllocsPerRun(5, func() {
			if got := s.Page(off, 20); len(got) != 20 {
				t.Fatalf("Page(%d, 20) returned %d answers", off, len(got))
			}
		})
	}
	base := pageAllocs(0)
	for _, off := range []int{n / 2, n - 20} {
		got := pageAllocs(off)
		t.Logf("Page(%d, 20): %.0f allocations, Page(0, 20): %.0f", off, got, base)
		if bound := base + float64(off/256+64); got > bound {
			t.Fatalf("Page(%d, 20) makes %.0f allocations, want ≤ %.0f (Page(0, 20) makes %.0f)", off, got, bound, base)
		}
	}
}

// TestKeyedDiffAllocs guards the write-path cost of the ambiguous delta:
// a subscribed //a//b query on a 2000-node random document (the
// benchmark's ambiguous workload), one leaf relabel per publication.
// The keyed diff drains only the new version into flat sorted runs and
// merges them against the previous publication's record, so a
// steady-state publication allocates far fewer objects than the query
// has answers; the old two-map diff made about four per answer (a key
// string, an assignment and map growth on each side).
func TestKeyedDiffAllocs(t *testing.T) {
	alpha := []tree.Label{"a", "b", "c"}
	ut := tva.RandomUnrankedTree(rand.New(rand.NewSource(1)), 2000, alpha)
	if err := ut.Relabel(ut.Root.ID, "a"); err != nil {
		t.Fatal(err)
	}
	e, qid := treeQuery(t, ut, directAccessQueries(t)["pathAB"], Options{})
	ch, err := e.Subscribe(qid)
	if err != nil {
		t.Fatal(err)
	}
	<-ch // the seed resync
	// A b leaf under the a root: relabelling it to c and back removes
	// and adds one answer per publication.
	var leaf tree.NodeID = -1
	for _, n := range ut.Nodes() {
		if n.IsLeaf() && n.Label == "b" {
			leaf = n.ID
			break
		}
	}
	if leaf < 0 {
		t.Fatal("document has no b leaf")
	}
	labels := [2]tree.Label{"c", "b"}
	i := 0
	publish := func() {
		if _, _, err := e.ApplyBatch([]Update{{Op: OpRelabel, Node: leaf, Label: labels[i%2]}}); err != nil {
			t.Fatal(err)
		}
		i++
		if d := <-ch; len(d.Added)+len(d.Removed) != 1 {
			t.Fatalf("publication %d: delta of %d answers, want 1", i, len(d.Added)+len(d.Removed))
		}
	}
	for range 4 {
		publish()
	}
	answers := e.Snapshot().Query(qid).Count()
	allocs := testing.AllocsPerRun(50, publish)
	t.Logf("%d answers: %.0f allocations per publication", answers, allocs)
	if bound := float64(answers) / 2; allocs >= bound {
		t.Fatalf("a one-answer publication makes %.0f allocations, want < %.0f (answers/2)", allocs, bound)
	}
}
