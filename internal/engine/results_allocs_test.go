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
