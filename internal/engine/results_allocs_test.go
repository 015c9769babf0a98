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
