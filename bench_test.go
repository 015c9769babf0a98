// Benchmarks for API paths that no experiment of internal/experiments
// measures: batched versus sequential edits, a ranked page, and the
// README flow. The paper's tables and the recorded baselines run through
// cmd/benchtables (see DESIGN.md §5).
package enumtrees_test

import (
	"fmt"
	"math/rand"
	"testing"

	enumtrees "repro"
	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// mustTree builds a workload tree or fails the benchmark.
func mustTree(b *testing.B, shape string, n int, rng *rand.Rand) *tree.Unranked {
	b.Helper()
	t, err := workload.Tree(shape, n, rng)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// oneQuery is one standing query on a TreeSet, the shape the
// single-query benchmarks drive: edits go through Apply / ApplyBatch,
// reads through the query's slice of the latest publication.
type oneQuery struct {
	*engine.TreeSet
	id engine.QueryID
}

func (e oneQuery) snap() *engine.Snapshot { return e.Snapshot().Query(e.id) }

// mustEnum registers q as the one standing query on a fresh TreeSet.
func mustEnum(b *testing.B, t *tree.Unranked, q *tva.Unranked, opts engine.Options) oneQuery {
	b.Helper()
	s := engine.NewTreeSet(t)
	id, err := s.Register(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	return oneQuery{s, id}
}

// BenchmarkApplyBatch compares k clustered relabels applied one by one
// (k publications) against one ApplyBatch call (one publication with
// amortized box repair).
func BenchmarkApplyBatch(b *testing.B) {
	q := workload.AncestorQuery()
	rng := rand.New(rand.NewSource(22))
	ut := mustTree(b, workload.ShapeRandom, 16000, rng)
	nodes := ut.Nodes()
	const k = 16
	mkBatch := func(wrng *rand.Rand) []engine.Update {
		batch := make([]engine.Update, k)
		for i := range batch {
			batch[i] = engine.Update{
				Op:    engine.OpRelabel,
				Node:  nodes[wrng.Intn(len(nodes))].ID,
				Label: workload.Word(1, wrng)[0],
			}
		}
		return batch
	}
	b.Run(fmt.Sprintf("batched/k=%d", k), func(b *testing.B) {
		eng := mustEnum(b, ut.Clone(), q, engine.Options{})
		wrng := rand.New(rand.NewSource(23))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.ApplyBatch(mkBatch(wrng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("sequential/k=%d", k), func(b *testing.B) {
		eng := mustEnum(b, ut.Clone(), q, engine.Options{})
		wrng := rand.New(rand.NewSource(23))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, u := range mkBatch(wrng) {
				if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: u.Node, Label: u.Label}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPage measures one Page(offset, 100) of the ancestor query on
// a 20k-node document at random offsets: one count-guided seek to the
// offset plus 100 enumeration steps, O(log|T|·poly|Q|) + 100·delay,
// whatever the offset.
func BenchmarkPage(b *testing.B) {
	const limit = 100
	rng := rand.New(rand.NewSource(41))
	ut := tva.RandomUnrankedTree(rng, 20000, []tree.Label{"a", "b", "c"})
	if err := ut.Relabel(ut.Root.ID, "a"); err != nil {
		b.Fatal(err)
	}
	snap := mustEnum(b, ut, workload.AncestorQuery(), engine.Options{}).snap()
	if !snap.DirectAccess() {
		b.Fatal("ancestor query must be direct-access capable")
	}
	n := snap.Count()
	if n < limit {
		b.Fatalf("answer set too small: %d", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := snap.Page(rng.Intn(n-limit), limit); len(got) != limit {
			b.Fatal("short page")
		}
	}
}

// BenchmarkFacadeQuickstart keeps the README flow honest under -bench.
func BenchmarkFacadeQuickstart(b *testing.B) {
	tr, err := enumtrees.ParseTree("(a (b) (a (b)))")
	if err != nil {
		b.Fatal(err)
	}
	q := enumtrees.SelectLabel([]enumtrees.Label{"a", "b"}, "b", 0)
	e, id, err := enumtrees.New(tr, q, enumtrees.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if e.Snapshot().Query(id).Count() != 2 {
			b.Fatal("wrong count")
		}
	}
}
