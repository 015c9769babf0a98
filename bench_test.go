// Benchmarks mirroring the experiment harness (cmd/benchtables), one per
// table/figure claim (see DESIGN.md §4 for the index). Absolute numbers
// are machine-dependent; the shapes (flat vs logarithmic vs linear vs
// exponential) are what reproduce the paper.
package enumtrees_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	enumtrees "repro"
	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/markedanc"
	"repro/internal/spanner"
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

// BenchmarkE1Table1 measures one update followed by re-enumerating the
// first results — the workload the Table 1 comparison is about — for the
// paper's algorithm and the rebuild baseline.
func BenchmarkE1Table1(b *testing.B) {
	q := workload.AncestorQuery()
	for _, n := range []int{1000, 16000} {
		rng := rand.New(rand.NewSource(1))
		ut := mustTree(b, workload.ShapeRandom, n, rng)
		b.Run(fmt.Sprintf("ours/n=%d", n), func(b *testing.B) {
			e := mustEnum(b, ut.Clone(), q, engine.Options{})
			ed := workload.NewEditor(e, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ed.Step(); err != nil {
					b.Fatal(err)
				}
				k := 0
				for range e.snap().Results() {
					if k++; k >= 10 {
						break
					}
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			e, err := baseline.NewRebuildEnumerator(ut.Clone(), q, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			edits := workload.RandomEdits(b.N, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := workload.Apply(e, edits[i]); err != nil {
					b.Fatal(err)
				}
				k := 0
				for range e.Results() {
					if k++; k >= 10 {
						break
					}
				}
			}
		})
	}
}

// BenchmarkE2Preprocessing measures full preprocessing; ns/op divided by
// n must stay flat across sizes (linear preprocessing).
func BenchmarkE2Preprocessing(b *testing.B) {
	q := workload.AncestorQuery()
	for _, n := range []int{2000, 16000, 128000} {
		rng := rand.New(rand.NewSource(2))
		ut := mustTree(b, workload.ShapeRandom, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := mustEnum(b, ut.Clone(), q, engine.Options{})
				_ = e
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}

// BenchmarkE3Delay measures per-result delay; must not grow with n.
func BenchmarkE3Delay(b *testing.B) {
	q := workload.AncestorQuery()
	for _, n := range []int{1000, 16000, 256000} {
		rng := rand.New(rand.NewSource(3))
		e := mustEnum(b, mustTree(b, workload.ShapeRandom, n, rng), q, engine.Options{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			produced := 0
			b.ResetTimer()
			for produced < b.N {
				for range e.snap().Results() {
					if produced++; produced >= b.N {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/result")
		})
	}
}

// BenchmarkE4Updates measures one tree update; must grow like log n.
func BenchmarkE4Updates(b *testing.B) {
	q := workload.AncestorQuery()
	for _, n := range []int{1000, 16000, 256000} {
		rng := rand.New(rand.NewSource(4))
		e := mustEnum(b, mustTree(b, workload.ShapeRandom, n, rng), q, engine.Options{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ed := workload.NewEditor(e, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ed.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Combined sweeps the nondeterministic automaton size: ours
// polynomial, determinize-first exponential.
func BenchmarkE5Combined(b *testing.B) {
	alpha := []tree.Label{"a", "b"}
	rng := rand.New(rand.NewSource(5))
	ut := tva.RandomUnrankedTree(rng, 2000, alpha)
	for _, k := range []int{2, 4, 5} {
		q := tva.DescendantAtDepth(alpha, "b", k, 0)
		b.Run(fmt.Sprintf("ours/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEnum(b, ut.Clone(), q, engine.Options{})
			}
		})
		b.Run(fmt.Sprintf("determinize/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.DeterminizeFirst(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Words measures word updates and delay (Theorem 8.5).
func BenchmarkE6Words(b *testing.B) {
	p := spanner.Contains(spanner.Cat(
		spanner.Lit{Label: "a"},
		spanner.Capture{Var: 0, Inner: spanner.Plus{Inner: spanner.Lit{Label: "b"}}},
	))
	q, err := spanner.CompileWVA(p, []tree.Label{"a", "b", "c"})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 16000, 256000} {
		rng := rand.New(rand.NewSource(6))
		e, err := engine.NewWordSet(workload.Word(n, rng))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Register(q, engine.Options{}); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("update/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, _ := e.Word()
				u := engine.Update{Op: engine.OpRelabel, Node: ids[rng.Intn(len(ids))], Label: workload.Word(1, rng)[0]}
				if _, err := e.Apply(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7MarkedAncestor measures one marked-ancestor operation via
// the enumeration reduction on deep paths vs the walk baseline.
func BenchmarkE7MarkedAncestor(b *testing.B) {
	for _, n := range []int{1000, 16000} {
		rng := rand.New(rand.NewSource(7))
		ut := mustTree(b, workload.ShapePath, n, rng)
		for _, nd := range ut.Nodes() {
			if err := ut.Relabel(nd.ID, markedanc.Unmarked); err != nil {
				b.Fatal(err)
			}
		}
		nodes := ut.Nodes()
		deepest := nodes[len(nodes)-1]
		enum, err := markedanc.NewEnumerationSolver(ut)
		if err != nil {
			b.Fatal(err)
		}
		walk := markedanc.NewWalkSolver(ut)
		b.Run(fmt.Sprintf("enum/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enum.Query(deepest.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("walk/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := walk.Query(deepest.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8JumpAblation measures a full enumeration pass on deep combs
// with matches only at the bottom: indexed flat, naive linear in depth.
func BenchmarkE8JumpAblation(b *testing.B) {
	x := tree.NewVarSet(0)
	raw := &tva.Binary{
		NumStates: 2,
		Alphabet:  []tree.Label{"a", "b"},
		Vars:      x,
		Init: []tva.InitRule{
			{Label: "a", Set: 0, State: 0}, {Label: "b", Set: 0, State: 0},
			{Label: "a", Set: x, State: 1},
		},
		Final: []tva.State{1},
	}
	for _, l := range []tree.Label{"a", "b"} {
		raw.Delta = append(raw.Delta,
			tva.Triple{Label: l, Left: 0, Right: 0, Out: 0},
			tva.Triple{Label: l, Left: 1, Right: 0, Out: 1},
			tva.Triple{Label: l, Left: 0, Right: 1, Out: 1},
		)
	}
	bd, err := circuit.NewBuilder(raw.Homogenize())
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1000, 20000} {
		bt := tree.NewBinary()
		cur := bt.Leaf("a")
		for i := 0; i < depth; i++ {
			lab := tree.Label("b")
			if i < 15 {
				lab = "a"
			}
			cur = bt.Inner("b", cur, bt.Leaf(lab))
		}
		bt.SetRoot(cur)
		c := bd.Build(bt)
		croot := enumerate.BuildIndex(c)
		gamma, emptyOK := bd.RootAccepting(c)
		for _, mode := range []struct {
			name string
			m    enumerate.Mode
		}{{"indexed", enumerate.ModeIndexed}, {"naive", enumerate.ModeNaive}} {
			b.Run(fmt.Sprintf("%s/depth=%d", mode.name, depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k := 0
					for range enumerate.Assignments(croot, gamma, emptyOK, mode.m) {
						k++
					}
					if k != 16 {
						b.Fatalf("got %d results", k)
					}
				}
			})
		}
	}
}

// BenchmarkE9CircuitSize builds circuits and reports gates per node.
func BenchmarkE9CircuitSize(b *testing.B) {
	q := workload.AncestorQuery()
	for _, n := range []int{4000, 64000} {
		rng := rand.New(rand.NewSource(9))
		ut := mustTree(b, workload.ShapeRandom, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var st engine.Stats
			for i := 0; i < b.N; i++ {
				st = mustEnum(b, ut.Clone(), q, engine.Options{}).snap().Stats()
			}
			gates := st.UnionGates + st.TimesGates + st.VarGates
			b.ReportMetric(float64(gates)/float64(n), "gates/node")
			b.ReportMetric(float64(st.CircuitWidth), "width")
		})
	}
}

// BenchmarkE10MatMul compares the two relation compositions.
func BenchmarkE10MatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, w := range []int{16, 64, 256} {
		a := bitset.NewMatrix(w, w)
		c := bitset.NewMatrix(w, w)
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				if rng.Float64() < 0.3 {
					a.Set(i, j)
				}
				if rng.Float64() < 0.3 {
					c.Set(i, j)
				}
			}
		}
		b.Run(fmt.Sprintf("naive/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitset.ComposeNaive(a, c)
			}
		})
		b.Run(fmt.Sprintf("packed/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitset.Compose(a, c)
			}
		})
	}
}

// BenchmarkT1Homogenize measures Lemma 2.1.
func BenchmarkT1Homogenize(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range []int{16, 64} {
		a := tva.RandomBinary(rng, q, []tree.Label{"a", "b"}, tree.NewVarSet(0), 0.02)
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Homogenize()
			}
		})
	}
}

// BenchmarkT2Translation measures the Lemma 7.4 translation.
func BenchmarkT2Translation(b *testing.B) {
	alpha := []tree.Label{"a", "b"}
	for _, k := range []int{2, 4, 5} {
		q := tva.DescendantAtDepth(alpha, "b", k, 0)
		b.Run(fmt.Sprintf("tree/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := forest.Translate(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentReaders measures aggregate snapshot-enumeration
// throughput at 1/4/16 reader goroutines while the engine applies a
// continuous update stream. Readers are lock-free (one atomic load per
// snapshot, then a walk of frozen structure), so ns/op — the aggregate
// cost per produced result — should drop roughly with the core count as
// readers are added; the update stream runs unthrottled throughout.
// cmd/benchtables -concurrent emits the same measurement as a
// machine-readable JSON baseline.
func BenchmarkConcurrentReaders(b *testing.B) {
	q := workload.AncestorQuery()
	rng := rand.New(rand.NewSource(20))
	ut := mustTree(b, workload.ShapeRandom, 20000, rng)
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			eng := mustEnum(b, ut.Clone(), q, engine.Options{})
			var stopWriter atomic.Bool
			var writerWG sync.WaitGroup
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				wrng := rand.New(rand.NewSource(21))
				// Relabels keep the ID set stable, so list the nodes once:
				// the update stream must not be throttled by O(n) scans.
				nodes := eng.Tree().Nodes()
				for !stopWriter.Load() {
					n := nodes[wrng.Intn(len(nodes))]
					if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: n.ID, Label: workload.Word(1, wrng)[0]}); err != nil {
						panic(err)
					}
				}
			}()

			var produced atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for produced.Load() < int64(b.N) {
						for range eng.snap().Results() {
							if produced.Add(1) >= int64(b.N) {
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			stopWriter.Store(true)
			writerWG.Wait()
		})
	}
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

// BenchmarkDirectAccess mirrors experiment D1: Count and At(j) latency
// on a large answer set, the engine's semiring/descent fast paths vs
// the drain baseline. The direct variants must be flat in the answer
// count (the drain variants are the linear comparison anchors).
// cmd/benchtables -directaccess emits the same measurement as the
// machine-readable BENCH_directaccess.json baseline.
func BenchmarkDirectAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	ut := mustTree(b, workload.ShapeRandom, 16000, rng)
	q := tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0)
	eng := mustEnum(b, ut, q, engine.Options{})
	snap := eng.snap()
	if !snap.DirectAccess() {
		b.Fatal("select query must be direct-access capable")
	}
	answers := 0
	for range snap.Results() {
		answers++
	}
	mid := answers / 2
	b.Run("Count/direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if snap.Count() != answers {
				b.Fatal("count diverged")
			}
		}
	})
	b.Run("Count/drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := 0
			for range snap.Results() {
				c++
			}
			if c != answers {
				b.Fatal("count diverged")
			}
		}
	})
	b.Run("At/direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.At(mid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("At/drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := 0
			for range snap.Results() {
				if j == mid {
					break
				}
				j++
			}
		}
	})
	b.Run("Page/direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := snap.Page(mid, 16); len(got) != 16 {
				b.Fatal("short page")
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

// BenchmarkParallelAll mirrors experiment E1-par: full-result
// materialization through the sequential drain vs rank-partitioned
// parallel drains at several worker counts, plus the order-preserving
// Chunks stream. On one core all variants should sit within noise of
// each other (workers time-share); the scaling shape is what
// multi-core runs reproduce. cmd/benchtables -enumparallel emits the
// same measurement as a machine-readable JSON baseline.
func BenchmarkParallelAll(b *testing.B) {
	rng := rand.New(rand.NewSource(151))
	ut := mustTree(b, workload.ShapeRandom, 16000, rng)
	q := tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0)
	eng := mustEnum(b, ut, q, engine.Options{})
	snap := eng.snap()
	answers := snap.Count()
	b.Run("All", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := snap.All(); len(got) != answers {
				b.Fatal("short drain")
			}
		}
	})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ParallelAll/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := snap.ParallelAll(w); len(got) != answers {
					b.Fatal("short drain")
				}
			}
		})
	}
	b.Run("Chunks/w=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for chunk := range snap.Chunks(4, 512) {
				n += len(chunk)
			}
			if n != answers {
				b.Fatal("short drain")
			}
		}
	})
}

// BenchmarkMultiQueryBatch mirrors experiment C2: one batched update
// stream fanned out to k standing queries, a shared QuerySet (term work
// once, k box repairs) vs k independent engines (everything k times).
// cmd/benchtables -multiquery emits the same measurement as a
// machine-readable JSON baseline.
func BenchmarkMultiQueryBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	ut := mustTree(b, workload.ShapeRandom, 16000, rng)
	nodes := ut.Nodes()
	alpha := []tree.Label{"a", "b", "c"}
	queries := []*tva.Unranked{
		tva.SelectLabel(alpha, "a", 0),
		tva.SelectLabel(alpha, "b", 0),
		tva.SelectLabel(alpha, "c", 0),
		workload.AncestorQuery(),
	}
	const batchLen = 8
	mkBatch := func(wrng *rand.Rand) []engine.Update {
		batch := make([]engine.Update, batchLen)
		for i := range batch {
			batch[i] = engine.Update{
				Op:    engine.OpRelabel,
				Node:  nodes[wrng.Intn(len(nodes))].ID,
				Label: workload.Word(1, wrng)[0],
			}
		}
		return batch
	}
	k := len(queries)
	b.Run(fmt.Sprintf("shared/k=%d", k), func(b *testing.B) {
		qs := engine.NewTreeSet(ut.Clone())
		for _, q := range queries {
			if _, err := qs.Register(q, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		wrng := rand.New(rand.NewSource(25))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := qs.ApplyBatch(mkBatch(wrng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("independent/k=%d", k), func(b *testing.B) {
		engines := make([]oneQuery, k)
		for i, q := range queries {
			engines[i] = mustEnum(b, ut.Clone(), q, engine.Options{})
		}
		wrng := rand.New(rand.NewSource(25))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := mkBatch(wrng)
			for _, e := range engines {
				if _, _, err := e.ApplyBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkParallelPipelines mirrors experiment C3: per-edit publish
// latency of a QuerySet with k=16 standing queries when the per-query
// trunk repair is fanned out across workers ∈ {1, 4, 8}
// (engine.SetWorkers; workers=1 is the deterministic sequential path).
// On w cores the parallel variants should approach serial/w; on a
// single core they time-share and mainly pin that the pool adds no
// meaningful overhead. cmd/benchtables -parallel emits the same
// measurement as the machine-readable BENCH_parallel.json baseline.
func BenchmarkParallelPipelines(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	ut := mustTree(b, workload.ShapeRandom, 16000, rng)
	_, queries := experiments.ParallelQueries() // the C3 pool of 16
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("k=16/workers=%d", workers), func(b *testing.B) {
			qs := engine.NewTreeSet(ut.Clone())
			qs.SetWorkers(workers)
			for _, q := range queries {
				if _, err := qs.Register(q, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			nodes := qs.Tree().Nodes()
			wrng := rand.New(rand.NewSource(42))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := nodes[wrng.Intn(len(nodes))]
				if _, err := qs.Apply(engine.Update{Op: engine.OpRelabel, Node: n.ID, Label: workload.Word(1, wrng)[0]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoxRepair mirrors experiment B1: per-update trunk repair cost
// (ns/op and allocs/op) on an E4-style single-relabel stream. "pruned"
// is the default engine (precompiled transition programs + builder
// scratch arena + signature-pruned reuse), "fullrebuild" disables the
// reuse fast path, and "neutral" relabels only nodes and labels the
// query does not distinguish, so pruning reuses the entire trunk on
// every edit. cmd/benchtables -build emits the same measurement as the
// machine-readable BENCH_build.json baseline (with the pre-PR reference
// embedded); the acceptance comparison is pruned vs that baseline.
func BenchmarkBoxRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	ut := mustTree(b, workload.ShapeRandom, 16000, rng)
	q := tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0)
	for _, cfg := range []struct {
		name   string
		labels []tree.Label
		opts   engine.Options
	}{
		{"pruned", []tree.Label{"a", "b", "c"}, engine.Options{}},
		{"fullrebuild", []tree.Label{"a", "b", "c"}, engine.Options{FullRebuild: true}},
		{"neutral", []tree.Label{"a", "c"}, engine.Options{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			eng := mustEnum(b, ut.Clone(), q, cfg.opts)
			var ids []tree.NodeID
			for _, n := range eng.Tree().Nodes() {
				if cfg.name == "neutral" && n.Label == "b" {
					continue
				}
				ids = append(ids, n.ID)
			}
			wrng := rand.New(rand.NewSource(52))
			// Warm the repair path (and settle the neutral stream onto its
			// label pool) before timing.
			for i := 0; i < 64; i++ {
				if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: ids[wrng.Intn(len(ids))], Label: cfg.labels[wrng.Intn(len(cfg.labels))]}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: ids[wrng.Intn(len(ids))], Label: cfg.labels[wrng.Intn(len(cfg.labels))]}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
