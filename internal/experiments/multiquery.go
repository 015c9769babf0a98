package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// MultiQueryPoint is one row of the multi-query experiment (C2): k
// standing queries under one update stream, a shared QuerySet vs k
// independent single-query engines. The path-copy and rebalance counters
// are the SHARED term work — on the QuerySet they must not grow with k
// (equal to the k=1 row), while the k independent engines repeat them k
// times.
type MultiQueryPoint struct {
	Queries int `json:"queries"`

	SharedPathCopies      int     `json:"shared_path_copies"`
	SharedRebalances      int     `json:"shared_rebalances"`
	SharedBoxesRebuilt    int     `json:"shared_boxes_rebuilt"`
	SharedSecondsPerBatch float64 `json:"shared_seconds_per_batch"`

	IndepPathCopies      int     `json:"independent_path_copies"`
	IndepRebalances      int     `json:"independent_rebalances"`
	IndepBoxesRebuilt    int     `json:"independent_boxes_rebuilt"`
	IndepSecondsPerBatch float64 `json:"independent_seconds_per_batch"`

	// TermWorkRatio is independent/shared path copies: k when the
	// QuerySet shares perfectly.
	TermWorkRatio float64 `json:"term_work_ratio"`
	// Speedup is independent/shared wall time per batch.
	Speedup float64 `json:"speedup"`
}

// DuplicateMultiQueryPoint is one row of the duplicate-heavy C2
// workload: k registrations drawn round-robin from d distinct query
// specs, a QuerySet with the multi-query optimizer on (content-equal
// automata deduped onto refcounted shared pipelines) against the same
// registrations under Options.NoDedupe (one private pipeline each, the
// pre-optimizer behavior). With dedupe the per-batch repair cost tracks
// d, not k: Pipelines stays at d, boxes rebuilt per batch matches the
// d-query run, and per-query seconds/batch is flat as k grows past d.
type DuplicateMultiQueryPoint struct {
	Registrations int `json:"registrations"`
	DistinctSpecs int `json:"distinct_specs"`

	// Pipelines and RegistrationsDeduped come from the dedupe engine's
	// stats after registration: Pipelines must equal DistinctSpecs and
	// RegistrationsDeduped must equal Registrations - DistinctSpecs.
	Pipelines            int `json:"pipelines"`
	RegistrationsDeduped int `json:"registrations_deduped"`

	DedupeBoxesRebuilt    int     `json:"dedupe_boxes_rebuilt"`
	DedupeSecondsPerBatch float64 `json:"dedupe_seconds_per_batch"`

	NoDedupeBoxesRebuilt    int     `json:"nodedupe_boxes_rebuilt"`
	NoDedupeSecondsPerBatch float64 `json:"nodedupe_seconds_per_batch"`

	// Speedup is NoDedupe/dedupe wall time per batch: ~k/d when repair
	// dominates the batch.
	Speedup float64 `json:"speedup"`
}

// MultiQueryBaseline is the machine-readable output of the multi-query
// experiment (written by cmd/benchtables as BENCH_multiquery.json), the
// perf trajectory anchor for the QuerySet engine. Points is the
// distinct-query scaling sweep (shared QuerySet vs k independent
// engines); DuplicatePoints is the duplicate-heavy sweep (pipeline
// dedupe vs NoDedupe on one QuerySet).
type MultiQueryBaseline struct {
	TreeNodes int `json:"tree_nodes"`
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	Env
	QuerySpecs      []string                   `json:"query_specs"`
	Points          []MultiQueryPoint          `json:"points"`
	DuplicatePoints []DuplicateMultiQueryPoint `json:"duplicate_points"`
}

// standingQueries returns the k distinct standing queries of the
// experiment, with their specs, over the workload alphabet {a, b, c}.
func standingQueries() ([]string, []*tva.Unranked) {
	alpha := []tree.Label{"a", "b", "c"}
	specs := []string{
		"select:a", "select:b", "select:c",
		"ancestor", "descdepth:b:2", "descdepth:c:3",
		"path://a/b", "path://b/c",
	}
	qs := []*tva.Unranked{
		tva.SelectLabel(alpha, "a", 0),
		tva.SelectLabel(alpha, "b", 0),
		tva.SelectLabel(alpha, "c", 0),
		workload.AncestorQuery(),
		tva.DescendantAtDepth(alpha, "b", 2, 0),
		tva.DescendantAtDepth(alpha, "c", 3, 0),
		paths.MustCompile("//a/b", alpha, 0),
		paths.MustCompile("//b/c", alpha, 0),
	}
	return specs, qs
}

// makeBatch draws one always-valid batch against the current tree state:
// homogeneous per round (relabels, inserts, or deletes of distinct
// leaves), like the engine stress writer, so it cannot fail halfway. The
// same rng state over identical trees yields identical batches, which is
// what lets the shared and independent runs replay one stream.
func makeBatch(t *tree.Unranked, size int, rng *rand.Rand) []engine.Update {
	labels := []tree.Label{"a", "b", "c"}
	nodes := t.Nodes()
	var batch []engine.Update
	switch rng.Intn(3) {
	case 0: // relabels
		for j := 0; j < size; j++ {
			n := nodes[rng.Intn(len(nodes))]
			batch = append(batch, engine.Update{Op: engine.OpRelabel, Node: n.ID, Label: labels[rng.Intn(3)]})
		}
	case 1: // inserts (first child and right sibling mixed)
		for j := 0; j < size; j++ {
			n := nodes[rng.Intn(len(nodes))]
			if n.Parent != nil && rng.Intn(2) == 0 {
				batch = append(batch, engine.Update{Op: engine.OpInsertRightSibling, Node: n.ID, Label: labels[rng.Intn(3)]})
			} else {
				batch = append(batch, engine.Update{Op: engine.OpInsertFirstChild, Node: n.ID, Label: labels[rng.Intn(3)]})
			}
		}
	default: // deletes of distinct leaves (tree stays nonempty)
		var leaves []tree.NodeID
		for _, n := range nodes {
			if n.IsLeaf() && n.Parent != nil {
				leaves = append(leaves, n.ID)
			}
		}
		rng.Shuffle(len(leaves), func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })
		for j := 0; j < size && j < len(leaves); j++ {
			batch = append(batch, engine.Update{Op: engine.OpDelete, Node: leaves[j]})
		}
		if len(batch) == 0 {
			batch = append(batch, engine.Update{Op: engine.OpRelabel, Node: t.Root.ID, Label: labels[rng.Intn(3)]})
		}
	}
	return batch
}

// MultiQuery measures k ∈ {1, 2, 4, 8} standing queries under one
// update stream of batched edits: a shared QuerySet (one term, k
// pipelines) against k independent engines (k terms). The term work —
// path copies and scapegoat rebalances — must be flat in k on the shared
// side and k× on the independent side; wall time per batch grows far
// slower than k× on the shared side because only box repair fans out.
//
// It then runs the duplicate-heavy sweep: k ∈ {d, 2d, 4d} registrations
// round-robin over the d distinct specs, the multi-query optimizer
// (pipeline dedupe) against NoDedupe, pinning that with dedupe the
// per-batch repair cost is governed by d, not k.
func MultiQuery(quick bool) MultiQueryBaseline {
	n, batches, size := 20000, 200, 6
	if quick {
		n, batches = 2000, 40
	}
	specs, queries := standingQueries()

	rng := rand.New(rand.NewSource(99))
	ut, err := workload.Tree(workload.ShapeRandom, n, rng)
	if err != nil {
		panic(err)
	}

	base := MultiQueryBaseline{
		TreeNodes:  n,
		Batches:    batches,
		BatchSize:  size,
		Env:        currentEnv(),
		QuerySpecs: specs,
	}
	for _, k := range []int{1, 2, 4, 8} {
		// Shared: ONE QuerySet with k standing queries.
		shared := engine.NewTreeSet(ut.Clone())
		for i := 0; i < k; i++ {
			if _, err := shared.Register(queries[i], engine.Options{}); err != nil {
				panic(err)
			}
		}
		// Independent: k single-query engines, each with its own term.
		indep := make([]*engine.TreeSet, k)
		for i := 0; i < k; i++ {
			indep[i] = newOneQuery(ut.Clone(), queries[i], engine.Options{}).TreeSet
		}

		// Counters are reported as update-phase deltas: subtract the
		// initial-build baselines captured here.
		sharedSt0 := shared.Stats()
		var indepPC0, indepRB0, indepBX0 int
		for _, e := range indep {
			st := e.Stats()
			indepPC0 += st.PathCopies
			indepRB0 += st.Rebalances
			indepBX0 += st.BoxesRebuilt
		}

		// One update stream, replayed on every engine: the batch is drawn
		// from the shared tree's state, and since every engine's tree
		// evolves identically (same edits, deterministic IDs) it is valid
		// on all of them.
		brng := rand.New(rand.NewSource(7))
		var sharedTime, indepTime time.Duration
		for b := 0; b < batches; b++ {
			batch := makeBatch(shared.Tree(), size, brng)
			t0 := time.Now()
			if _, _, err := shared.ApplyBatch(batch); err != nil {
				panic(err)
			}
			sharedTime += time.Since(t0)
			t0 = time.Now()
			for _, e := range indep {
				if _, _, err := e.ApplyBatch(batch); err != nil {
					panic(err)
				}
			}
			indepTime += time.Since(t0)
		}

		sharedSt := shared.Stats()
		p := MultiQueryPoint{
			Queries:            k,
			SharedPathCopies:   sharedSt.PathCopies - sharedSt0.PathCopies,
			SharedRebalances:   sharedSt.Rebalances - sharedSt0.Rebalances,
			SharedBoxesRebuilt: sharedSt.BoxesRebuilt - sharedSt0.BoxesRebuilt,
		}
		for _, e := range indep {
			st := e.Stats()
			p.IndepPathCopies += st.PathCopies
			p.IndepRebalances += st.Rebalances
			p.IndepBoxesRebuilt += st.BoxesRebuilt
		}
		p.IndepPathCopies -= indepPC0
		p.IndepRebalances -= indepRB0
		p.IndepBoxesRebuilt -= indepBX0
		p.SharedSecondsPerBatch = sharedTime.Seconds() / float64(batches)
		p.IndepSecondsPerBatch = indepTime.Seconds() / float64(batches)
		p.TermWorkRatio = float64(p.IndepPathCopies) / float64(p.SharedPathCopies)
		p.Speedup = p.IndepSecondsPerBatch / p.SharedSecondsPerBatch
		base.Points = append(base.Points, p)
	}

	// Duplicate-heavy workload: k registrations round-robin over the d
	// distinct specs, multi-query optimizer on vs NoDedupe. The k=d row
	// is the flat-cost reference: with dedupe, every k > d row must pay
	// the same per-batch repair (boxes rebuilt tracks d, not k).
	d := len(queries)
	for _, k := range []int{d, 2 * d, 4 * d} {
		dedupe := engine.NewTreeSet(ut.Clone())
		plain := engine.NewTreeSet(ut.Clone())
		for i := 0; i < k; i++ {
			if _, err := dedupe.Register(queries[i%d], engine.Options{}); err != nil {
				panic(err)
			}
			if _, err := plain.Register(queries[i%d], engine.Options{NoDedupe: true}); err != nil {
				panic(err)
			}
		}
		dst0, pst0 := dedupe.Stats(), plain.Stats()

		brng := rand.New(rand.NewSource(7))
		var dTime, pTime time.Duration
		for b := 0; b < batches; b++ {
			batch := makeBatch(dedupe.Tree(), size, brng)
			t0 := time.Now()
			if _, _, err := dedupe.ApplyBatch(batch); err != nil {
				panic(err)
			}
			dTime += time.Since(t0)
			t0 = time.Now()
			if _, _, err := plain.ApplyBatch(batch); err != nil {
				panic(err)
			}
			pTime += time.Since(t0)
		}

		dst, pst := dedupe.Stats(), plain.Stats()
		dp := DuplicateMultiQueryPoint{
			Registrations:           k,
			DistinctSpecs:           d,
			Pipelines:               dst.Pipelines,
			RegistrationsDeduped:    dst.RegistrationsDeduped,
			DedupeBoxesRebuilt:      dst.BoxesRebuilt - dst0.BoxesRebuilt,
			NoDedupeBoxesRebuilt:    pst.BoxesRebuilt - pst0.BoxesRebuilt,
			DedupeSecondsPerBatch:   dTime.Seconds() / float64(batches),
			NoDedupeSecondsPerBatch: pTime.Seconds() / float64(batches),
		}
		dp.Speedup = dp.NoDedupeSecondsPerBatch / dp.DedupeSecondsPerBatch
		base.DuplicatePoints = append(base.DuplicatePoints, dp)
	}
	return base
}

// Table renders the baseline as a markdown table for the benchtables
// output.
func (b MultiQueryBaseline) Table() Table {
	t := Table{
		ID:     "C2",
		Title:  "k standing queries under one update stream: shared QuerySet vs k engines",
		Claim:  fmt.Sprintf("the QuerySet pays the term work once — path copies and rebalances flat in k — while k independent engines pay it k× (%d batches of %d edits, %d-node tree)", b.Batches, b.BatchSize, b.TreeNodes),
		Header: []string{"queries", "path copies (shared)", "path copies (k engines)", "rebalances (shared/k engines)", "boxes rebuilt (shared/k engines)", "µs/batch (shared)", "µs/batch (k engines)", "speedup"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Queries),
			fmt.Sprint(p.SharedPathCopies),
			fmt.Sprint(p.IndepPathCopies),
			fmt.Sprintf("%d / %d", p.SharedRebalances, p.IndepRebalances),
			fmt.Sprintf("%d / %d", p.SharedBoxesRebuilt, p.IndepBoxesRebuilt),
			fmt.Sprintf("%.0f", p.SharedSecondsPerBatch*1e6),
			fmt.Sprintf("%.0f", p.IndepSecondsPerBatch*1e6),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return t
}

// DuplicateTable renders the duplicate-heavy sweep as a markdown table
// for the benchtables output.
func (b MultiQueryBaseline) DuplicateTable() Table {
	t := Table{
		ID:     "C2-dup",
		Title:  "k duplicate registrations over d distinct queries: pipeline dedupe vs NoDedupe",
		Claim:  fmt.Sprintf("the multi-query optimizer dedupes content-equal automata onto refcounted shared pipelines, so per-batch repair tracks the d distinct specs, not the k registrations (%d batches of %d edits, %d-node tree)", b.Batches, b.BatchSize, b.TreeNodes),
		Header: []string{"registrations", "distinct", "pipelines", "deduped", "boxes rebuilt (dedupe/NoDedupe)", "µs/batch (dedupe)", "µs/batch (NoDedupe)", "speedup"},
	}
	for _, p := range b.DuplicatePoints {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Registrations),
			fmt.Sprint(p.DistinctSpecs),
			fmt.Sprint(p.Pipelines),
			fmt.Sprint(p.RegistrationsDeduped),
			fmt.Sprintf("%d / %d", p.DedupeBoxesRebuilt, p.NoDedupeBoxesRebuilt),
			fmt.Sprintf("%.0f", p.DedupeSecondsPerBatch*1e6),
			fmt.Sprintf("%.0f", p.NoDedupeSecondsPerBatch*1e6),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return t
}
