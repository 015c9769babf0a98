package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// ParallelPoint is one row of the parallel-write-path experiment (C3):
// the per-edit publish latency of a QuerySet with k standing queries
// when the per-query repair is fanned out across w workers. The w=1
// rows are the serial baseline (the deterministic sequential path);
// Speedup is serial latency / this latency at the same k.
type ParallelPoint struct {
	Queries       int     `json:"queries"`
	Workers       int     `json:"workers"`
	MicrosPerEdit float64 `json:"micros_per_edit"` // median per-edit publish latency
	Speedup       float64 `json:"speedup_vs_serial"`
}

// ParallelBaseline is the machine-readable output of the parallel
// experiment (written by cmd/benchtables as BENCH_parallel.json). The
// claim is that per-query repair parallelizes: at k queries the publish
// latency with w workers approaches the k=1 latency times k/w, flat in
// the subscriber count once w matches the core count. CPUs and
// GoMaxProcs record the measurement environment — with a single
// available core the workers time-share and the speedup columns sit
// near 1×, so compare rows only within one environment.
type ParallelBaseline struct {
	TreeNodes int `json:"tree_nodes"`
	Edits     int `json:"edits"`
	Env
	Note       string          `json:"note,omitempty"`
	QuerySpecs []string        `json:"query_specs"`
	Points     []ParallelPoint `json:"points"`
}

// parallelQueries returns the pool of 16 distinct standing queries of
// the parallel experiment (the C2 pool of 8 plus 8 more path and
// descendant-depth variants), with their specs.
func parallelQueries() ([]string, []*tva.Unranked) {
	specs, qs := standingQueries()
	alpha := []tree.Label{"a", "b", "c"}
	more := []struct {
		spec string
		q    *tva.Unranked
	}{
		{"descdepth:a:2", tva.DescendantAtDepth(alpha, "a", 2, 0)},
		{"descdepth:a:3", tva.DescendantAtDepth(alpha, "a", 3, 0)},
		{"descdepth:b:3", tva.DescendantAtDepth(alpha, "b", 3, 0)},
		{"descdepth:c:2", tva.DescendantAtDepth(alpha, "c", 2, 0)},
		{"path://a/c", paths.MustCompile("//a/c", alpha, 0)},
		{"path://b/a", paths.MustCompile("//b/a", alpha, 0)},
		{"path://c/a", paths.MustCompile("//c/a", alpha, 0)},
		{"path://c/b", paths.MustCompile("//c/b", alpha, 0)},
	}
	for _, m := range more {
		specs = append(specs, m.spec)
		qs = append(qs, m.q)
	}
	return specs, qs
}

// Parallel measures per-edit publish latency against the number of
// standing queries k ∈ {1, 4, 16} and the worker-pool bound
// w ∈ {1, 4, 8}: one QuerySet per (k, w) cell, one relabel stream
// (single edits, so every edit is one publication), median latency over
// the stream. The k=1 cells pin that the sequential fallback keeps
// single-query latency flat regardless of w (the pool is never engaged
// for one pipeline).
func Parallel(quick bool) ParallelBaseline {
	n, edits := 20000, 400
	if quick {
		n, edits = 2000, 80
	}
	specs, queries := parallelQueries()

	rng := rand.New(rand.NewSource(131))
	ut, err := workload.Tree(workload.ShapeRandom, n, rng)
	if err != nil {
		panic(err)
	}

	base := ParallelBaseline{
		TreeNodes:  n,
		Edits:      edits,
		Env:        currentEnv(),
		QuerySpecs: specs,
	}
	if base.singleCore() {
		base.Note = "measured on a single available core: workers time-share, speedups near 1x are expected; " +
			"re-record on multi-core hardware for meaningful scaling numbers"
	}
	labels := []tree.Label{"a", "b", "c"}
	for _, k := range []int{1, 4, 16} {
		serial := 0.0
		for _, w := range []int{1, 4, 8} {
			qs := engine.NewTreeSet(ut.Clone())
			qs.SetWorkers(w)
			for i := 0; i < k; i++ {
				if _, err := qs.Register(queries[i], engine.Options{}); err != nil {
					panic(err)
				}
			}
			// Relabels keep the ID set stable: list the nodes once so the
			// measured latency is the publish path, not an O(n) scan.
			var ids []tree.NodeID
			for _, node := range qs.Tree().Nodes() {
				ids = append(ids, node.ID)
			}
			erng := rand.New(rand.NewSource(132))
			// Warm the maintenance path and level the GC state before
			// timing, so cells measured later (larger heap target, fewer
			// collections) don't look faster for reasons unrelated to the
			// worker pool.
			for i := 0; i < edits/4; i++ {
				if _, err := qs.Apply(engine.Update{Op: engine.OpRelabel, Node: ids[erng.Intn(len(ids))], Label: labels[erng.Intn(3)]}); err != nil {
					panic(err)
				}
			}
			runtime.GC()
			ds := make([]time.Duration, 0, edits)
			for i := 0; i < edits; i++ {
				id := ids[erng.Intn(len(ids))]
				l := labels[erng.Intn(3)]
				t0 := time.Now()
				if _, err := qs.Apply(engine.Update{Op: engine.OpRelabel, Node: id, Label: l}); err != nil {
					panic(err)
				}
				ds = append(ds, time.Since(t0))
			}
			p := ParallelPoint{
				Queries:       k,
				Workers:       w,
				MicrosPerEdit: float64(median(ds).Nanoseconds()) / 1e3,
			}
			if w == 1 {
				serial = p.MicrosPerEdit
			}
			p.Speedup = serial / p.MicrosPerEdit
			base.Points = append(base.Points, p)
		}
	}
	return base
}

// Table renders the baseline for the benchtables output.
func (b ParallelBaseline) Table() Table {
	t := Table{
		ID:    "C3",
		Title: "Parallel write path: per-edit publish latency vs standing queries and workers",
		Claim: fmt.Sprintf("per-query repair fans out across the worker pool, so publish latency at k queries approaches the serial latency ×k/workers on enough cores (%d-node tree, %d single relabels, measured on %d CPU(s))",
			b.TreeNodes, b.Edits, b.CPUs),
		Header: []string{"queries", "workers", "µs/edit (median)", "speedup vs serial"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Queries),
			fmt.Sprint(p.Workers),
			fmt.Sprintf("%.1f", p.MicrosPerEdit),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return t
}
