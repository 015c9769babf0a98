package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// EnumParallelPoint is one row of the parallel-enumeration experiment
// (E1-par): wall-clock of one full-result materialization through one
// read API at one worker count. Speedup is the sequential All()
// wall-clock over this row's.
type EnumParallelPoint struct {
	API         string  `json:"api"` // All | ParallelAll | Chunks
	Workers     int     `json:"workers"`
	MillisTotal float64 `json:"millis_total"` // median full materialization
	NsPerAnswer float64 `json:"ns_per_answer"`
	Speedup     float64 `json:"speedup_vs_all"`
}

// EnumParallelBaseline is the machine-readable output of the
// parallel-enumeration experiment (written by cmd/benchtables as
// BENCH_enum_parallel.json). The claim: direct access makes bulk
// enumeration embarrassingly parallel, so ParallelAll(w) materializes
// the full answer set ~w× faster than the sequential sweep on w free
// cores, and the streaming Chunks gather stays within a constant of
// ParallelAll. CPUs and GoMaxProcs record the measurement environment:
// on a single available core the workers time-share and every speedup
// column sits near 1× — the Note says so explicitly when that is the
// case, and the correctness of the parallel path is then carried by the
// differential suite (ParallelAll == All on every corpus entry), not by
// this table.
type EnumParallelBaseline struct {
	TreeNodes int `json:"tree_nodes"`
	Answers   int `json:"answers"`
	Env
	Note   string              `json:"note,omitempty"`
	Points []EnumParallelPoint `json:"points"`
}

// EnumParallel measures full-result materialization of a select query
// with ≥20k answers (full size) through All, ParallelAll(w) for
// w ∈ {1, 2, 4, 8}, and the order-preserving Chunks stream — median of
// several sweeps per cell, one engine and one pinned snapshot for all
// of them (reads are snapshot-isolated, so cells don't interact).
func EnumParallel(quick bool) EnumParallelBaseline {
	n := 70000 // ~n/3 b-nodes ⇒ >20k answers
	reps := 5
	if quick {
		n, reps = 7000, 3
	}
	rng := rand.New(rand.NewSource(151))
	ut, err := workload.Tree(workload.ShapeRandom, n, rng)
	if err != nil {
		panic(err)
	}
	e := newOneQuery(ut, tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0), engine.Options{})
	snap := e.snap()
	answers := snap.Count()

	base := EnumParallelBaseline{
		TreeNodes: n,
		Answers:   answers,
		Env:       currentEnv(),
	}
	if base.singleCore() {
		base.Note = "measured on a single available core: workers time-share, speedups near 1x are expected; " +
			"the parallel path's engagement and exactness are proven by the differential suite " +
			"(TestParallelAllMatchesSequential), not by this table"
	}

	measure := func(sweep func()) float64 {
		sweep() // warm: slabs, GC state
		runtime.GC()
		return medianNs(reps, sweep)
	}
	record := func(api string, workers int, ns, allNs float64) {
		base.Points = append(base.Points, EnumParallelPoint{
			API:         api,
			Workers:     workers,
			MillisTotal: ns / 1e6,
			NsPerAnswer: ns / float64(max(answers, 1)),
			Speedup:     allNs / ns,
		})
	}

	allNs := measure(func() { snap.All() })
	record("All", 1, allNs, allNs)
	for _, w := range []int{1, 2, 4, 8} {
		ns := measure(func() { snap.ParallelAll(w) })
		record("ParallelAll", w, ns, allNs)
	}
	for _, w := range []int{4} {
		ns := measure(func() {
			for range snap.Chunks(w, 512) {
			}
		})
		record("Chunks", w, ns, allNs)
	}
	return base
}

// Table renders the baseline for the benchtables output.
func (b EnumParallelBaseline) Table() Table {
	t := Table{
		ID:    "E1-par",
		Title: "Parallel enumeration: full-result materialization vs workers",
		Claim: fmt.Sprintf("rank-partitioned drains split [0, Count()) into per-worker slices, each one seek plus a stream, so full materialization of %d answers scales with free cores (%d-node tree, measured on %d CPU(s), GOMAXPROCS %d)",
			b.Answers, b.TreeNodes, b.CPUs, b.GoMaxProcs),
		Header: []string{"api", "workers", "ms total (median)", "ns/answer", "speedup vs All"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			p.API,
			fmt.Sprint(p.Workers),
			fmt.Sprintf("%.1f", p.MillisTotal),
			fmt.Sprintf("%.0f", p.NsPerAnswer),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return t
}
