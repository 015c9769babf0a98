package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// This file is experiment B1: build and repair throughput of the circuit
// construction hot path (circuit.Builder.LeafBox/InnerBox plus the
// engine's trunk repair around them). It is the measurement behind the
// zero-allocation box construction and signature-pruned repair work:
// boxes/s at preprocessing, and ns + allocations per single-relabel
// publication on an E4-style update stream, with and without the
// signature-pruning fast path, plus a relabel-neutral stream (labels the
// query does not distinguish) where pruning should collapse repair to
// O(1) boxes. `benchtables -only B1 -json DIR` writes the JSON baseline
// (DIR/BENCH_build.json); -buildref embeds a previous run as the
// comparison reference with computed speedups.

// BuildRepairPoint is one repair row of the B1 experiment: an update
// workload replayed through a single-query engine, single edits (one
// publication per edit), cumulative counters divided by the edit count.
type BuildRepairPoint struct {
	// Workload names the edit stream: "relabel" draws node and new label
	// uniformly (the E4-style mixed stream of the acceptance criterion);
	// "relabel-neutral" draws only nodes and labels the standing query
	// does not distinguish (non-b nodes relabeled within {a, c}), so
	// gamma shape never changes and signature-pruned repair reuses the
	// whole trunk on every edit.
	Workload string `json:"workload"`
	// FullRebuild marks the comparison rows measured with
	// engine.Options{FullRebuild: true} (signature pruning disabled).
	FullRebuild bool `json:"full_rebuild"`

	NanosPerEdit  float64 `json:"nanos_per_edit"`  // mean wall time per publication
	AllocsPerEdit float64 `json:"allocs_per_edit"` // mean heap allocations per publication
	BoxesPerEdit  float64 `json:"boxes_per_edit"`  // mean trunk boxes rebuilt per publication
	ReusedPerEdit float64 `json:"reused_per_edit"` // mean trunk boxes reused per publication
}

// BuildRun is one full B1 measurement on one binary: preprocessing
// throughput plus the repair workloads.
type BuildRun struct {
	// Boxes is the circuit size of the registered query (one box per
	// term node).
	Boxes int `json:"boxes"`
	// MillisPerBuild is the mean wall time of one full preprocessing
	// (term + boxes + index + counts for the standing query).
	MillisPerBuild float64 `json:"millis_per_build"`
	// BoxesPerSec is the resulting build throughput.
	BoxesPerSec float64 `json:"boxes_per_sec"`
	// BuildAllocsPerBox is the mean heap allocations per box during
	// preprocessing (the whole pipeline, so an upper bound on the
	// builder's own allocations).
	BuildAllocsPerBox float64 `json:"build_allocs_per_box"`

	Repairs []BuildRepairPoint `json:"repairs"`
}

// BuildBaseline is the machine-readable output of experiment B1 (written
// by cmd/benchtables as BENCH_build.json). Current is this binary's run;
// PrePR, when present, is the same measurement captured on the tree
// before the zero-allocation/pruning work (embedded via -buildref) — the
// acceptance criterion compares Current's "relabel" row against PrePR's.
type BuildBaseline struct {
	TreeNodes int `json:"tree_nodes"`
	Edits     int `json:"edits"`
	Builds    int `json:"builds"`
	Env
	QuerySpec string `json:"query_spec"`

	Current BuildRun  `json:"current"`
	PrePR   *BuildRun `json:"pre_pr,omitempty"`
}

// buildQuery is the B1 standing query: select all b-labeled nodes. It is
// direct-access capable, and it does not distinguish a from c — which is
// what makes the relabel-neutral stream neutral.
func buildQuery() (string, *tva.Unranked) {
	return "select:b", tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0)
}

// mallocs reads the cumulative heap-allocation counter (the same number
// testing.AllocsPerRun divides; a process-global counter, so the caller
// must be the only allocating goroutine for the delta to be meaningful).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Build runs experiment B1.
func Build(quick bool) BuildBaseline {
	n, edits, builds := 16000, 600, 5
	if quick {
		n, edits, builds = 2000, 120, 3
	}
	spec, q := buildQuery()
	rng := rand.New(rand.NewSource(151))
	ut, err := workload.Tree(workload.ShapeRandom, n, rng)
	if err != nil {
		panic(err)
	}

	base := BuildBaseline{
		TreeNodes: n,
		Edits:     edits,
		Builds:    builds,
		Env:       currentEnv(),
		QuerySpec: spec,
	}

	// Preprocessing throughput: full pipeline builds, mean over `builds`
	// runs (the first run warms the program cache; measuring the steady
	// state is the point, since one engine registers many queries and
	// many engines share one automaton).
	var buildNanos, buildAllocs float64
	var boxes int
	for i := 0; i < builds+1; i++ {
		runtime.GC()
		a0 := mallocs()
		t0 := time.Now()
		eng := newOneQuery(ut.Clone(), q, engine.Options{})
		dt := time.Since(t0)
		da := mallocs() - a0
		if i == 0 {
			continue // warm-up: program compile, page faults
		}
		buildNanos += float64(dt.Nanoseconds())
		buildAllocs += float64(da)
		boxes = eng.snap().Stats().Boxes
	}
	buildNanos /= float64(builds)
	buildAllocs /= float64(builds)
	base.Current = BuildRun{
		Boxes:             boxes,
		MillisPerBuild:    buildNanos / 1e6,
		BoxesPerSec:       float64(boxes) / (buildNanos / 1e9),
		BuildAllocsPerBox: buildAllocs / float64(boxes),
	}

	for _, w := range []struct {
		name        string
		labels      []tree.Label
		fullRebuild bool
	}{
		{"relabel", []tree.Label{"a", "b", "c"}, false},
		{"relabel", []tree.Label{"a", "b", "c"}, true},
		{"relabel-neutral", []tree.Label{"a", "c"}, false},
		{"relabel-neutral", []tree.Label{"a", "c"}, true},
	} {
		base.Current.Repairs = append(base.Current.Repairs,
			measureRepair(ut, q, w.name, w.labels, w.fullRebuild, edits))
	}
	return base
}

// measureRepair replays a single-relabel stream and reports per-edit
// means. The stream draws from its own fixed seed so every row edits the
// same (node, label) sequence up to the label pool.
func measureRepair(ut *tree.Unranked, q *tva.Unranked, name string, labels []tree.Label, fullRebuild bool, edits int) BuildRepairPoint {
	eng := newOneQuery(ut.Clone(), q, engine.Options{FullRebuild: fullRebuild})
	neutral := name == "relabel-neutral"
	var ids []tree.NodeID
	for _, node := range eng.Tree().Nodes() {
		if neutral && node.Label == "b" {
			continue // the neutral stream never touches query-visible nodes
		}
		ids = append(ids, node.ID)
	}
	erng := rand.New(rand.NewSource(152))
	step := func() {
		if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: ids[erng.Intn(len(ids))], Label: labels[erng.Intn(len(labels))]}); err != nil {
			panic(err)
		}
	}
	// Warm the repair path (and, for the neutral stream, settle every
	// touched node onto a label from the neutral pool) before timing.
	for i := 0; i < edits/4; i++ {
		step()
	}
	runtime.GC()
	st0 := eng.TreeSet.Stats()
	a0 := mallocs()
	t0 := time.Now()
	for i := 0; i < edits; i++ {
		step()
	}
	dt := time.Since(t0)
	da := mallocs() - a0
	st1 := eng.TreeSet.Stats()
	return BuildRepairPoint{
		Workload:      name,
		FullRebuild:   fullRebuild,
		NanosPerEdit:  float64(dt.Nanoseconds()) / float64(edits),
		AllocsPerEdit: float64(da) / float64(edits),
		BoxesPerEdit:  float64(st1.BoxesRebuilt-st0.BoxesRebuilt) / float64(edits),
		ReusedPerEdit: float64(st1.BoxesReused-st0.BoxesReused) / float64(edits),
	}
}

// Table renders the baseline for the benchtables output.
func (b BuildBaseline) Table() Table {
	t := Table{
		ID:    "B1",
		Title: "Box construction and trunk repair: build throughput, per-update cost",
		Claim: fmt.Sprintf("precompiled transition programs + the builder scratch arena make box construction allocation-light, and signature-pruned repair reuses trunk boxes whose gamma shape is unchanged (%d-node tree, query %s, %d single relabels per row, measured on %d CPU(s))",
			b.TreeNodes, b.QuerySpec, b.Edits, b.CPUs),
		Header: []string{"row", "ns/edit", "allocs/edit", "boxes rebuilt/edit", "boxes reused/edit"},
	}
	row := func(tag string, r BuildRun) {
		t.Rows = append(t.Rows, []string{
			tag + " build",
			fmt.Sprintf("%.2f ms (%d boxes, %.0f boxes/s)", r.MillisPerBuild, r.Boxes, r.BoxesPerSec),
			fmt.Sprintf("%.1f allocs/box", r.BuildAllocsPerBox),
			"—", "—",
		})
		for _, p := range r.Repairs {
			label := tag + " " + p.Workload
			if p.FullRebuild {
				label += " (full rebuild)"
			}
			t.Rows = append(t.Rows, []string{
				label,
				fmt.Sprintf("%.0f", p.NanosPerEdit),
				fmt.Sprintf("%.1f", p.AllocsPerEdit),
				fmt.Sprintf("%.1f", p.BoxesPerEdit),
				fmt.Sprintf("%.1f", p.ReusedPerEdit),
			})
		}
	}
	row("current", b.Current)
	if b.PrePR != nil {
		row("pre-PR", *b.PrePR)
		if cur, pre := findRepair(b.Current, "relabel", false), findRepair(*b.PrePR, "relabel", false); cur != nil && pre != nil {
			t.Rows = append(t.Rows, []string{
				"speedup (relabel, pruned vs pre-PR)",
				fmt.Sprintf("%.2fx", pre.NanosPerEdit/cur.NanosPerEdit),
				fmt.Sprintf("%.2fx", pre.AllocsPerEdit/cur.AllocsPerEdit),
				"—", "—",
			})
		}
	}
	return t
}

// findRepair returns the run's repair row for (workload, fullRebuild),
// or nil.
func findRepair(r BuildRun, workload string, fullRebuild bool) *BuildRepairPoint {
	for i := range r.Repairs {
		if r.Repairs[i].Workload == workload && r.Repairs[i].FullRebuild == fullRebuild {
			return &r.Repairs[i]
		}
	}
	return nil
}
