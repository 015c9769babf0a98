package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/workload"
)

// This file is experiment E-kernel: the vectorized bitset kernel layer
// (AVX2/POPCNT dispatch in internal/bitset) measured at two levels on
// ONE binary, using bitset.ForceGeneric to flip between the dispatched
// vector kernels and the portable Go loops:
//
//   - kernel level: ns/op of the flat word kernels (Set.Or,
//     Matrix.Count, ComposeInto) across operand widths, vector vs
//     purego — the direct SIMD effect, which unlike multicore speedups
//     is honestly measurable on a 1-CPU host;
//   - end-to-end: B1-style repair ns/edit and a full answer drain
//     ns/answer, vector vs purego — how much of the pipeline the
//     kernels actually carry.
//
// The committed baseline (BENCH_kernels.json, written by
// `benchtables -only E-kernel -json DIR`) records the CPU feature flags
// alongside the numbers: on a host without AVX2 the two paths coincide,
// speedups sit at ~1.0, and the JSON says so via kernels.avx2=false
// rather than pretending.
// CI bounds (when avx2 is true) require ≥1.5x on the multi-word
// orWords and composeInto points.

// KernelPoint is one kernel-level row: the same operation timed on the
// vector path and the forced-generic path.
type KernelPoint struct {
	// Kernel names the operation: "orWords", "count", "composeInto".
	Kernel string `json:"kernel"`
	// Words is the operand width in 64-bit words (for composeInto, the
	// words per destination row — the vectorized accumulation axis).
	Words    int     `json:"words"`
	VectorNs float64 `json:"vector_ns"`
	PureGoNs float64 `json:"purego_ns"`
	Speedup  float64 `json:"speedup"`
}

// KernelEndToEnd is one pipeline-level comparison row.
type KernelEndToEnd struct {
	// Metric names the unit: "ns/edit" (repair) or "ns/answer" (drain).
	Metric   string  `json:"metric"`
	VectorNs float64 `json:"vector_ns"`
	PureGoNs float64 `json:"purego_ns"`
	Speedup  float64 `json:"speedup"`
}

// KernelsBaseline is the machine-readable output of experiment E-kernel
// (written by cmd/benchtables as BENCH_kernels.json).
type KernelsBaseline struct {
	Env
	TreeNodes int    `json:"tree_nodes"`
	Edits     int    `json:"edits"`
	QuerySpec string `json:"query_spec"`
	// Kernels records what this binary detected and dispatched — the
	// feature flags that make the speedup numbers interpretable.
	Kernels bitset.KernelInfo `json:"kernels"`

	Points []KernelPoint  `json:"points"`
	Repair KernelEndToEnd `json:"repair"`
	Drain  KernelEndToEnd `json:"drain"`
}

// timeOp returns mean ns/op of f over iters runs (after one warm-up).
func timeOp(iters int, f func()) float64 {
	f()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// bothPaths times f on the live (vector) path and under ForceGeneric.
func bothPaths(iters int, f func()) (vec, gen float64) {
	vec = timeOp(iters, f)
	restore := bitset.ForceGeneric()
	gen = timeOp(iters, f)
	restore()
	return vec, gen
}

func speedup(vec, gen float64) float64 {
	if vec <= 0 {
		return 0
	}
	return gen / vec
}

// Kernels runs experiment E-kernel.
func Kernels(quick bool) KernelsBaseline {
	n, edits := 8000, 400
	setIters, composeIters := 2_000_000, 30_000
	if quick {
		n, edits = 1500, 100
		setIters, composeIters = 100_000, 2_000
	}
	spec, q := buildQuery()
	base := KernelsBaseline{
		Env:       currentEnv(),
		TreeNodes: n,
		Edits:     edits,
		QuerySpec: spec,
		Kernels:   bitset.Kernels(),
	}
	rng := rand.New(rand.NewSource(171))

	// Kernel level. Operands are built once outside the timed loops;
	// densities keep every iteration's work identical on both paths.
	for _, words := range []int{1, 16, 64} {
		nbits := words * 64
		dst, src := bitset.NewSet(nbits), bitset.NewSet(nbits)
		for i := 0; i < nbits; i++ {
			if rng.Intn(2) == 0 {
				src.Add(i)
			}
		}
		vec, gen := bothPaths(setIters, func() { dst.Or(src) })
		base.Points = append(base.Points, KernelPoint{
			Kernel: "orWords", Words: words,
			VectorNs: vec, PureGoNs: gen, Speedup: speedup(vec, gen),
		})
	}
	for _, words := range []int{16, 64} {
		m := randMatrixExp(rng, 64, words*64, 0.3)
		sink := 0
		vec, gen := bothPaths(setIters/words, func() { sink += m.Count() })
		_ = sink
		base.Points = append(base.Points, KernelPoint{
			Kernel: "count", Words: words,
			VectorNs: vec, PureGoNs: gen, Speedup: speedup(vec, gen),
		})
	}
	for _, words := range []int{1, 8} {
		cols := words * 64
		a := randMatrixExp(rng, 64, 64, 0.3)
		b := randMatrixExp(rng, 64, cols, 0.3)
		dst := bitset.NewMatrix(64, cols)
		vec, gen := bothPaths(composeIters, func() {
			for i := 0; i < 64; i++ {
				dst.Row(i).Clear()
			}
			bitset.ComposeInto(dst, a, b)
		})
		base.Points = append(base.Points, KernelPoint{
			Kernel: "composeInto", Words: words,
			VectorNs: vec, PureGoNs: gen, Speedup: speedup(vec, gen),
		})
	}

	// End to end. SetWorkers(1) keeps the engine single-goroutine, which
	// the ForceGeneric window requires (the dispatch flags are not
	// synchronized — see its doc comment).
	ut, err := workload.Tree(workload.ShapeRandom, n, rng)
	if err != nil {
		panic(err)
	}
	eng := newOneQuery(ut.Clone(), q, engine.Options{})
	eng.SetWorkers(1)
	labels := []tree.Label{"a", "b", "c"}
	var ids []tree.NodeID
	for _, node := range eng.Tree().Nodes() {
		ids = append(ids, node.ID)
	}
	erng := rand.New(rand.NewSource(172))
	repair := func() float64 {
		for i := 0; i < edits/4; i++ { // warm-up / settle
			if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: ids[erng.Intn(len(ids))], Label: labels[erng.Intn(len(labels))]}); err != nil {
				panic(err)
			}
		}
		t0 := time.Now()
		for i := 0; i < edits; i++ {
			if _, err := eng.Apply(engine.Update{Op: engine.OpRelabel, Node: ids[erng.Intn(len(ids))], Label: labels[erng.Intn(len(labels))]}); err != nil {
				panic(err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(edits)
	}
	vecRepair := repair()
	restore := bitset.ForceGeneric()
	genRepair := repair()
	restore()
	base.Repair = KernelEndToEnd{
		Metric: "ns/edit", VectorNs: vecRepair, PureGoNs: genRepair,
		Speedup: speedup(vecRepair, genRepair),
	}

	drain := func() float64 {
		snap := eng.snap()
		answers := 0
		t0 := time.Now()
		for range snap.Results() {
			answers++
		}
		if answers == 0 {
			return 0
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(answers)
	}
	drain() // warm-up
	vecDrain := drain()
	restore = bitset.ForceGeneric()
	genDrain := drain()
	restore()
	base.Drain = KernelEndToEnd{
		Metric: "ns/answer", VectorNs: vecDrain, PureGoNs: genDrain,
		Speedup: speedup(vecDrain, genDrain),
	}
	return base
}

// randMatrixExp fills a rows×cols matrix with density p (experiment
// operand construction; not in the timed loops).
func randMatrixExp(rng *rand.Rand, rows, cols int, p float64) bitset.Matrix {
	m := bitset.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < p {
				m.Set(i, j)
			}
		}
	}
	return m
}

// Table renders the baseline for the benchtables output.
func (b KernelsBaseline) Table() Table {
	t := Table{
		ID:    "E-kernel",
		Title: "Vectorized bitset kernels: SIMD dispatch vs portable Go loops",
		Claim: fmt.Sprintf("runtime-dispatched AVX2/POPCNT kernels accelerate the multi-word composition/reachability loops, falling back bit-for-bit to portable Go elsewhere (arch %s, avx2=%v, popcnt=%v, vector=%q, %d CPU(s), %d-node tree, query %s)",
			b.Kernels.Arch, b.Kernels.AVX2, b.Kernels.POPCNT, b.Kernels.Vector, b.CPUs, b.TreeNodes, b.QuerySpec),
		Header: []string{"kernel", "words", "vector ns/op", "purego ns/op", "speedup"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			p.Kernel,
			fmt.Sprintf("%d", p.Words),
			fmt.Sprintf("%.1f", p.VectorNs),
			fmt.Sprintf("%.1f", p.PureGoNs),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	t.Rows = append(t.Rows, []string{
		"repair (end-to-end)", "—",
		fmt.Sprintf("%.0f %s", b.Repair.VectorNs, b.Repair.Metric),
		fmt.Sprintf("%.0f", b.Repair.PureGoNs),
		fmt.Sprintf("%.2fx", b.Repair.Speedup),
	})
	t.Rows = append(t.Rows, []string{
		"drain (end-to-end)", "—",
		fmt.Sprintf("%.0f %s", b.Drain.VectorNs, b.Drain.Metric),
		fmt.Sprintf("%.0f", b.Drain.PureGoNs),
		fmt.Sprintf("%.2fx", b.Drain.Speedup),
	})
	return t
}
