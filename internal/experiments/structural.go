package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/workload"
)

// StructuralMovePoint is one row of the subtree-move sweep: one tree
// size, one moved-subtree size, per-move cost and accounting deltas.
// The claim is that MoveNs and FreshTrunk stay within the O(log n +
// boundary) envelope while BoxesReused grows linearly with the moved
// subtree — the repair never touches the inside of the moved piece.
type StructuralMovePoint struct {
	TreeNodes   int     `json:"tree_nodes"`
	SubtreeSize int     `json:"subtree_size"`
	MoveNs      float64 `json:"move_ns"`      // median per-move publish latency
	FreshTrunk  float64 `json:"fresh_trunk"`  // path-copied term nodes per move
	BoxesReused float64 `json:"boxes_reused"` // frozen units credited per move
	Rebalances  int     `json:"rebalances"`   // scapegoat rebuilds over the sweep
}

// StructuralBulkPoint compares BulkLoad (one O(n) balanced build) with n
// sequential inserts (n trunk repairs) producing the same document.
type StructuralBulkPoint struct {
	Nodes        int     `json:"nodes"`
	BulkLoadNs   float64 `json:"bulk_load_ns"`
	SequentialNs float64 `json:"sequential_ns"`
	Speedup      float64 `json:"speedup"`
}

// StructuralMixPoint is one row of the weighted structural workload: a
// standing query maintained under the DefaultStructuralWeights mix,
// reporting per-edit publish latency and rebalance frequency.
type StructuralMixPoint struct {
	TreeNodes     int     `json:"tree_nodes"`
	Edits         int     `json:"edits"`
	PerEditNs     float64 `json:"per_edit_ns"` // median publish latency
	P95EditNs     float64 `json:"p95_edit_ns"`
	Rebalances    int     `json:"rebalances"`
	RebalanceFreq float64 `json:"rebalance_freq"` // rebuilds per edit
	BoxesReused   int     `json:"boxes_reused"`   // cumulative over the run
	Structural    int     `json:"structural"`     // realized subtree edits
	Leaf          int     `json:"leaf"`           // realized leaf edits
}

// StructuralBaseline is the machine-readable output of experiment
// E-struct (written by cmd/benchtables as BENCH_structural.json).
type StructuralBaseline struct {
	Query string `json:"query"`
	Env
	Moves []StructuralMovePoint `json:"moves"`
	Bulk  []StructuralBulkPoint `json:"bulk"`
	Mix   []StructuralMixPoint  `json:"mix"`
}

// structuralMoveTree builds the move-sweep document: a root with two
// stable destination children d1, d2, a filler subtree of ~n-m nodes,
// and an m-node subtree grafted under d1 — the piece the sweep shuttles
// between d1 and d2.
func structuralMoveTree(n, m int, rng *rand.Rand) (*tree.Unranked, tree.NodeID, tree.NodeID, tree.NodeID) {
	t := tree.NewUnranked("a")
	d1, err := t.InsertFirstChild(t.Root.ID, "b")
	if err != nil {
		panic(err)
	}
	d2, err := t.InsertRightSibling(d1.ID, "c")
	if err != nil {
		panic(err)
	}
	filler, err := t.InsertRightSibling(d2.ID, "a")
	if err != nil {
		panic(err)
	}
	ids := []tree.NodeID{filler.ID}
	for t.Size() < n-m {
		parent := ids[rng.Intn(len(ids))]
		v, err := t.InsertFirstChild(parent, pickLabel(rng))
		if err != nil {
			panic(err)
		}
		ids = append(ids, v.ID)
	}
	frag := workload.RandomFragment(rng, m)
	sub, err := t.GraftFirstChild(d1.ID, frag)
	if err != nil {
		panic(err)
	}
	return t, sub.ID, d1.ID, d2.ID
}

func pickLabel(rng *rand.Rand) tree.Label {
	return []tree.Label{"a", "b", "c"}[rng.Intn(3)]
}

// Structural is experiment E-struct: per-edit cost of subtree moves vs
// the moved size, BulkLoad vs sequential construction, and a weighted
// structural workload with rebalance accounting.
func Structural(quick bool) StructuralBaseline {
	base := StructuralBaseline{
		Query: "markedAncestor (a over {a,b,c}; unambiguous)",
		Env:   currentEnv(),
	}

	// Move sweep: fixed tree, growing moved subtree. The per-move cost
	// must track the boundary (log n), not the moved size.
	n := 65536
	subSizes := []int{16, 256, 4096, 32768}
	moves := 64
	if quick {
		n = 16384
		subSizes = []int{16, 256, 4096}
		moves = 32
	}
	for _, m := range subSizes {
		rng := rand.New(rand.NewSource(71))
		t, sub, d1, d2 := structuralMoveTree(n, m, rng)
		eng := newOneQuery(t, workload.AncestorQuery(), engine.Options{})
		prev := eng.TreeSet.Stats()
		ds := make([]time.Duration, 0, moves)
		for i := 0; i < moves; i++ {
			dest := d2
			if i%2 == 1 {
				dest = d1
			}
			t0 := time.Now()
			if _, err := eng.Apply(engine.Update{Op: engine.OpMoveSubtreeFirstChild, Node: sub, Dest: dest}); err != nil {
				panic(err)
			}
			ds = append(ds, time.Since(t0))
		}
		cur := eng.TreeSet.Stats()
		base.Moves = append(base.Moves, StructuralMovePoint{
			TreeNodes:   n,
			SubtreeSize: m,
			MoveNs:      float64(median(ds).Nanoseconds()),
			FreshTrunk:  float64(cur.PathCopies-prev.PathCopies) / float64(moves),
			BoxesReused: float64(cur.BoxesReused-prev.BoxesReused) / float64(moves),
			Rebalances:  cur.Rebalances - prev.Rebalances,
		})
	}

	// BulkLoad vs sequential: the same random document built once by the
	// O(n) balanced pass and once by n incremental forest splices (each
	// draining its delta, as an engine consumer would).
	bulkSizes := sizesFor(quick, []int{10000, 100000, 400000})
	for _, bn := range bulkSizes {
		seq := func() (*tree.Unranked, time.Duration) {
			rng := rand.New(rand.NewSource(72))
			t := tree.NewUnranked("a")
			f := forest.New(t)
			f.DrainDelta()
			ids := []tree.NodeID{t.Root.ID}
			start := time.Now()
			for t.Size() < bn {
				parent := ids[rng.Intn(len(ids))]
				v, err := f.InsertFirstChild(parent, pickLabel(rng))
				if err != nil {
					panic(err)
				}
				f.DrainDelta()
				ids = append(ids, v)
			}
			return t, time.Since(start)
		}
		t, seqDur := seq()
		t0 := time.Now()
		f := forest.BulkLoad(t.Clone())
		f.DrainDelta()
		bulkDur := time.Since(t0)
		p := StructuralBulkPoint{
			Nodes:        bn,
			BulkLoadNs:   float64(bulkDur.Nanoseconds()),
			SequentialNs: float64(seqDur.Nanoseconds()),
		}
		p.Speedup = p.SequentialNs / p.BulkLoadNs
		base.Bulk = append(base.Bulk, p)
	}

	// Weighted structural mix: per-edit publish latency and rebalance
	// frequency under DefaultStructuralWeights.
	mixSizes := sizesFor(quick, []int{4000, 16000, 64000})
	edits := 400
	if quick {
		edits = 200
	}
	for _, mn := range mixSizes {
		rng := rand.New(rand.NewSource(73))
		ut, err := workload.Tree(workload.ShapeXMLish, mn, rng)
		if err != nil {
			panic(err)
		}
		relabelXMLish(ut) // the ancestor query runs over {a,b,c}
		eng := newOneQuery(ut, workload.AncestorQuery(), engine.Options{})
		prev := eng.TreeSet.Stats()
		ed := workload.NewStructuralEditor(eng, workload.DefaultStructuralWeights(), rng)
		ds := make([]time.Duration, 0, edits)
		for i := 0; i < edits; i++ {
			t0 := time.Now()
			if err := ed.Step(); err != nil {
				panic(err)
			}
			ds = append(ds, time.Since(t0))
		}
		cur := eng.TreeSet.Stats()
		structural := ed.Counts[workload.KindInsertSubtree] + ed.Counts[workload.KindDeleteSubtree] + ed.Counts[workload.KindMoveSubtree]
		leaf := ed.Counts[workload.KindRelabel] + ed.Counts[workload.KindInsertLeaf] + ed.Counts[workload.KindDeleteLeaf]
		base.Mix = append(base.Mix, StructuralMixPoint{
			TreeNodes:     mn,
			Edits:         edits,
			PerEditNs:     float64(median(ds).Nanoseconds()),
			P95EditNs:     float64(percentile(ds, 0.95).Nanoseconds()),
			Rebalances:    cur.Rebalances - prev.Rebalances,
			RebalanceFreq: float64(cur.Rebalances-prev.Rebalances) / float64(edits),
			BoxesReused:   cur.BoxesReused - prev.BoxesReused,
			Structural:    structural,
			Leaf:          leaf,
		})
	}
	return base
}

// relabelXMLish maps the xmlish document labels onto the ancestor
// query's {a, b, c} alphabet so the standing query has answers.
func relabelXMLish(t *tree.Unranked) {
	m := map[tree.Label]tree.Label{"doc": "a", "sec": "a", "par": "b", "fig": "c", "ref": "b"}
	for _, n := range t.Nodes() {
		if l, ok := m[n.Label]; ok {
			if err := t.Relabel(n.ID, l); err != nil {
				panic(err)
			}
		}
	}
}

// MoveTable renders the subtree-move sweep.
func (b StructuralBaseline) MoveTable() Table {
	t := Table{
		ID:     "S1",
		Title:  "Structural edits: subtree move cost vs moved size",
		Claim:  "moving an m-node subtree costs O(log n + boundary) — flat move latency and trunk footprint while the frozen-unit reuse grows with m",
		Header: []string{"nodes", "moved subtree", "move (median)", "fresh trunk/move", "boxes reused/move", "rebalances"},
	}
	for _, p := range b.Moves {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.TreeNodes),
			fmt.Sprint(p.SubtreeSize),
			dur(time.Duration(p.MoveNs)),
			fmt.Sprintf("%.1f", p.FreshTrunk),
			fmt.Sprintf("%.0f", p.BoxesReused),
			fmt.Sprint(p.Rebalances),
		})
	}
	return t
}

// BulkTable renders the BulkLoad comparison.
func (b StructuralBaseline) BulkTable() Table {
	t := Table{
		ID:     "S2",
		Title:  "BulkLoad vs sequential construction",
		Claim:  "one O(n) balanced build beats n incremental splices (≥5× at 100k nodes)",
		Header: []string{"nodes", "BulkLoad", "sequential inserts", "speedup"},
	}
	for _, p := range b.Bulk {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Nodes),
			dur(time.Duration(p.BulkLoadNs)),
			dur(time.Duration(p.SequentialNs)),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	return t
}

// MixTable renders the weighted structural workload.
func (b StructuralBaseline) MixTable() Table {
	t := Table{
		ID:     "S3",
		Title:  "Weighted structural workload: per-edit cost and rebalance frequency",
		Claim:  "under a half-structural edit mix the per-edit publish latency stays logarithmic and scapegoat rebuilds stay a small constant fraction of edits",
		Header: []string{"nodes", "edits", "per-edit (median)", "p95", "rebalances", "rebal/edit", "boxes reused", "structural", "leaf"},
	}
	for _, p := range b.Mix {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.TreeNodes),
			fmt.Sprint(p.Edits),
			dur(time.Duration(p.PerEditNs)),
			dur(time.Duration(p.P95EditNs)),
			fmt.Sprint(p.Rebalances),
			fmt.Sprintf("%.3f", p.RebalanceFreq),
			fmt.Sprint(p.BoxesReused),
			fmt.Sprint(p.Structural),
			fmt.Sprint(p.Leaf),
		})
	}
	return t
}
