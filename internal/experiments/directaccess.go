package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// DirectAccessPoint is one row of the direct-access baseline: Count and
// At(j) latency on one answer-set size, engine (semiring count +
// count-guided descent) vs the drain baseline (enumerate and discard).
type DirectAccessPoint struct {
	TreeNodes     int     `json:"tree_nodes"`
	Answers       int     `json:"answers"`
	CountDirectNs float64 `json:"count_direct_ns"` // Snapshot.Count, fast path
	CountDrainNs  float64 `json:"count_drain_ns"`  // full enumeration count
	AtDirectNs    float64 `json:"at_direct_ns"`    // Snapshot.At(answers/2), descent
	AtDrainNs     float64 `json:"at_drain_ns"`     // enumerate to rank answers/2
	PageDirectNs  float64 `json:"page_direct_ns"`  // Snapshot.Page(answers/2, 16)
	CountSpeedup  float64 `json:"count_speedup"`
	AtSpeedup     float64 `json:"at_speedup"`
}

// DirectAccessBaseline is the machine-readable output of the
// direct-access experiment (written by cmd/benchtables as
// BENCH_directaccess.json): the claim is that the direct columns stay
// flat while the drain columns grow linearly with the answer count.
type DirectAccessBaseline struct {
	Query  string              `json:"query"`
	Points []DirectAccessPoint `json:"points"`
}

// DirectAccess measures Count and At(j) latency against the answer-set
// size. The standing query selects every b-node of a random tree, so
// the answer count grows linearly with the tree; before measuring, a
// batch of random edits runs through the engine so the counts being
// read are maintained ones (trunk-repaired), not a fresh build.
func DirectAccess(quick bool) DirectAccessBaseline {
	sizes := sizesFor(quick, []int{4000, 16000, 64000})
	reps := 200
	if quick {
		reps = 50
	}
	base := DirectAccessBaseline{Query: "select:b (unambiguous; DirectAccess fast path)"}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(42))
		ut, err := workload.Tree(workload.ShapeRandom, n, rng)
		if err != nil {
			panic(err)
		}
		q := tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0)
		eng := newOneQuery(ut, q, engine.Options{})
		// Exercise the maintenance path before measuring.
		ed := workload.NewEditor(eng, rand.New(rand.NewSource(43)))
		for i := 0; i < 64; i++ {
			if err := ed.Step(); err != nil {
				panic(err)
			}
		}
		s := eng.snap()
		if !s.DirectAccess() {
			panic("direct-access experiment query must be unambiguous")
		}

		answers := 0
		for range s.Results() {
			answers++
		}
		mid := answers / 2

		p := DirectAccessPoint{TreeNodes: n, Answers: answers}
		p.CountDirectNs = medianNs(reps, func() {
			if s.Count() != answers {
				panic("direct count diverged")
			}
		})
		p.CountDrainNs = medianNs(3, func() {
			c := 0
			for range s.Results() {
				c++
			}
			if c != answers {
				panic("drain count diverged")
			}
		})
		p.AtDirectNs = medianNs(reps, func() {
			if _, err := s.At(mid); err != nil {
				panic(err)
			}
		})
		p.AtDrainNs = medianNs(3, func() {
			i := 0
			for range s.Results() {
				if i == mid {
					break
				}
				i++
			}
		})
		p.PageDirectNs = medianNs(reps/4+1, func() {
			if got := s.Page(mid, 16); len(got) == 0 {
				panic("empty page")
			}
		})
		p.CountSpeedup = p.CountDrainNs / p.CountDirectNs
		p.AtSpeedup = p.AtDrainNs / p.AtDirectNs
		base.Points = append(base.Points, p)
	}
	return base
}

// Table renders the baseline for the benchtables output.
func (b DirectAccessBaseline) Table() Table {
	t := Table{
		ID:     "D1",
		Title:  "Direct access: Count and At(j) vs answer-set size",
		Claim:  "semiring Count and count-guided At(j) are independent of the answer count; the drain baseline grows linearly",
		Header: []string{"nodes", "answers", "Count direct", "Count drain", "At(mid) direct", "At(mid) drain", "Page(mid,16)", "Count speedup", "At speedup"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.TreeNodes),
			fmt.Sprint(p.Answers),
			dur(time.Duration(p.CountDirectNs)),
			dur(time.Duration(p.CountDrainNs)),
			dur(time.Duration(p.AtDirectNs)),
			dur(time.Duration(p.AtDrainNs)),
			dur(time.Duration(p.PageDirectNs)),
			fmt.Sprintf("%.0fx", p.CountSpeedup),
			fmt.Sprintf("%.0fx", p.AtSpeedup),
		})
	}
	return t
}
