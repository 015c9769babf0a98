// Package experiments implements the measurement harness: one function
// per experiment (indexed in DESIGN.md §5), each returning a table
// whose rows the paper's complexity claims predict the shape of, or a
// baseline value that renders its tables and is committed as
// BENCH_<name>.json. Registry lists them all; cmd/benchtables runs it.
package experiments

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/forest"
	"repro/internal/markedanc"
	"repro/internal/spanner"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim whose shape the rows must show
	Header []string
	Rows   [][]string
}

// Markdown renders the table.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Claim (paper):* %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

// oneQuery is one standing query on a TreeSet — the single-query shape
// most experiments measure: edits through Apply / ApplyBatch, reads
// through the query's slice of the latest publication.
type oneQuery struct {
	*engine.TreeSet
	id engine.QueryID
}

// newOneQuery registers q as the one standing query of a fresh TreeSet.
// Experiment inputs are fixed, so a registration error is a bug: it
// panics like the rest of the harness.
func newOneQuery(t *tree.Unranked, q *tva.Unranked, opts engine.Options) oneQuery {
	s := engine.NewTreeSet(t)
	id, err := s.Register(q, opts)
	if err != nil {
		panic(err)
	}
	return oneQuery{s, id}
}

// snap returns the query's slice of the latest publication.
func (e oneQuery) snap() *engine.Snapshot { return e.Snapshot().Query(e.id) }

// delaySamples measures the time between consecutive results, up to
// limit samples.
func delaySamples(results iter.Seq[tree.Assignment], limit int) []time.Duration {
	var out []time.Duration
	last := time.Now()
	for range results {
		now := time.Now()
		out = append(out, now.Sub(last))
		last = now
		if len(out) >= limit {
			break
		}
	}
	return out
}

func sizesFor(quick bool, full []int) []int {
	if !quick {
		return full
	}
	return full[:len(full)-1]
}

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// E1Table1 reproduces the Table 1 landscape: delay and update time of
// this paper's algorithm vs the naive-delay variant (polylog-delay
// regime of Losemann-Martens) vs full rebuilds (static algorithms made
// update-aware naively). Both delay columns enumerate the same frozen
// root through enumerate.Assignments, Algorithm 3 with the index
// against the naive box enumeration, on random trees and on paths.
func E1Table1(quick bool) Table {
	rng := rand.New(rand.NewSource(1))
	t := Table{
		ID:    "E1",
		Title: "Table 1 landscape: delay and update time per algorithm",
		Claim: "this paper: O(1) delay and O(log n) updates; Θ(n) updates for rebuild. " +
			"Both delay columns are the p50 of one enumeration of the same frozen root (ancestor query). " +
			"Its answers are dense, so the naive box walk pays O(1) amortized per answer and wins at the median; " +
			"and the forest-algebra term is balanced on paths too, so the naive walk's depth is O(log n), not n",
		Header: []string{"shape", "n", "ours: update", "ours: delay p50", "naive: delay p50",
			"rebuild: update"},
	}
	q := workload.AncestorQuery()
	for _, shape := range []string{workload.ShapeRandom, workload.ShapePath} {
		for _, n := range sizesFor(quick, []int{1000, 4000, 16000, 64000}) {
			ut, err := workload.Tree(shape, n, rng)
			if err != nil {
				panic(err)
			}
			ours := newOneQuery(ut.Clone(), q, engine.Options{})
			editor := workload.NewEditor(ours, rng)
			const nEdits = 200
			start := time.Now()
			for i := 0; i < nEdits; i++ {
				if err := editor.Step(); err != nil {
					panic(err)
				}
			}
			updOurs := time.Since(start) / nEdits
			// Both enumerations run on the engine's own frozen root.
			snap := ours.snap()
			_, gamma, emptyOK := snap.Accepting()
			delayOurs := median(delaySamples(enumerate.Assignments(snap.Root(), gamma, emptyOK, enumerate.ModeIndexed), 2000))
			delayNaive := median(delaySamples(enumerate.Assignments(snap.Root(), gamma, emptyOK, enumerate.ModeNaive), 2000))

			reb, err := baseline.NewRebuildEnumerator(ut.Clone(), q, engine.Options{})
			if err != nil {
				panic(err)
			}
			rebEdits := workload.RandomEdits(3, rng)
			start = time.Now()
			for _, ed := range rebEdits {
				if err := workload.Apply(reb, ed); err != nil {
					panic(err)
				}
			}
			updReb := time.Since(start) / time.Duration(len(rebEdits))
			t.Rows = append(t.Rows, []string{
				shape, fmt.Sprint(n), dur(updOurs), dur(delayOurs), dur(delayNaive), dur(updReb),
			})
		}
	}
	return t
}

// E2Preprocessing measures preprocessing cost per node across tree sizes
// and shapes.
func E2Preprocessing(quick bool) Table {
	rng := rand.New(rand.NewSource(2))
	t := Table{
		ID:     "E2",
		Title:  "Preprocessing time, linear in |T| (Theorem 8.1)",
		Claim:  "preprocessing O(|T|·poly(|Q|)): ns/node stays flat as n grows",
		Header: []string{"shape", "n", "total", "ns/node"},
	}
	q := workload.AncestorQuery()
	for _, shape := range []string{workload.ShapeRandom, workload.ShapePath, workload.ShapeXMLish} {
		for _, n := range sizesFor(quick, []int{2000, 8000, 32000, 128000}) {
			ut, err := workload.Tree(shape, n, rng)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			newOneQuery(ut, q, engine.Options{})
			el := time.Since(start)
			t.Rows = append(t.Rows, []string{
				shape, fmt.Sprint(n), dur(el), fmt.Sprintf("%.0f", float64(el.Nanoseconds())/float64(n)),
			})
		}
	}
	return t
}

// E3Delay measures enumeration delay across tree sizes.
func E3Delay(quick bool) Table {
	rng := rand.New(rand.NewSource(3))
	t := Table{
		ID:     "E3",
		Title:  "Enumeration delay, independent of |T| (Theorem 8.1)",
		Claim:  "delay O(poly(|Q|)·|S|), no dependence on n: p50/p99 stay flat",
		Header: []string{"n", "results", "delay p50", "delay p99"},
	}
	q := workload.AncestorQuery()
	for _, n := range sizesFor(quick, []int{1000, 4000, 16000, 64000, 256000}) {
		ut, err := workload.Tree(workload.ShapeRandom, n, rng)
		if err != nil {
			panic(err)
		}
		e := newOneQuery(ut, q, engine.Options{})
		ds := delaySamples(e.snap().Results(), 20000)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(ds)), dur(median(ds)), dur(percentile(ds, 0.99)),
		})
	}
	return t
}

// E4Updates measures amortized update time across tree sizes.
func E4Updates(quick bool) Table {
	rng := rand.New(rand.NewSource(4))
	t := Table{
		ID:     "E4",
		Title:  "Update time, logarithmic in |T| (Theorem 8.1)",
		Claim:  "updates O(log n·poly(|Q|)): µs/update grows like log n (flat ratio column)",
		Header: []string{"n", "update avg", "boxes/update", "ratio to log2(n)", "rebalances"},
	}
	q := workload.AncestorQuery()
	for _, n := range sizesFor(quick, []int{1000, 4000, 16000, 64000, 256000}) {
		ut, err := workload.Tree(workload.ShapeRandom, n, rng)
		if err != nil {
			panic(err)
		}
		e := newOneQuery(ut, q, engine.Options{})
		before := e.snap().Stats()
		editor := workload.NewEditor(e, rng)
		const nEdits = 500
		start := time.Now()
		for i := 0; i < nEdits; i++ {
			if err := editor.Step(); err != nil {
				panic(err)
			}
		}
		el := time.Since(start) / nEdits
		after := e.snap().Stats()
		boxes := float64(after.BoxesRebuilt-before.BoxesRebuilt) / float64(nEdits)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(el),
			fmt.Sprintf("%.1f", boxes),
			fmt.Sprintf("%.2f", float64(el.Nanoseconds())/1000/math.Log2(float64(n))),
			fmt.Sprint(after.Rebalances - before.Rebalances),
		})
	}
	return t
}

// E5Combined sweeps the automaton size of the DescendantAtDepth family:
// the paper's pipeline stays polynomial in |Q| while the
// determinize-first route explodes.
func E5Combined(quick bool) Table {
	rng := rand.New(rand.NewSource(5))
	t := Table{
		ID:    "E5",
		Title: "Combined complexity in the nondeterministic automaton (2nd contribution)",
		Claim: "preprocessing/update/delay polynomial in |Q| for NTAs; determinization is exponential",
		Header: []string{"k", "|Q| (stepwise)", "|Q'| ours (translated)", "preproc ours",
			"|Q'| det-first", "det-first time"},
	}
	maxK := 6
	if quick {
		maxK = 4
	}
	alpha := []tree.Label{"a", "b"}
	for k := 1; k <= maxK; k++ {
		q := tva.DescendantAtDepth(alpha, "b", k, 0)
		ut := tva.RandomUnrankedTree(rng, 2000, alpha)
		start := time.Now()
		e := newOneQuery(ut.Clone(), q, engine.Options{})
		oursT := time.Since(start)
		oursStates := e.snap().Stats().TranslatedStates

		start = time.Now()
		_, st, err := baseline.DeterminizeFirst(q)
		if err != nil {
			panic(err)
		}
		detT := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(q.NumStates), fmt.Sprint(oursStates), dur(oursT),
			fmt.Sprint(st.DetStates), dur(detT),
		})
	}
	return t
}

// E6Words measures the word pipeline of Theorem 8.5 with a spanner
// query.
func E6Words(quick bool) Table {
	rng := rand.New(rand.NewSource(6))
	t := Table{
		ID:     "E6",
		Title:  "Words and document spanners under updates (Theorem 8.5)",
		Claim:  "preprocessing O(|w|), update O(log|w|), delay independent of |w|",
		Header: []string{"|w|", "preproc", "ns/letter", "update avg", "delay p50"},
	}
	p := spanner.Contains(spanner.Cat(spanner.Lit{Label: "a"}, spanner.Capture{Var: 0, Inner: spanner.Plus{Inner: spanner.Lit{Label: "b"}}}))
	q, err := spanner.CompileWVA(p, []tree.Label{"a", "b", "c"})
	if err != nil {
		panic(err)
	}
	for _, n := range sizesFor(quick, []int{1000, 4000, 16000, 64000, 256000}) {
		letters := workload.Word(n, rng)
		start := time.Now()
		e, err := engine.NewWordSet(letters)
		if err != nil {
			panic(err)
		}
		qid, err := e.Register(q, engine.Options{})
		if err != nil {
			panic(err)
		}
		pre := time.Since(start)
		// Updates: positions resolve to IDs in O(log n) via IDAt.
		start = time.Now()
		const edits = 300
		for i := 0; i < edits; i++ {
			id, err := e.IDAt(rng.Intn(e.Len()))
			if err != nil {
				panic(err)
			}
			u := engine.Update{Op: engine.OpRelabel, Node: id}
			switch rng.Intn(3) {
			case 0:
				u.Label = workload.Word(1, rng)[0]
			case 1:
				u.Op, u.Label = engine.OpInsertAfter, workload.Word(1, rng)[0]
			default:
				if e.Len() <= 1 {
					continue
				}
				u.Op = engine.OpDelete
			}
			if _, err := e.Apply(u); err != nil {
				panic(err)
			}
		}
		upd := time.Since(start) / edits
		ds := delaySamples(e.Snapshot().Query(qid).Results(), 10000)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(pre), fmt.Sprintf("%.0f", float64(pre.Nanoseconds())/float64(n)),
			dur(upd), dur(median(ds)),
		})
	}
	return t
}

// E7MarkedAncestor measures the Theorem 9.2 reduction: enumeration-based
// marked-ancestor operations vs the walk baseline and the lower-bound
// curve.
func E7MarkedAncestor(quick bool) Table {
	rng := rand.New(rand.NewSource(7))
	t := Table{
		ID:     "E7",
		Title:  "Marked-ancestor reduction and the Ω(log n/log log n) bound (Theorem 9.2)",
		Claim:  "enumeration ops grow like log n ≳ the lower-bound curve; walk queries grow linearly on paths",
		Header: []string{"n (path)", "enum op avg", "walk query avg", "log n/log log n", "enum op / curve"},
	}
	for _, n := range sizesFor(quick, []int{1000, 4000, 16000, 64000}) {
		ut, err := workload.Tree(workload.ShapePath, n, rng)
		if err != nil {
			panic(err)
		}
		for _, nd := range ut.Nodes() {
			if err := ut.Relabel(nd.ID, markedanc.Unmarked); err != nil {
				panic(err)
			}
		}
		nodes := ut.Nodes()
		walk := markedanc.NewWalkSolver(ut)
		enum, err := markedanc.NewEnumerationSolver(ut)
		if err != nil {
			panic(err)
		}
		ops := 60
		start := time.Now()
		for i := 0; i < ops; i++ {
			nd := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(3) {
			case 0:
				if err := enum.Mark(nd.ID); err != nil {
					panic(err)
				}
			case 1:
				if err := enum.Unmark(nd.ID); err != nil {
					panic(err)
				}
			default:
				if _, err := enum.Query(nd.ID); err != nil {
					panic(err)
				}
			}
		}
		enumOp := time.Since(start) / time.Duration(ops)
		// Walk queries on the deepest node dominate.
		deepest := nodes[len(nodes)-1]
		start = time.Now()
		for i := 0; i < 200; i++ {
			if _, err := walk.Query(deepest.ID); err != nil {
				panic(err)
			}
		}
		walkOp := time.Since(start) / 200
		curve := markedanc.LowerBoundCurve(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(enumOp), dur(walkOp),
			fmt.Sprintf("%.2f", curve),
			fmt.Sprintf("%.0f", float64(enumOp.Nanoseconds())/curve),
		})
	}
	return t
}

// E8JumpAblation isolates Section 6: enumeration delay of the indexed
// box enumeration vs the naive one as the circuit depth grows (deep
// binary combs with matches only at the bottom).
func E8JumpAblation(quick bool) Table {
	t := Table{
		ID:     "E8",
		Title:  "Jump pointers (Algorithm 3) vs naive box-enum (Figure 1 / Lemma 6.4)",
		Claim:  "indexed enumeration independent of depth; naive pays the root-to-matches descent",
		Header: []string{"depth", "indexed full pass", "naive full pass", "indexed 1st result", "naive 1st result"},
	}
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
	h := raw.Homogenize()
	bd, err := circuit.NewBuilder(h)
	if err != nil {
		panic(err)
	}
	depths := []int{200, 1000, 5000, 20000}
	if quick {
		depths = depths[:3]
	}
	for _, depth := range depths {
		// Left comb: matches (a-leaves) only in the deepest 16 leaves.
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
		measure := func(mode enumerate.Mode) (pass, first time.Duration) {
			var firsts []time.Duration
			passNs := medianNs(30, func() {
				start := time.Now()
				got1 := false
				for range enumerate.Assignments(croot, gamma, emptyOK, mode) {
					if !got1 {
						firsts = append(firsts, time.Since(start))
						got1 = true
					}
				}
			})
			return time.Duration(passNs), median(firsts)
		}
		ip, ifst := measure(enumerate.ModeIndexed)
		np, nfst := measure(enumerate.ModeNaive)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth), dur(ip), dur(np), dur(ifst), dur(nfst),
		})
	}
	return t
}

// E9CircuitSize measures circuit size linearity (Lemma 3.7).
func E9CircuitSize(quick bool) Table {
	rng := rand.New(rand.NewSource(9))
	t := Table{
		ID:     "E9",
		Title:  "Circuit size O(|T|·|A|) and width ≤ |Q'| (Lemma 3.7)",
		Claim:  "gates per node flat in n; width bounded by the automaton, not the tree",
		Header: []string{"n", "boxes", "gates", "gates/node", "width", "|Q'| (homogenized)"},
	}
	q := workload.AncestorQuery()
	for _, n := range sizesFor(quick, []int{1000, 4000, 16000, 64000}) {
		ut, err := workload.Tree(workload.ShapeRandom, n, rng)
		if err != nil {
			panic(err)
		}
		e := newOneQuery(ut, q, engine.Options{})
		st := e.snap().Stats()
		gates := st.UnionGates + st.TimesGates + st.VarGates
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(st.Boxes), fmt.Sprint(gates),
			fmt.Sprintf("%.1f", float64(gates)/float64(n)),
			fmt.Sprint(st.CircuitWidth), fmt.Sprint(st.AutomatonStates),
		})
	}
	return t
}

// E10MatMul compares the naive O(w³) join with the word-packed
// composition (the paper's ω remark).
func E10MatMul(quick bool) Table {
	rng := rand.New(rand.NewSource(10))
	t := Table{
		ID:     "E10",
		Title:  "Relation composition: naive join vs word-packed (§6 ω remark)",
		Claim:  "both cubic, packed version ~w/64 faster; correctness identical (tested)",
		Header: []string{"w", "naive", "packed", "speedup"},
	}
	ws := []int{16, 64, 128, 256}
	if quick {
		ws = ws[:3]
	}
	for _, w := range ws {
		a := bitset.NewMatrix(w, w)
		b := bitset.NewMatrix(w, w)
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				if rng.Float64() < 0.3 {
					a.Set(i, j)
				}
				if rng.Float64() < 0.3 {
					b.Set(i, j)
				}
			}
		}
		reps := 200000 / (w * w)
		if reps < 3 {
			reps = 3
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			bitset.ComposeNaive(a, b)
		}
		naive := time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			bitset.Compose(a, b)
		}
		packed := time.Since(start) / time.Duration(reps)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w), dur(naive), dur(packed),
			fmt.Sprintf("%.1fx", float64(naive)/float64(packed)),
		})
	}
	return t
}

// T1Homogenize reports homogenization growth (Lemma 2.1).
func T1Homogenize() Table {
	rng := rand.New(rand.NewSource(11))
	t := Table{
		ID:     "T1",
		Title:  "Homogenization growth (Lemma 2.1)",
		Claim:  "at most 2× states and 4× transitions, linear time",
		Header: []string{"|Q|", "|δ|", "|Q| homog", "|δ| homog", "time"},
	}
	for _, q := range []int{4, 16, 64, 128} {
		density := 0.3
		if q >= 16 {
			density = 0.1
		}
		if q >= 64 {
			density = 0.02
		}
		a := tva.RandomBinary(rng, q, []tree.Label{"a", "b"}, tree.NewVarSet(0), density)
		start := time.Now()
		h := a.Homogenize()
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(a.NumStates), fmt.Sprint(len(a.Delta)),
			fmt.Sprint(h.NumStates), fmt.Sprint(len(h.Delta)), dur(el),
		})
	}
	return t
}

// T2Translation reports translation sizes (Lemma 7.4 and Corollary 8.4).
func T2Translation() Table {
	t := Table{
		ID:     "T2",
		Title:  "Automaton translation sizes (Lemma 7.4, Corollary 8.4)",
		Claim:  "trees: |Q'| = O(|Q|⁴) before trimming; words: O(|Q|²); reachability keeps both far smaller",
		Header: []string{"family", "|Q|", "|Q'| translated (trimmed)", "|δ'|", "time"},
	}
	alpha := []tree.Label{"a", "b"}
	for k := 1; k <= 6; k++ {
		q := tva.DescendantAtDepth(alpha, "b", k, 0)
		start := time.Now()
		ab, err := forest.Translate(q)
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("tree DescAtDepth(%d)", k), fmt.Sprint(q.NumStates),
			fmt.Sprint(ab.NumStates), fmt.Sprint(len(ab.Delta)), dur(el),
		})
	}
	for _, m := range []int{2, 4, 8, 16} {
		q := chainWVA(m)
		start := time.Now()
		ab, err := forest.TranslateWord(q)
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("word chain(%d)", m), fmt.Sprint(q.NumStates),
			fmt.Sprint(ab.NumStates), fmt.Sprint(len(ab.Delta)), dur(el),
		})
	}
	return t
}

// chainWVA accepts words containing "a b^m" and selects the b-run.
func chainWVA(m int) *tva.WVA {
	alpha := []tree.Label{"a", "b"}
	a := &tva.WVA{NumStates: m + 2, Alphabet: alpha, Vars: tree.NewVarSet(0)}
	x := tree.NewVarSet(0)
	// 0: scanning; 1..m: inside the run; m+1: done.
	for _, l := range alpha {
		a.Trans = append(a.Trans, tva.WTrans{From: 0, Label: l, Set: 0, To: 0})
		a.Trans = append(a.Trans, tva.WTrans{From: tva.State(m + 1), Label: l, Set: 0, To: tva.State(m + 1)})
	}
	for i := 0; i < m; i++ {
		a.Trans = append(a.Trans, tva.WTrans{From: tva.State(i), Label: "b", Set: x, To: tva.State(i + 1)})
	}
	a.Trans = append(a.Trans, tva.WTrans{From: tva.State(m), Label: "a", Set: 0, To: tva.State(m + 1)})
	a.Initial = []tva.State{0}
	a.Final = []tva.State{tva.State(m), tva.State(m + 1)}
	return a
}

// F1Order demonstrates Figure 1: the order in which Algorithm 3 visits
// interesting boxes (first interesting box B1 first, then its subtree,
// then right subtrees of bidirectional boxes top-down).
func F1Order() Table {
	t := Table{
		ID:     "F1",
		Title:  "Figure 1: box visit order of Algorithm 3",
		Claim:  "B1 output first, then its subtree, then right subtrees of bidirectional path boxes",
		Header: []string{"visit #", "box (leaf label)", "preorder rank"},
	}
	// A small two-level comb whose matches sit in several subtrees.
	bt, err := tree.ParseBinary("(b (b (a) (b)) (b (b (a) (a)) (a)))")
	if err != nil {
		panic(err)
	}
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
		panic(err)
	}
	c := bd.Build(bt)
	croot := enumerate.BuildIndex(c)
	gamma, _ := bd.RootAccepting(c)
	// Preorder ranks of boxes.
	rank := map[*circuit.Box]int{}
	var pre func(b *circuit.Box)
	pre = func(b *circuit.Box) {
		if b == nil {
			return
		}
		rank[b] = len(rank)
		pre(b.Left)
		pre(b.Right)
	}
	pre(c.Root)
	i := 0
	for br := range enumerate.IndexedBoxEnum(croot, gamma) {
		i++
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i), string(br.Box.Box.Label), fmt.Sprint(rank[br.Box.Box]),
		})
	}
	return t
}
