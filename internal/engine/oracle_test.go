package engine

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/counting"
	"repro/internal/enumerate"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file checks the whole pipeline — translate, homogenize, encode,
// circuit, index, enumerate, and the maintained counts — against the
// brute-force automaton oracles, driving one standing query through
// single-update publications.

// treeQuery registers q as the one standing query of a fresh TreeSet.
func treeQuery(t *testing.T, ut *tree.Unranked, q *tva.Unranked, opts Options) (*TreeSet, QueryID) {
	t.Helper()
	s := NewTreeSet(ut)
	id, err := s.Register(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// wordQuery registers q as the one standing query of a fresh WordSet.
func wordQuery(t *testing.T, letters []tree.Label, q *tva.WVA, opts Options) (*WordSet, QueryID) {
	t.Helper()
	s, err := NewWordSet(letters)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Register(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// mustApply applies one update, failing the test on error, and returns
// the ID it created.
func mustApply(t *testing.T, e *Engine, u Update) tree.NodeID {
	t.Helper()
	v, err := e.Apply(u)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sameResults(t *testing.T, ctx string, want map[string]tree.Assignment, got []tree.Assignment) {
	t.Helper()
	gotSet := map[string]bool{}
	for _, a := range got {
		k := a.Key()
		if gotSet[k] {
			t.Fatalf("%s: duplicate result %v", ctx, a)
		}
		gotSet[k] = true
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: spurious result %v", ctx, a)
		}
	}
	if len(gotSet) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(gotSet), len(want))
	}
}

func randomWVA(rng *rand.Rand, states int, alpha []tree.Label, vars tree.VarSet) *tva.WVA {
	a := &tva.WVA{NumStates: states, Alphabet: alpha, Vars: vars}
	subsets := []tree.VarSet{}
	tree.SubsetsOf(vars, func(s tree.VarSet) { subsets = append(subsets, s) })
	for q := 0; q < states; q++ {
		for _, l := range alpha {
			for _, s := range subsets {
				for p := 0; p < states; p++ {
					if rng.Float64() < 0.4 {
						a.Trans = append(a.Trans, tva.WTrans{From: tva.State(q), Label: l, Set: s, To: tva.State(p)})
					}
				}
			}
		}
	}
	a.Initial = []tva.State{tva.State(rng.Intn(states))}
	a.Final = []tva.State{tva.State(rng.Intn(states))}
	return a
}

// TestStaticMatchesOracle runs the full pipeline against the
// brute-force oracle on random trees and random stepwise TVAs.
func TestStaticMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		q := tva.RandomUnranked(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.4)
		ut := tva.RandomUnrankedTree(rng, 1+rng.Intn(6), alphaAB)
		want, err := q.SatisfyingAssignments(ut, 7)
		if err != nil {
			t.Fatal(err)
		}
		s, id := treeQuery(t, ut.Clone(), q, Options{})
		snap := s.Snapshot().Query(id)
		sameResults(t, "static", want, snap.All())
		sameResults(t, "static-naive", want, naiveResults(snap))
	}
}

// TestDynamicFuzz is the cornerstone test of the whole reproduction:
// random edits through the engine must keep its results equal to the
// from-scratch brute force after every single update.
func TestDynamicFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	labels := []tree.Label{"a", "b"}
	for trial := 0; trial < 12; trial++ {
		q := tva.RandomUnranked(rng, 1+rng.Intn(3), labels, tree.NewVarSet(0), 0.4)
		ut := tva.RandomUnrankedTree(rng, 1+rng.Intn(4), labels)
		s, id := treeQuery(t, ut, q, Options{})
		for step := 0; step < 25; step++ {
			nodes := s.Tree().Nodes()
			n := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(4) {
			case 0:
				mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: n.ID, Label: labels[rng.Intn(2)]})
			case 1:
				if s.Tree().Size() < 7 {
					mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: n.ID, Label: labels[rng.Intn(2)]})
				}
			case 2:
				if s.Tree().Size() < 7 && n.Parent != nil {
					mustApply(t, &s.Engine, Update{Op: OpInsertRightSibling, Node: n.ID, Label: labels[rng.Intn(2)]})
				}
			default:
				if n.IsLeaf() && n.Parent != nil {
					mustApply(t, &s.Engine, Update{Op: OpDelete, Node: n.ID})
				}
			}
			want, err := q.SatisfyingAssignments(s.Tree(), 7)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "dynamic", want, s.Snapshot().Query(id).All())
		}
	}
}

// TestMarkedAncestorDynamic follows the Theorem 9.2 reduction scenario:
// marks toggle via relabelings, queries run via enumeration.
func TestMarkedAncestorDynamic(t *testing.T) {
	q := tva.MarkedAncestor("m", "u", "s", 0)
	ut, err := tree.ParseUnranked("(u (u (u (u (u)))))")
	if err != nil {
		t.Fatal(err)
	}
	nodes := ut.Nodes()
	deepest := nodes[len(nodes)-1]
	s, id := treeQuery(t, ut, q, Options{})
	snap := func() *Snapshot { return s.Snapshot().Query(id) }
	// Make the deepest node special: no marked ancestor yet.
	mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: deepest.ID, Label: "s"})
	if snap().Count() != 0 {
		t.Fatalf("no mark set, count = %d", snap().Count())
	}
	// Mark the root: now the special node qualifies.
	mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: s.Tree().Root.ID, Label: "m"})
	res := snap().All()
	if len(res) != 1 || res[0][0].Node != deepest.ID {
		t.Fatalf("results = %v, want the special node", res)
	}
	// Unmark: back to zero.
	mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: s.Tree().Root.ID, Label: "u"})
	if snap().NonEmpty() {
		t.Fatal("unmarked, still nonempty")
	}
}

// TestSelectLabelGrows checks result counts track inserts/deletes on a
// larger tree, and that stats stay sane.
func TestSelectLabelGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := tva.SelectLabel(alphaAB, "a", 0)
	s, id := treeQuery(t, tree.NewUnranked("b"), q, Options{})
	aCount := 0
	ids := []tree.NodeID{s.Tree().Root.ID}
	for i := 0; i < 200; i++ {
		l := alphaAB[rng.Intn(2)]
		if l == "a" {
			aCount++
		}
		v := mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: ids[rng.Intn(len(ids))], Label: l})
		ids = append(ids, v)
		if got := s.Snapshot().Query(id).Count(); got != aCount {
			t.Fatalf("step %d: count %d, want %d", i, got, aCount)
		}
	}
	snap := s.Snapshot().Query(id)
	st := snap.Stats()
	// The term has one leaf per tree node and one internal node per
	// operator: 2n-1 boxes in total.
	if st.Boxes != 2*s.Tree().Size()-1 {
		t.Fatalf("boxes %d != 2·%d-1", st.Boxes, s.Tree().Size())
	}
	if st.CircuitWidth > st.AutomatonStates {
		t.Fatalf("width %d > |Q'| %d", st.CircuitWidth, st.AutomatonStates)
	}
	// Each result is a single singleton selecting an a-node.
	for _, asg := range snap.All() {
		if len(asg) != 1 {
			t.Fatalf("assignment %v", asg)
		}
		if s.Tree().Node(asg[0].Node).Label != "a" {
			t.Fatalf("selected non-a node")
		}
	}
}

// TestWordEnumeratorMatchesOracle fuzzes the Theorem 8.5 pipeline.
func TestWordEnumeratorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		q := randomWVA(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0))
		n := 1 + rng.Intn(5)
		letters := make([]tree.Label, n)
		for i := range letters {
			letters[i] = alphaAB[rng.Intn(2)]
		}
		s, id := wordQuery(t, letters, q, Options{})
		for step := 0; step < 20; step++ {
			ids, labs := s.Word()
			switch rng.Intn(3) {
			case 0:
				mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: ids[rng.Intn(len(ids))], Label: alphaAB[rng.Intn(2)]})
			case 1:
				if len(ids) < 7 {
					mustApply(t, &s.Engine, Update{Op: OpInsertAfter, Node: ids[rng.Intn(len(ids))], Label: alphaAB[rng.Intn(2)]})
				}
			default:
				if len(ids) > 1 {
					mustApply(t, &s.Engine, Update{Op: OpDelete, Node: ids[rng.Intn(len(ids))]})
				}
			}
			ids, labs = s.Word()
			want, err := q.SatisfyingAssignments(labs, ids, 8)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "word", want, s.Snapshot().Query(id).All())
		}
	}
}

// TestUpdateCostLogarithmic checks Lemma 7.3 empirically: boxes rebuilt
// per update stay around O(log n) on a large tree.
func TestUpdateCostLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := tva.SelectLabel(alphaAB, "a", 0)
	ut := tva.RandomUnrankedTree(rng, 4000, alphaAB)
	s, id := treeQuery(t, ut, q, Options{})
	rebuilt := func() int { return s.Snapshot().Query(id).Stats().BoxesRebuilt }
	base := rebuilt()
	edits := 0
	leaves := []tree.NodeID{}
	for _, n := range s.Tree().Nodes() {
		if n.IsLeaf() && n.Parent != nil {
			leaves = append(leaves, n.ID)
		}
	}
	for i := 0; i < 400; i++ {
		switch rng.Intn(3) {
		case 0:
			nodes := s.Tree().Nodes()
			mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: nodes[rng.Intn(len(nodes))].ID, Label: alphaAB[rng.Intn(2)]})
		case 1:
			nodes := s.Tree().Nodes()
			mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: nodes[rng.Intn(len(nodes))].ID, Label: "a"})
		default:
			if len(leaves) > 0 {
				id := leaves[len(leaves)-1]
				leaves = leaves[:len(leaves)-1]
				if s.Tree().Node(id) != nil && s.Tree().Node(id).IsLeaf() {
					mustApply(t, &s.Engine, Update{Op: OpDelete, Node: id})
				}
			}
		}
		edits++
	}
	perEdit := float64(rebuilt()-base) / float64(edits)
	// log2(4000) ≈ 12; allow a generous constant for the amortized
	// scapegoat rebuilds.
	if perEdit > 160 {
		t.Fatalf("boxes rebuilt per edit = %.1f, too large", perEdit)
	}
}

// TestSingleNodeTree covers the smallest input.
func TestSingleNodeTree(t *testing.T) {
	q := tva.SelectLabel(alphaAB, "a", 0)
	ut := tree.NewUnranked("a")
	s, id := treeQuery(t, ut, q, Options{})
	res := s.Snapshot().Query(id).All()
	if len(res) != 1 || len(res[0]) != 1 || res[0][0].Node != ut.Root.ID {
		t.Fatalf("results = %v", res)
	}
	// Relabel the root away and back.
	mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: ut.Root.ID, Label: "b"})
	if s.Snapshot().Query(id).Count() != 0 {
		t.Fatal("b root should not match")
	}
	mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: ut.Root.ID, Label: "a"})
	if s.Snapshot().Query(id).Count() != 1 {
		t.Fatal("a root should match again")
	}
}

// TestUnsatisfiableQuery covers an automaton with no accepting states
// after trimming.
func TestUnsatisfiableQuery(t *testing.T) {
	q := tva.SelectLabel(alphaAB, "a", 0)
	q.Final = nil // never accepts
	ut, _ := tree.ParseUnranked("(a (b) (a))")
	s, id := treeQuery(t, ut, q, Options{})
	if s.Snapshot().Query(id).NonEmpty() {
		t.Fatal("unsatisfiable query returned results")
	}
	mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "a"})
	if s.Snapshot().Query(id).Count() != 0 {
		t.Fatal("still unsatisfiable")
	}
}

// TestBooleanQueryEmptyAssignment covers queries whose only answer is
// the empty assignment (Boolean acceptance).
func TestBooleanQueryEmptyAssignment(t *testing.T) {
	q := tva.LeafCount(alphaAB, 2, 0) // even number of leaves
	ut, _ := tree.ParseUnranked("(a (b) (b))")
	s, id := treeQuery(t, ut, q, Options{})
	res := s.Snapshot().Query(id).All()
	if len(res) != 1 || len(res[0]) != 0 {
		t.Fatalf("want exactly the empty assignment, got %v", res)
	}
	// One more leaf: odd, rejected.
	mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "a"})
	if s.Snapshot().Query(id).Count() != 0 {
		t.Fatal("odd leaf count accepted")
	}
}

// TestTwoVariableQueryDynamic fuzzes a two-variable query through edits.
func TestTwoVariableQueryDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// X0 selects an a-node, X1 selects a b-node.
	qa := tva.Cylindrify(tva.SelectLabel(alphaAB, "a", 0), tree.NewVarSet(0, 1))
	qb := tva.Cylindrify(tva.SelectLabel(alphaAB, "b", 1), tree.NewVarSet(0, 1))
	q := tva.IntersectUnranked(qa, qb)
	ut := tva.RandomUnrankedTree(rng, 4, alphaAB)
	s, id := treeQuery(t, ut, q, Options{})
	for step := 0; step < 20; step++ {
		nodes := s.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(3) {
		case 0:
			mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: n.ID, Label: alphaAB[rng.Intn(2)]})
		case 1:
			if s.Tree().Size() < 6 {
				mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: n.ID, Label: alphaAB[rng.Intn(2)]})
			}
		default:
			if n.IsLeaf() && n.Parent != nil {
				mustApply(t, &s.Engine, Update{Op: OpDelete, Node: n.ID})
			}
		}
		want, err := q.SatisfyingAssignments(s.Tree(), 6)
		if err != nil {
			t.Fatal(err)
		}
		all := s.Snapshot().Query(id).All()
		sameResults(t, "twovar", want, all)
		// Every result has exactly two singletons.
		for _, asg := range all {
			if len(asg) != 2 {
				t.Fatalf("assignment %v", asg)
			}
		}
	}
}

// TestEarlyStopThenRestart checks that abandoning an enumeration
// mid-stream leaves the structure intact.
func TestEarlyStopThenRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := tva.SelectLabel(alphaAB, "a", 0)
	ut := tva.RandomUnrankedTree(rng, 200, alphaAB)
	s, id := treeQuery(t, ut, q, Options{})
	snap := s.Snapshot().Query(id)
	full := snap.Count()
	// Abandon after 3 results, several times.
	for round := 0; round < 5; round++ {
		k := 0
		for range snap.Results() {
			if k++; k == 3 {
				break
			}
		}
	}
	n := 0
	for range snap.Results() {
		n++
	}
	if n != full {
		t.Fatal("early stop corrupted enumeration")
	}
	// And after an edit.
	mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "a"})
	if s.Snapshot().Query(id).Count() != full+1 {
		t.Fatal("count after edit wrong")
	}
}

// naiveResults enumerates a snapshot's frozen root with the naive box
// enumeration (enumerate.ModeNaive), the delay baseline of experiments
// E1/E8, which runs on the engine's own structure.
func naiveResults(s *Snapshot) []tree.Assignment {
	_, gamma, emptyOK := s.Accepting()
	return slices.Collect(enumerate.Assignments(s.Root(), gamma, emptyOK, enumerate.ModeNaive))
}

// TestNaiveModeDynamic runs the dynamic fuzz through the naive box
// enumeration too: after every edit, ModeNaive over the published
// snapshot's frozen root must give the oracle's answers.
func TestNaiveModeDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := tva.RandomUnranked(rng, 2, alphaAB, tree.NewVarSet(0), 0.5)
	ut := tva.RandomUnrankedTree(rng, 4, alphaAB)
	s, id := treeQuery(t, ut, q, Options{})
	for step := 0; step < 15; step++ {
		nodes := s.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		if n.IsLeaf() && n.Parent != nil && rng.Intn(2) == 0 {
			mustApply(t, &s.Engine, Update{Op: OpDelete, Node: n.ID})
		} else if s.Tree().Size() < 6 {
			mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: n.ID, Label: alphaAB[rng.Intn(2)]})
		} else {
			mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: n.ID, Label: alphaAB[rng.Intn(2)]})
		}
		want, err := q.SatisfyingAssignments(s.Tree(), 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "naive-dyn", want, naiveResults(s.Snapshot().Query(id)))
	}
}

// TestWordIDAtAfterEdits fuzzes positional addressing under edits.
func TestWordIDAtAfterEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := randomWVA(rng, 2, alphaAB, tree.NewVarSet(0))
	s, _ := wordQuery(t, []tree.Label{"a", "b", "a"}, q, Options{})
	for step := 0; step < 200; step++ {
		ids, _ := s.Word()
		switch rng.Intn(3) {
		case 0:
			mustApply(t, &s.Engine, Update{Op: OpInsertBefore, Node: ids[rng.Intn(len(ids))], Label: alphaAB[rng.Intn(2)]})
		case 1:
			mustApply(t, &s.Engine, Update{Op: OpInsertAfter, Node: ids[rng.Intn(len(ids))], Label: alphaAB[rng.Intn(2)]})
		default:
			if len(ids) > 1 {
				mustApply(t, &s.Engine, Update{Op: OpDelete, Node: ids[rng.Intn(len(ids))]})
			}
		}
		ids, _ = s.Word()
		for i, id := range ids {
			got, err := s.IDAt(i)
			if err != nil || got != id {
				t.Fatalf("step %d: IDAt(%d) = %d, want %d", step, i, got, id)
			}
		}
	}
}

// TestMoveRangeThroughEngine checks the bulk update keeps the
// enumeration structure consistent with the from-scratch oracle.
func TestMoveRangeThroughEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := randomWVA(rng, 2, alphaAB, tree.NewVarSet(0))
	letters := []tree.Label{"a", "b", "a", "b", "b", "a"}
	s, id := wordQuery(t, letters, q, Options{})
	for step := 0; step < 25; step++ {
		n := s.Len()
		from := rng.Intn(n)
		k := 1 + rng.Intn(n-from)
		if k == n {
			continue
		}
		dest := rng.Intn(n-k+1) - 1
		if _, err := s.Apply(Update{Op: OpMoveRange, From: from, K: k, To: dest}); err != nil {
			t.Fatalf("step %d: MoveRange(%d,%d,%d): %v", step, from, k, dest, err)
		}
		ids, labs := s.Word()
		want, err := q.SatisfyingAssignments(labs, ids, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "move", want, s.Snapshot().Query(id).All())
	}
}

// TestAggregatesUnambiguous checks that for the (unambiguous)
// SelectLabel query the derivation count equals the result count after
// every update, the tropical aggregates match enumeration, and the
// Boolean-semiring fold over the snapshot's circuit agrees with
// NonEmpty.
func TestAggregatesUnambiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := tva.SelectLabel(alphaAB, "a", 0)
	ut := tva.RandomUnrankedTree(rng, 30, alphaAB)
	s, id := treeQuery(t, ut, q, Options{})
	for step := 0; step < 60; step++ {
		nodes := s.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(3) {
		case 0:
			mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: n.ID, Label: alphaAB[rng.Intn(2)]})
		case 1:
			mustApply(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: n.ID, Label: alphaAB[rng.Intn(2)]})
		default:
			if n.IsLeaf() && n.Parent != nil {
				mustApply(t, &s.Engine, Update{Op: OpDelete, Node: n.ID})
			}
		}
		snap := s.Snapshot().Query(id)
		count := len(snap.All())
		if got := snap.Derivations(); got.Cmp(big.NewInt(int64(count))) != 0 {
			t.Fatalf("step %d: derivations %v, results %d", step, got, count)
		}
		nonEmpty := counting.NewEvaluator[bool](counting.Bool{}).Gamma(snap.Accepting())
		if nonEmpty != (count > 0) || snap.NonEmpty() != nonEmpty {
			t.Fatalf("step %d: bool aggregate disagrees", step)
		}
		mn, okMin := snap.MinResultSize()
		mx, okMax := snap.MaxResultSize()
		if okMin != (count > 0) || okMax != (count > 0) {
			t.Fatalf("step %d: tropical emptiness disagrees", step)
		}
		if count > 0 && (mn != 1 || mx != 1) {
			// SelectLabel results are always single singletons.
			t.Fatalf("step %d: min/max = %d/%d", step, mn, mx)
		}
	}
}

// TestDerivationCountsRuns checks the Section 4 multiset semantics on a
// genuinely ambiguous automaton: the derivation count equals the number
// of (run, valuation) pairs, i.e. results weighted by run multiplicity.
func TestDerivationCountsRuns(t *testing.T) {
	// Automaton: X0 selects one node (any label); nondeterministically
	// the automaton may be in "mode 1" or "mode 2" (duplicated states),
	// so every result has exactly two runs.
	x := tree.NewVarSet(0)
	q := &tva.Unranked{
		NumStates: 4, // q0/q1 for each mode
		Alphabet:  alphaAB,
		Vars:      x,
		Final:     []tva.State{1, 3},
	}
	for _, l := range alphaAB {
		q.Init = append(q.Init,
			tva.InitRule{Label: l, Set: 0, State: 0},
			tva.InitRule{Label: l, Set: x, State: 1},
			tva.InitRule{Label: l, Set: 0, State: 2},
			tva.InitRule{Label: l, Set: x, State: 3},
		)
	}
	q.Delta = []tva.StepTriple{
		{From: 0, Child: 0, To: 0}, {From: 0, Child: 1, To: 1}, {From: 1, Child: 0, To: 1},
		{From: 2, Child: 2, To: 2}, {From: 2, Child: 3, To: 3}, {From: 3, Child: 2, To: 3},
	}
	ut, _ := tree.ParseUnranked("(a (b) (a))")
	s, id := treeQuery(t, ut, q, Options{})
	snap := s.Snapshot().Query(id)
	// Each subtree without x admits runs in both modes independently;
	// the circuit collapses empty-annotation multiplicity via
	// homogenization, so the count is (number of mode choices along the
	// x-path) = 2 per result.
	count := snap.Count()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	want := big.NewInt(6) // 3 results × 2 runs
	if got := snap.Derivations(); got.Cmp(want) != 0 {
		t.Fatalf("derivations = %v, want %v", got, want)
	}
}

// TestAggregateCacheReuse checks the maintained derivation count across
// an incremental repair on a large tree: one b→a relabel raises it by
// exactly one, although only the relabel's trunk was recounted
// (untouched boxes keep their identity and cached counts).
func TestAggregateCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := tva.SelectLabel(alphaAB, "a", 0)
	ut := tva.RandomUnrankedTree(rng, 2000, alphaAB)
	s, id := treeQuery(t, ut, q, Options{})
	c1 := s.Snapshot().Query(id).Derivations()
	// Relabel a b-leaf to a: count increases by one.
	target := tree.InvalidNode
	for _, n := range s.Tree().Nodes() {
		if n.Label == "b" {
			target = n.ID
			break
		}
	}
	if target < 0 {
		t.Skip("no b node")
	}
	mustApply(t, &s.Engine, Update{Op: OpRelabel, Node: target, Label: "a"})
	c2 := s.Snapshot().Query(id).Derivations()
	diff := new(big.Int).Sub(c2, c1)
	if diff.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("count delta = %v, want 1", diff)
	}
}
