package mso

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// checkCompiled compiles the formula and compares its satisfying
// assignments against the Eval-based oracle on the given tree.
func checkCompiled(t *testing.T, f Formula, ut *tree.Unranked) {
	t.Helper()
	want, err := SatisfyingAssignments(f, ut, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compile(f, alphaAB)
	if err != nil {
		t.Fatalf("compile %s: %v", f, err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("compiled %s invalid: %v", f, err)
	}
	got, err := a.SatisfyingAssignments(ut, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s on %s: got %d assignments, want %d\ngot: %v\nwant: %v",
			f, ut, len(got), len(want), got, want)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Fatalf("%s on %s: missing %q", f, ut, k)
		}
	}
}

var testTrees = []string{
	"(a)",
	"(a (b))",
	"(b (a) (b))",
	"(a (b (a)) (b))",
	"(a (a (b) (a)) (b))",
}

func TestAtoms(t *testing.T) {
	formulas := []Formula{
		TrueF{},
		FalseF{},
		Subset{0, 1},
		Singleton{0},
		HasLabel{0, "a"},
		Child{0, 1},
		NextSibling{0, 1},
		Root{0},
		Leaf{0},
		Descendant{0, 1},
	}
	for _, f := range formulas {
		for _, s := range testTrees {
			ut, err := tree.ParseUnranked(s)
			if err != nil {
				t.Fatal(err)
			}
			checkCompiled(t, f, ut)
		}
	}
}

func TestConnectives(t *testing.T) {
	formulas := []Formula{
		And{Singleton{0}, HasLabel{0, "a"}},
		Or{HasLabel{0, "a"}, HasLabel{0, "b"}},
		Not{Singleton{0}},
		And{Singleton{0}, Not{HasLabel{0, "a"}}},
		Implies(Singleton{0}, HasLabel{0, "b"}),
		And{And{Singleton{0}, Singleton{1}}, Child{0, 1}},
		And{And{Singleton{0}, Singleton{1}}, Or{Child{0, 1}, NextSibling{0, 1}}},
	}
	for _, f := range formulas {
		for _, s := range testTrees {
			ut, _ := tree.ParseUnranked(s)
			checkCompiled(t, f, ut)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	// "x has some child" ≡ ∃Y (Sing(Y) ∧ Child(x, Y)); x first-order.
	hasChild := Exists{1, Conj(Singleton{1}, Child{0, 1})}
	// "x is an a-labeled node with a b-labeled descendant".
	aWithBDesc := Conj(
		HasLabel{0, "a"},
		Exists{1, Conj(Singleton{1}, HasLabel{1, "b"}, Descendant{0, 1})},
	)
	for _, fo := range []Formula{hasChild, aWithBDesc} {
		f := And{fo, Singleton{0}}
		for _, s := range testTrees {
			ut, _ := tree.ParseUnranked(s)
			checkCompiled(t, f, ut)
		}
	}
	// Forall: every node in X is labeled a — vacuous over empty X, so
	// combine with nonemptiness.
	f := Conj(Singleton{0}, Forall(1, Implies(Conj(Singleton{1}, Subset{1, 0}), HasLabel{1, "a"})))
	for _, s := range testTrees {
		ut, _ := tree.ParseUnranked(s)
		checkCompiled(t, f, ut)
	}
}

func TestCompileFO(t *testing.T) {
	// Φ(x, y): y child of x, both free first-order.
	a, err := CompileFO(Child{0, 1}, alphaAB, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ut, _ := tree.ParseUnranked("(a (b) (a (b)))")
	got, err := a.SatisfyingAssignments(ut, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Edges: root→b, root→a, a→b : 3 child pairs.
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want 3: %v", len(got), got)
	}
	for _, asg := range got {
		if len(asg) != 2 {
			t.Fatalf("assignment %v should have 2 singletons", asg)
		}
	}
}

// TestMarkedAncestorViaMSO expresses the Theorem 9.2 query in MSO and
// checks it against the hand-built automaton used by the lower-bound
// experiment.
func TestMarkedAncestorViaMSO(t *testing.T) {
	alpha := []tree.Label{"m", "u", "s"}
	// Φ(x): x is special and has a marked proper ancestor.
	phi := Conj(
		HasLabel{0, "s"},
		Exists{1, Conj(Singleton{1}, HasLabel{1, "m"}, Descendant{1, 0})},
	)
	a, err := CompileFO(phi, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := tva.MarkedAncestor("m", "u", "s", 0)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		ut := tva.RandomUnrankedTree(rng, 1+rng.Intn(6), alpha)
		want, err := ref.SatisfyingAssignments(ut, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.SatisfyingAssignments(ut, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d on %s: got %d, want %d", trial, ut, len(got), len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("trial %d: missing %q", trial, k)
			}
		}
	}
}

// TestEndToEndCorollary83 runs a compiled FO query through the full
// dynamic pipeline: constant-delay enumeration with updates.
func TestEndToEndCorollary83(t *testing.T) {
	// Φ(x): x is labeled a and has a b-labeled child.
	phi := Conj(
		HasLabel{0, "a"},
		Exists{1, Conj(Singleton{1}, HasLabel{1, "b"}, Child{0, 1})},
	)
	q, err := CompileFO(phi, alphaAB, 0)
	if err != nil {
		t.Fatal(err)
	}
	ut, _ := tree.ParseUnranked("(a (b) (a (a)))")
	e := engine.NewTreeSet(ut)
	id, err := e.Register(q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := func() int { return e.Snapshot().Query(id).Count() }
	if count() != 1 {
		t.Fatalf("count = %d, want 1", count())
	}
	// Relabel the deepest a to b: its parent now qualifies too.
	var deepest tree.NodeID
	for _, n := range e.Tree().Nodes() {
		if n.IsLeaf() && n.Label == "a" {
			deepest = n.ID
		}
	}
	if _, err := e.Apply(engine.Update{Op: engine.OpRelabel, Node: deepest, Label: "b"}); err != nil {
		t.Fatal(err)
	}
	if count() != 2 {
		t.Fatalf("after relabel: count = %d, want 2", count())
	}
	// Check against the oracle.
	want, err := q.SatisfyingAssignments(e.Tree(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("oracle disagreed: %d", len(want))
	}
}

func TestFreeVarsAndStrings(t *testing.T) {
	f := Exists{1, Conj(Singleton{1}, Child{0, 1}, HasLabel{2, "a"})}
	if FreeVars(f) != tree.NewVarSet(0, 2) {
		t.Fatalf("FreeVars = %v", FreeVars(f))
	}
	if f.String() == "" || ParseableString(f) == "" {
		t.Fatal("empty rendering")
	}
	if len(ParseableString(Not{TrueF{}})) == 0 {
		t.Fatal("empty rendering")
	}
}
