package circuit

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

func mustBuilder(t *testing.T, a *tva.Binary) *Builder {
	t.Helper()
	bd, err := NewBuilder(a)
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

func TestNewBuilderRejectsNonHomogenized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tva.RandomBinary(rng, 3, alphaAB, tree.NewVarSet(0), 0.4)
	if _, err := NewBuilder(a); err == nil {
		t.Fatal("expected error for non-homogenized automaton")
	}
}

// TestCircuitMatchesBruteForce is the core Definition 3.3 check: for every
// node n and state q of random automata on random trees, the captured set
// S(γ(n, q)) must equal the set of assignments of valuations under which
// some run maps n to q.
func TestCircuitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		raw := tva.RandomBinary(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0, 1), 0.4)
		a := raw.Homogenize()
		if a.NumStates == 0 {
			continue
		}
		bt := tva.RandomBinaryTree(rng, 1+rng.Intn(4), alphaAB)
		bd := mustBuilder(t, a)
		c := bd.Build(bt)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if w := c.Width(); w > a.NumStates {
			t.Fatalf("trial %d: width %d > |Q| = %d", trial, w, a.NumStates)
		}

		// Walk tree and boxes in lockstep.
		var boxes []*Box
		c.Walk(func(b *Box) { boxes = append(boxes, b) })
		var nodes []*tree.BNode
		var walk func(n *tree.BNode)
		walk = func(n *tree.BNode) {
			if n == nil {
				return
			}
			walk(n.Left)
			walk(n.Right)
			nodes = append(nodes, n)
		}
		walk(bt.Root)
		if len(boxes) != len(nodes) {
			t.Fatalf("trial %d: %d boxes for %d nodes", trial, len(boxes), len(nodes))
		}

		// For each node, enumerate all valuations of its subtree's leaves
		// and compare against the captured sets.
		ev := NewEvaluator()
		for i, n := range nodes {
			b := boxes[i]
			sub := &tree.Binary{Root: n}
			leaves := sub.Leaves()
			if len(leaves) > 4 {
				continue
			}
			want := make([]map[string]bool, a.NumStates)
			for q := range want {
				want[q] = map[string]bool{}
			}
			subsets := []tree.VarSet{}
			tree.SubsetsOf(a.Vars, func(s tree.VarSet) { subsets = append(subsets, s) })
			nu := tree.Valuation{}
			var rec func(j int)
			rec = func(j int) {
				if j == len(leaves) {
					states := a.StatesAt(sub, nu)
					key := nu.Assignment().Key()
					states[n].ForEach(func(q int) bool {
						want[q][key] = true
						return true
					})
					return
				}
				for _, s := range subsets {
					if s == 0 {
						delete(nu, leaves[j].ID)
					} else {
						nu[leaves[j].ID] = s
					}
					rec(j + 1)
				}
				delete(nu, leaves[j].ID)
			}
			rec(0)
			for q := 0; q < a.NumStates; q++ {
				got := ev.Gamma(b, q)
				if len(got) != len(want[q]) {
					t.Fatalf("trial %d node n%d state %d: |S(γ)| = %d, want %d",
						trial, n.ID, q, len(got), len(want[q]))
				}
				for k := range got {
					if !want[q][k] {
						t.Fatalf("trial %d node n%d state %d: spurious assignment %q",
							trial, n.ID, q, k)
					}
				}
			}
		}
	}
}

// TestRootAcceptingMatchesOracle checks that Γ plus the empty-assignment
// flag reproduce exactly the satisfying assignments.
func TestRootAcceptingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		raw := tva.RandomBinary(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.4)
		a := raw.Homogenize()
		if a.NumStates == 0 {
			continue
		}
		bt := tva.RandomBinaryTree(rng, 1+rng.Intn(5), alphaAB)
		want, err := a.SatisfyingAssignments(bt, 8)
		if err != nil {
			t.Fatal(err)
		}
		bd := mustBuilder(t, a)
		c := bd.Build(bt)
		gamma, emptyOK := bd.RootAccepting(c)
		got := map[string]tree.Assignment{}
		if emptyOK {
			e := tree.Assignment{}
			got[e.Key()] = e
		}
		ev := NewEvaluator()
		gamma.ForEach(func(u int) bool {
			for k, v := range ev.Union(c.Root, u) {
				got[k] = v
			}
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d assignments, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("trial %d: missing %q", trial, k)
			}
		}
	}
}

// TestCircuitSizeLinear checks the O(|T|·|A|) size bound of Lemma 3.7.
func TestCircuitSizeLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	raw := tva.RandomBinary(rng, 4, alphaAB, tree.NewVarSet(0), 0.3)
	a := raw.Homogenize()
	if a.NumStates == 0 {
		t.Skip("degenerate automaton")
	}
	bd := mustBuilder(t, a)
	for _, leaves := range []int{4, 16, 64} {
		bt := tva.RandomBinaryTree(rng, leaves, alphaAB)
		c := bd.Build(bt)
		u, x, v := c.CountGates()
		total := u + x + v
		// Per box: ≤ |Q| unions, ≤ |Q|² times, ≤ |ι| vars.
		bound := bt.Size() * (a.NumStates + a.NumStates*a.NumStates + len(a.Init))
		if total > bound {
			t.Fatalf("leaves=%d: %d gates > bound %d", leaves, total, bound)
		}
		if c.NumBoxes() != bt.Size() {
			t.Fatalf("boxes %d != nodes %d", c.NumBoxes(), bt.Size())
		}
	}
}

// TestTimesGateDeduplication verifies the width remark after Definition
// 3.6: at most w² ×-gates per box thanks to per-pair deduplication.
func TestTimesGateDeduplication(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		raw := tva.RandomBinary(rng, 2+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.6)
		a := raw.Homogenize()
		if a.NumStates == 0 {
			continue
		}
		bd := mustBuilder(t, a)
		bt := tva.RandomBinaryTree(rng, 8, alphaAB)
		c := bd.Build(bt)
		w := c.Width()
		c.Walk(func(b *Box) {
			if len(b.Times) > w*w {
				t.Fatalf("box n%d has %d ×-gates > w² = %d", b.Node, len(b.Times), w*w)
			}
			seen := map[TimesGate]bool{}
			for _, tg := range b.Times {
				if seen[tg] {
					t.Fatalf("box n%d has duplicate ×-gate %v", b.Node, tg)
				}
				seen[tg] = true
			}
		})
	}
}

func TestEvaluatorExample32(t *testing.T) {
	// Example 3.2/3.5 of the paper: a ×-gate over {x} and ({y} ∪ {y,z}).
	// We realize it as a hand-built two-leaf circuit and check the
	// captured set is {{x,y},{x,y,z}}.
	union := []GammaKind{GammaUnion}
	leafL := Assemble(0, nil, nil, union, []int32{0},
		[]VarGate{{Set: tree.NewVarSet(0)}}, nil, []UnionInputs{{Vars: []int32{0}}})
	leafR := Assemble(1, nil, nil, union, []int32{0},
		[]VarGate{{Set: tree.NewVarSet(1)}, {Set: tree.NewVarSet(1, 2)}}, nil, []UnionInputs{{Vars: []int32{0, 1}}})
	root := Assemble(2, leafL, leafR, union, []int32{0},
		nil, []TimesGate{{Left: 0, Right: 0}}, []UnionInputs{{Times: []int32{0}}})
	c := &Circuit{Root: root}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	got := NewEvaluator().Union(root, 0)
	if len(got) != 2 {
		t.Fatalf("S(g) has %d elements, want 2: %v", len(got), got)
	}
	want1 := tree.Assignment{{Var: 0, Node: 0}, {Var: 1, Node: 1}}.Normalize()
	want2 := tree.Assignment{{Var: 0, Node: 0}, {Var: 1, Node: 1}, {Var: 2, Node: 1}}.Normalize()
	if _, ok := got[want1.Key()]; !ok {
		t.Fatalf("missing %v", want1)
	}
	if _, ok := got[want2.Key()]; !ok {
		t.Fatalf("missing %v", want2)
	}
}
