package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// buildRandom returns a random circuit with its builder, or nil if the
// automaton degenerated to nothing.
func buildRandom(rng *rand.Rand, states, leaves int, vars tree.VarSet) (*circuit.Builder, *circuit.Circuit) {
	raw := tva.RandomBinary(rng, states, alphaAB, vars, 0.4)
	a := raw.Homogenize()
	if a.NumStates == 0 {
		return nil, nil
	}
	bd, err := circuit.NewBuilder(a)
	if err != nil {
		panic(err)
	}
	bt := tva.RandomBinaryTree(rng, leaves, alphaAB)
	c := bd.Build(bt)
	return bd, c
}

// allNodes lists the wrappers of an indexed circuit bottom-up.
func allNodes(root *IndexedBox) []*IndexedBox {
	var out []*IndexedBox
	root.Walk(func(n *IndexedBox) { out = append(out, n) })
	return out
}

// wantSet evaluates S(Γ) by brute force.
func wantSet(b *circuit.Box, gamma bitset.Set) map[string]tree.Assignment {
	ev := circuit.NewEvaluator()
	out := map[string]tree.Assignment{}
	gamma.ForEach(func(u int) bool {
		for k, v := range ev.Union(b, u) {
			out[k] = v
		}
		return true
	})
	return out
}

// TestModesMatchBruteForce cross-checks both enumeration modes
// against the captured-set semantics on random boxed sets of random
// circuits, including duplicate-freeness and provenance.
func TestModesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 0
	for trials < 120 {
		_, c := buildRandom(rng, 1+rng.Intn(3), 1+rng.Intn(8), tree.NewVarSet(0, 1))
		if c == nil || c.Root == nil {
			continue
		}
		trials++
		root := BuildIndex(c)
		boxes := allNodes(root)
		// Pick a random box with ∪-gates and a random boxed set.
		b := boxes[rng.Intn(len(boxes))]
		if len(b.Box.Unions) == 0 {
			continue
		}
		gamma := bitset.NewSet(len(b.Box.Unions))
		for u := range b.Box.Unions {
			if rng.Intn(2) == 0 {
				gamma.Add(u)
			}
		}
		if gamma.Empty() {
			gamma.Add(rng.Intn(len(b.Box.Unions)))
		}
		want := wantSet(b.Box, gamma)
		ev := circuit.NewEvaluator()

		for _, mode := range []Mode{ModeIndexed, ModeNaive} {
			got := map[string]bool{}
			for rope, prov := range Boxwise(b, gamma, mode) {
				asg := rope.Materialize()
				k := asg.Key()
				if got[k] {
					t.Fatalf("mode %d: duplicate assignment %v", mode, asg)
				}
				got[k] = true
				if _, ok := want[k]; !ok {
					t.Fatalf("mode %d: spurious assignment %v", mode, asg)
				}
				// Provenance must be exactly {g ∈ Γ : S ∈ S(g)}.
				wantProv := bitset.NewSet(len(b.Box.Unions))
				gamma.ForEach(func(u int) bool {
					if _, ok := ev.Union(b.Box, u)[k]; ok {
						wantProv.Add(u)
					}
					return true
				})
				if !prov.Equal(wantProv) {
					t.Fatalf("mode %d: prov of %v = %v, want %v", mode, asg, prov, wantProv)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("mode %d: got %d assignments, want %d", mode, len(got), len(want))
			}
		}
	}
}

// TestBoxEnumStrategiesAgree checks that Algorithm 3 yields exactly the
// same set of (box, relation) pairs as the naive DFS, with the first
// interesting box (in preorder) first, as Figure 1 sketches.
func TestBoxEnumStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trials := 0
	for trials < 120 {
		_, c := buildRandom(rng, 1+rng.Intn(3), 2+rng.Intn(10), tree.NewVarSet(0))
		if c == nil || c.Root == nil || len(c.Root.Unions) == 0 {
			continue
		}
		trials++
		root := BuildIndex(c)
		boxes := allNodes(root)
		b := boxes[rng.Intn(len(boxes))]
		if len(b.Box.Unions) == 0 {
			continue
		}
		gamma := bitset.NewSet(len(b.Box.Unions))
		for u := range b.Box.Unions {
			if rng.Intn(2) == 0 {
				gamma.Add(u)
			}
		}
		if gamma.Empty() {
			gamma.Add(rng.Intn(len(b.Box.Unions)))
		}

		naive := map[*IndexedBox]bitset.Matrix{}
		var naiveOrder []*IndexedBox
		for br := range NaiveBoxEnum(b, gamma) {
			if _, dup := naive[br.Box]; dup {
				t.Fatal("naive box-enum yielded a box twice")
			}
			naive[br.Box] = br.R
			naiveOrder = append(naiveOrder, br.Box)
		}
		indexed := map[*IndexedBox]bitset.Matrix{}
		first := true
		for br := range IndexedBoxEnum(b, gamma) {
			if _, dup := indexed[br.Box]; dup {
				t.Fatal("indexed box-enum yielded a box twice")
			}
			indexed[br.Box] = br.R
			if first {
				first = false
				// The DFS preorder-first interesting box must be the
				// indexed enumeration's first output (fib property).
				if len(naiveOrder) > 0 && naiveOrder[0] != br.Box {
					t.Fatalf("indexed first box is not fib: got n%d, want n%d",
						br.Box.Box.Node, naiveOrder[0].Box.Node)
				}
			}
		}
		if len(naive) != len(indexed) {
			t.Fatalf("box sets differ: naive %d, indexed %d", len(naive), len(indexed))
		}
		for bx, r := range naive {
			r2, ok := indexed[bx]
			if !ok {
				t.Fatalf("indexed missing box n%d", bx.Box.Node)
			}
			if !r.Equal(r2) {
				t.Fatalf("relation differs for box n%d:\nnaive:\n%sindexed:\n%s", bx.Box.Node, r, r2)
			}
		}
	}
}

// TestRootEnumerationMatchesAutomaton runs the full pipeline on random
// automata and trees: root boxed set Γ + empty flag must enumerate the
// satisfying assignments exactly.
func TestRootEnumerationMatchesAutomaton(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trials := 0
	for trials < 80 {
		raw := tva.RandomBinary(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.4)
		a := raw.Homogenize()
		if a.NumStates == 0 {
			continue
		}
		trials++
		bd, err := circuit.NewBuilder(a)
		if err != nil {
			t.Fatal(err)
		}
		bt := tva.RandomBinaryTree(rng, 1+rng.Intn(6), alphaAB)
		c := bd.Build(bt)
		root := BuildIndex(c)
		gamma, emptyOK := bd.RootAccepting(c)
		want, err := a.SatisfyingAssignments(bt, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeIndexed, ModeNaive} {
			got := map[string]bool{}
			for asg := range Assignments(root, gamma, emptyOK, mode) {
				k := asg.Key()
				if got[k] {
					t.Fatalf("mode %d: duplicate %v", mode, asg)
				}
				got[k] = true
			}
			if len(got) != len(want) {
				t.Fatalf("mode %d: got %d, want %d", mode, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("mode %d: missing %q", mode, k)
				}
			}
		}
	}
}

// TestDeepChainJump builds a deep left-comb tree with activity only at
// the bottom and checks that the index's fib pointer jumps straight to
// it: the number of boxes the indexed enumeration visits must not depend
// on the depth.
func TestDeepChainJump(t *testing.T) {
	// Query: select one a-labeled leaf (variable X0); tree: left comb
	// with all leaves labeled b except the deepest, labeled a.
	x := tree.NewVarSet(0)
	raw := &tva.Binary{
		NumStates: 2,
		Alphabet:  alphaAB,
		Vars:      x,
		Init: []tva.InitRule{
			{Label: "a", Set: 0, State: 0}, {Label: "b", Set: 0, State: 0},
			{Label: "a", Set: x, State: 1},
		},
		Final: []tva.State{1},
	}
	for _, l := range alphaAB {
		raw.Delta = append(raw.Delta,
			tva.Triple{Label: l, Left: 0, Right: 0, Out: 0},
			tva.Triple{Label: l, Left: 1, Right: 0, Out: 1},
			tva.Triple{Label: l, Left: 0, Right: 1, Out: 1},
		)
	}
	a := raw.Homogenize()
	bd, err := circuit.NewBuilder(a)
	if err != nil {
		t.Fatal(err)
	}
	bt := tree.NewBinary()
	cur := bt.Leaf("a") // the only a-leaf, deepest
	for i := 0; i < 200; i++ {
		cur = bt.Inner("b", cur, bt.Leaf("b"))
	}
	bt.SetRoot(cur)
	c := bd.Build(bt)
	root := BuildIndex(c)
	gamma, emptyOK := bd.RootAccepting(c)
	if emptyOK {
		t.Fatal("empty valuation should not be accepted")
	}
	n := 0
	var boxesVisited int
	for br := range IndexedBoxEnum(root, gamma) {
		boxesVisited++
		_ = br
	}
	for asg := range Assignments(root, gamma, false, ModeIndexed) {
		n++
		if len(asg) != 1 {
			t.Fatalf("assignment size %d", len(asg))
		}
	}
	if n != 1 {
		t.Fatalf("got %d assignments, want 1", n)
	}
	// Only the single interesting leaf box should be yielded by
	// box-enum, despite depth 200.
	if boxesVisited != 1 {
		t.Fatalf("indexed box-enum yielded %d boxes, want 1", boxesVisited)
	}
}

// TestIndexTargetsSmall sanity-checks that per-box target lists stay
// small (O(width)) rather than growing with the tree.
func TestIndexTargetsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		_, c := buildRandom(rng, 3, 64, tree.NewVarSet(0))
		if c == nil || c.Root == nil {
			continue
		}
		root := BuildIndex(c)
		w := c.Width()
		bound := 6*w + 2
		root.Walk(func(n *IndexedBox) {
			idx := n.Index
			if len(idx.Targets) > bound {
				t.Fatalf("box n%d has %d targets > bound %d (w=%d)", n.Box.Node, len(idx.Targets), bound, w)
			}
		})
	}
}

func TestRopeMaterialize(t *testing.T) {
	r := Concat(LeafRope(tree.NewVarSet(0, 2), 5), LeafRope(tree.NewVarSet(1), 7))
	if r.Size() != 3 {
		t.Fatalf("Size = %d", r.Size())
	}
	asg := r.Materialize()
	want := tree.Assignment{{Var: 0, Node: 5}, {Var: 2, Node: 5}, {Var: 1, Node: 7}}.Normalize()
	if asg.Key() != want.Key() {
		t.Fatalf("Materialize = %v, want %v", asg, want)
	}
}

func TestEmptyGammaAndEmptyFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, c := buildRandom(rng, 2, 3, tree.NewVarSet(0))
	if c == nil || c.Root == nil {
		t.Skip("degenerate")
	}
	root := BuildIndex(c)
	empty := bitset.NewSet(len(c.Root.Unions))
	got := collectSeq(Assignments(root, empty, true, ModeIndexed))
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("want exactly the empty assignment, got %v", got)
	}
	got = collectSeq(Assignments(root, empty, false, ModeIndexed))
	if len(got) != 0 {
		t.Fatalf("want nothing, got %v", got)
	}
}
