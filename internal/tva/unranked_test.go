package tva

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

func TestSelectLabelSemantics(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	q := SelectLabel(alpha, "a", 0)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, _ := tree.ParseUnranked("(a (b) (a (b) (a)))")
	got, err := q.SatisfyingAssignments(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The tree has 3 a-nodes.
	if len(got) != 3 {
		t.Fatalf("got %d assignments, want 3: %v", len(got), got)
	}
	for _, asg := range got {
		if len(asg) != 1 {
			t.Fatalf("assignment %v should be a single singleton", asg)
		}
		n := tr.Node(asg[0].Node)
		if n == nil || n.Label != "a" {
			t.Fatalf("assignment %v does not select an a-node", asg)
		}
	}
}

func TestMarkedAncestorSemantics(t *testing.T) {
	q := MarkedAncestor("m", "u", "s", 0)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tree: root u, child m with children [s, u(s)], plus an s directly
	// under the root (no marked ancestor).
	tr, _ := tree.ParseUnranked("(u (m (s) (u (s))) (s))")
	got, err := q.SatisfyingAssignments(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The two s-nodes under m qualify; the s directly under root does not.
	if len(got) != 2 {
		t.Fatalf("got %d assignments, want 2: %v", len(got), got)
	}
	for _, asg := range got {
		n := tr.Node(asg[0].Node)
		if n.Label != "s" {
			t.Fatalf("selected node is %q, want s", n.Label)
		}
		// Verify it really has a marked proper ancestor.
		found := false
		for p := n.Parent; p != nil; p = p.Parent {
			if p.Label == "m" {
				found = true
			}
		}
		if !found {
			t.Fatalf("selected node n%d has no marked ancestor", n.ID)
		}
	}
}

func TestMarkedAncestorSelfDoesNotCount(t *testing.T) {
	q := MarkedAncestor("m", "u", "s", 0)
	// A single special root: no proper ancestor.
	tr, _ := tree.ParseUnranked("(s)")
	got, err := q.SatisfyingAssignments(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("root should not qualify: %v", got)
	}
}

func TestDescendantAtDepthSemantics(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	for k := 1; k <= 3; k++ {
		q := DescendantAtDepth(alpha, "b", k, 0)
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		tr, _ := tree.ParseUnranked("(a (a (b (b))) (b))")
		got, err := q.SatisfyingAssignments(tr, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Independent check: enumerate nodes x with a b-descendant at
		// depth exactly k.
		want := map[tree.NodeID]bool{}
		var depthOK func(n *tree.UNode, d int) bool
		depthOK = func(n *tree.UNode, d int) bool {
			if d == 0 {
				return n.Label == "b"
			}
			for c := n.FirstChild; c != nil; c = c.NextSib {
				if depthOK(c, d-1) {
					return true
				}
			}
			return false
		}
		for _, n := range tr.Nodes() {
			for c := n.FirstChild; c != nil; c = c.NextSib {
				if depthOK(c, k-1) {
					want[n.ID] = true
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d, want %d (%v)", k, len(got), len(want), got)
		}
		for _, asg := range got {
			if !want[asg[0].Node] {
				t.Fatalf("k=%d: unexpected node %d", k, asg[0].Node)
			}
		}
	}
}

func TestLeafCountSemantics(t *testing.T) {
	alpha := []tree.Label{"a"}
	trees := []string{"(a)", "(a (a))", "(a (a) (a))", "(a (a (a) (a)) (a))", "(a (a) (a) (a))"}
	leafCounts := []int{1, 1, 2, 3, 3}
	for m := 1; m <= 3; m++ {
		for r := 0; r < m; r++ {
			q := LeafCount(alpha, m, r)
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			for i, s := range trees {
				tr, _ := tree.ParseUnranked(s)
				want := leafCounts[i]%m == r
				if got := q.Accepts(tr, tree.Valuation{}); got != want {
					t.Fatalf("m=%d r=%d tree %s: accepts=%v want %v", m, r, s, got, want)
				}
			}
		}
	}
}

func TestUnrankedUnionIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alpha := []tree.Label{"a", "b"}
	vars := tree.NewVarSet(0)
	for trial := 0; trial < 25; trial++ {
		a := RandomUnranked(rng, 1+rng.Intn(3), alpha, vars, 0.4)
		b := RandomUnranked(rng, 1+rng.Intn(3), alpha, vars, 0.4)
		u := UnionUnranked(a, b)
		x := IntersectUnranked(a, b)
		tr := RandomUnrankedTree(rng, 1+rng.Intn(4), alpha)
		wa, _ := a.SatisfyingAssignments(tr, 6)
		wb, _ := b.SatisfyingAssignments(tr, 6)
		wu, _ := u.SatisfyingAssignments(tr, 6)
		wx, _ := x.SatisfyingAssignments(tr, 6)
		wantU := map[string]tree.Assignment{}
		for k, v := range wa {
			wantU[k] = v
		}
		for k, v := range wb {
			wantU[k] = v
		}
		sameAssignments(t, "union", wantU, wu)
		wantX := map[string]tree.Assignment{}
		for k, v := range wa {
			if _, ok := wb[k]; ok {
				wantX[k] = v
			}
		}
		sameAssignments(t, "intersect", wantX, wx)
	}
}

func TestUnrankedDeterminizeComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alpha := []tree.Label{"a", "b"}
	vars := tree.NewVarSet(0)
	for trial := 0; trial < 20; trial++ {
		a := RandomUnranked(rng, 1+rng.Intn(3), alpha, vars, 0.4)
		d := DeterminizeUnranked(a)
		c := ComplementUnranked(a)
		tr := RandomUnrankedTree(rng, 1+rng.Intn(3), alpha)
		nodes := tr.Nodes()
		subsets := []tree.VarSet{}
		tree.SubsetsOf(vars, func(s tree.VarSet) { subsets = append(subsets, s) })
		var rec func(i int, nu tree.Valuation)
		rec = func(i int, nu tree.Valuation) {
			if i == len(nodes) {
				av := a.Accepts(tr, nu)
				if av != d.Accepts(tr, nu) {
					t.Fatalf("trial %d: determinization differs on %v", trial, nu)
				}
				if av == c.Accepts(tr, nu) {
					t.Fatalf("trial %d: complement agrees on %v", trial, nu)
				}
				return
			}
			for _, s := range subsets {
				if s == 0 {
					delete(nu, nodes[i].ID)
				} else {
					nu[nodes[i].ID] = s
				}
				rec(i+1, nu)
			}
			delete(nu, nodes[i].ID)
		}
		rec(0, tree.Valuation{})
	}
}

func TestProjectCylindrify(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	// Query: X0 selects an a-node, X1 selects a b-node (via product of two
	// SelectLabel automata over a shared universe).
	qa := Cylindrify(SelectLabel(alpha, "a", 0), tree.NewVarSet(0, 1))
	qb := Cylindrify(SelectLabel(alpha, "b", 1), tree.NewVarSet(0, 1))
	both := IntersectUnranked(qa, qb)
	tr, _ := tree.ParseUnranked("(a (b) (a))")
	got, err := both.SatisfyingAssignments(tr, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 2 a-nodes × 1 b-node = 2 assignments.
	if len(got) != 2 {
		t.Fatalf("product: got %d, want 2: %v", len(got), got)
	}
	// Projecting X1 away leaves "X0 selects an a-node and some b-node
	// exists".
	proj := Project(both, 1)
	got2, err := proj.SatisfyingAssignments(tr, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 {
		t.Fatalf("project: got %d, want 2: %v", len(got2), got2)
	}
	for _, asg := range got2 {
		if len(asg) != 1 || asg[0].Var != 0 {
			t.Fatalf("project left foreign variables: %v", asg)
		}
	}
	if proj.Vars != tree.NewVarSet(0) {
		t.Fatalf("project universe = %v", proj.Vars)
	}
}

func TestUnrankedTrimPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	alpha := []tree.Label{"a", "b"}
	for trial := 0; trial < 25; trial++ {
		a := RandomUnranked(rng, 1+rng.Intn(4), alpha, tree.NewVarSet(0), 0.4)
		tr := a.Trim()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		ut := RandomUnrankedTree(rng, 1+rng.Intn(4), alpha)
		want, _ := a.SatisfyingAssignments(ut, 6)
		got, _ := tr.SatisfyingAssignments(ut, 6)
		sameAssignments(t, "trim", want, got)
	}
}
