package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/tva"
)

// shapes used across balance tests.
func pathTree(n int) *tree.Unranked {
	t := tree.NewUnranked("a")
	cur := t.Root.ID
	for i := 1; i < n; i++ {
		nn, _ := t.InsertFirstChild(cur, "a")
		cur = nn.ID
	}
	return t
}

func starTree(n int) *tree.Unranked {
	t := tree.NewUnranked("a")
	for i := 1; i < n; i++ {
		_, _ = t.InsertFirstChild(t.Root.ID, "b")
	}
	return t
}

func combTree(n int) *tree.Unranked {
	// A path where every path node also has one leaf child.
	t := tree.NewUnranked("a")
	cur := t.Root.ID
	for i := 1; i < n; i += 2 {
		leaf, _ := t.InsertFirstChild(cur, "b")
		nn, err := t.InsertRightSibling(leaf.ID, "a")
		if err != nil {
			break
		}
		cur = nn.ID
	}
	return t
}

func randomTree(rng *rand.Rand, n int) *tree.Unranked {
	return tva.RandomUnrankedTree(rng, n, []tree.Label{"a", "b", "c"})
}

func TestBuildDecodeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	builders := []func() *tree.Unranked{
		func() *tree.Unranked { return pathTree(1) },
		func() *tree.Unranked { return pathTree(17) },
		func() *tree.Unranked { return starTree(23) },
		func() *tree.Unranked { return combTree(20) },
		func() *tree.Unranked { return randomTree(rng, 40) },
		func() *tree.Unranked { return randomTree(rng, 200) },
	}
	for i, mk := range builders {
		ut := mk()
		f := New(ut)
		if err := ValidateTerm(f.Root); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := DecodeTree(f.Root, ut); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if f.Root.Weight != ut.Size() {
			t.Fatalf("case %d: weight %d != size %d", i, f.Root.Weight, ut.Size())
		}
		// Drain after initial build covers every node exactly once,
		// children first.
		drained := f.DrainDelta().Fresh
		seen := map[*Node]bool{}
		for _, n := range drained {
			if seen[n] {
				t.Fatalf("case %d: node drained twice", i)
			}
			seen[n] = true
			if !n.IsLeaf() && (!seen[n.Left] || !seen[n.Right]) {
				t.Fatalf("case %d: parent drained before child", i)
			}
		}
		if !seen[f.Root] {
			t.Fatalf("case %d: root not drained", i)
		}
	}
}

// TestBuildHeightLogarithmic checks the Lemma 7.4 height guarantee on
// adversarial shapes: built terms must have height O(log n).
func TestBuildHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(name string, ut *tree.Unranked) {
		f := New(ut)
		n := float64(ut.Size())
		bound := 2.2*math.Log2(n+1) + 6
		if float64(f.Root.Height) > bound {
			t.Errorf("%s (n=%d): height %d > %.1f", name, ut.Size(), f.Root.Height, bound)
		}
	}
	for _, n := range []int{10, 100, 1000, 5000} {
		check("path", pathTree(n))
		check("star", starTree(n))
		check("comb", combTree(n))
		check("random", randomTree(rng, n))
	}
}

// applyRandomEdit performs one random valid edit through the Forest and
// returns false if none was possible.
func applyRandomEdit(rng *rand.Rand, f *Forest) bool {
	nodes := f.Tree.Nodes()
	n := nodes[rng.Intn(len(nodes))]
	labels := []tree.Label{"a", "b", "c"}
	switch rng.Intn(4) {
	case 0:
		return f.Relabel(n.ID, labels[rng.Intn(3)]) == nil
	case 1:
		_, err := f.InsertFirstChild(n.ID, labels[rng.Intn(3)])
		return err == nil
	case 2:
		if n.Parent == nil {
			return false
		}
		_, err := f.InsertRightSibling(n.ID, labels[rng.Intn(3)])
		return err == nil
	default:
		if !n.IsLeaf() || n.Parent == nil {
			return false
		}
		return f.Delete(n.ID) == nil
	}
}

// TestEditsPreserveDecode is the core forest fuzz test: after every edit
// the term must still decode to the tree, satisfy the typing rules, stay
// balanced, and the drained trunk must be consistent.
func TestEditsPreserveDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		ut := randomTree(rng, 1+rng.Intn(30))
		f := New(ut)
		f.DrainDelta()
		for step := 0; step < 60; step++ {
			if !applyRandomEdit(rng, f) {
				continue
			}
			if err := ValidateTerm(f.Root); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := DecodeTree(f.Root, f.Tree); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if f.Root.Weight != f.Tree.Size() {
				t.Fatalf("trial %d step %d: weight %d != size %d",
					trial, step, f.Root.Weight, f.Tree.Size())
			}
			bound := f.heightBudget(f.Root.Weight)
			if f.Root.Height > bound {
				t.Fatalf("trial %d step %d: height %d > budget %d",
					trial, step, f.Root.Height, bound)
			}
			trunk := f.DrainDelta().Fresh
			if len(trunk) == 0 {
				t.Fatalf("trial %d step %d: empty trunk after edit", trial, step)
			}
			// Trunk order: children first among trunk members.
			pos := map[*Node]int{}
			for i, n := range trunk {
				pos[n] = i
			}
			for i, n := range trunk {
				for _, c := range []*Node{n.Left, n.Right} {
					if c == nil {
						continue
					}
					if j, ok := pos[c]; ok && j > i {
						t.Fatalf("trial %d step %d: child drained after parent", trial, step)
					}
				}
			}
			// The root must always be in the trunk (its box changes).
			if _, ok := pos[f.Root]; !ok {
				t.Fatalf("trial %d step %d: root missing from trunk", trial, step)
			}
		}
	}
}

// TestAmortizedTrunkLogarithmic runs long random edit sequences on a
// larger tree and checks that the average trunk stays O(log n).
func TestAmortizedTrunkLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ut := randomTree(rng, 3000)
	f := New(ut)
	f.DrainDelta()
	edits, totalTrunk := 0, 0
	for step := 0; step < 2000; step++ {
		if !applyRandomEdit(rng, f) {
			continue
		}
		edits++
		totalTrunk += len(f.DrainDelta().Fresh)
	}
	avg := float64(totalTrunk) / float64(edits)
	limit := 14 * math.Log2(float64(f.Tree.Size()))
	if avg > limit {
		t.Fatalf("amortized trunk %.1f exceeds %.1f (n=%d, rebuilds=%d)",
			avg, limit, f.Tree.Size(), f.Rebuilds)
	}
}

func TestWordBasics(t *testing.T) {
	w, err := NewWord([]tree.Label{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWord(nil); err == nil {
		t.Fatal("empty word should fail")
	}
	ids, labels := w.Letters()
	if len(ids) != 3 || labels[0] != "a" || labels[1] != "b" || labels[2] != "c" {
		t.Fatalf("Letters = %v %v", ids, labels)
	}
	// Positional addressing.
	for i, id := range ids {
		got, err := w.IDAt(i)
		if err != nil || got != id {
			t.Fatalf("IDAt(%d) = %v, %v", i, got, err)
		}
	}
	if _, err := w.IDAt(3); err == nil {
		t.Fatal("IDAt out of range should fail")
	}
	// Edits.
	if _, err := w.InsertAfter(ids[1], "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.InsertBefore(ids[0], "y"); err != nil {
		t.Fatal(err)
	}
	if err := w.Relabel(ids[2], "z"); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	_, labels = w.Letters()
	want := []tree.Label{"y", "b", "x", "z"}
	if len(labels) != len(want) {
		t.Fatalf("word = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("word = %v, want %v", labels, want)
		}
	}
	if err := ValidateTerm(w.Root); err != nil {
		t.Fatal(err)
	}
}

func TestWordEditStormBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, _ := NewWord([]tree.Label{"a"})
	ref := []tree.Label{"a"}
	refIDs := []tree.NodeID{0}
	w.DrainDelta()
	for step := 0; step < 3000; step++ {
		switch rng.Intn(3) {
		case 0: // insert
			i := rng.Intn(len(ref))
			l := tree.Label([]string{"a", "b", "c"}[rng.Intn(3)])
			id, err := w.InsertAfter(refIDs[i], l)
			if err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:i+1], append([]tree.Label{l}, ref[i+1:]...)...)
			refIDs = append(refIDs[:i+1], append([]tree.NodeID{id}, refIDs[i+1:]...)...)
		case 1: // relabel
			i := rng.Intn(len(ref))
			l := tree.Label([]string{"a", "b", "c"}[rng.Intn(3)])
			if err := w.Relabel(refIDs[i], l); err != nil {
				t.Fatal(err)
			}
			ref[i] = l
		default: // delete
			if len(ref) == 1 {
				continue
			}
			i := rng.Intn(len(ref))
			if err := w.Delete(refIDs[i]); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:i], ref[i+1:]...)
			refIDs = append(refIDs[:i], refIDs[i+1:]...)
		}
		if step%100 == 0 {
			if err := ValidateTerm(w.Root); err != nil {
				t.Fatal(err)
			}
		}
		_, labels := w.Letters()
		if len(labels) != len(ref) {
			t.Fatalf("step %d: length %d != %d", step, len(labels), len(ref))
		}
		for i := range ref {
			if labels[i] != ref[i] {
				t.Fatalf("step %d: word %v != ref %v", step, labels, ref)
			}
		}
		if w.Root.Height > w.heightBudget(w.Root.Weight) {
			t.Fatalf("step %d: height %d over budget", step, w.Root.Height)
		}
	}
}

// TestTranslateFaithful is the Lemma 7.4 faithfulness check: the
// satisfying assignments of A on T equal those of A′ on the term.
func TestTranslateFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	alpha := []tree.Label{"a", "b"}
	trials := 0
	for trials < 40 {
		a := tva.RandomUnranked(rng, 1+rng.Intn(3), alpha, tree.NewVarSet(0), 0.4)
		ut := randomTree(rng, 1+rng.Intn(5))
		want, err := a.SatisfyingAssignments(ut, 6)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		ab, err := Translate(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := ab.Validate(); err != nil {
			t.Fatal(err)
		}
		f := New(ut)
		bt := ToBinary(f.Root)
		got, err := ab.SatisfyingAssignments(bt, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d assignments, want %d\ntree: %s\ngot: %v\nwant: %v",
				trials, len(got), len(want), ut, got, want)
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("trial %d: missing %q", trials, k)
			}
		}
	}
}

// TestTranslateWordFaithful checks Corollary 8.4 on random WVAs and
// random words.
func TestTranslateWordFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := []tree.Label{"a", "b"}
	for trial := 0; trial < 40; trial++ {
		a := randomWVA(rng, 1+rng.Intn(3), alpha, tree.NewVarSet(0), 0.4)
		n := 1 + rng.Intn(6)
		letters := make([]tree.Label, n)
		for i := range letters {
			letters[i] = alpha[rng.Intn(2)]
		}
		w, err := NewWord(letters)
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := w.Letters()
		want, err := a.SatisfyingAssignments(letters, ids, 8)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := TranslateWord(a)
		if err != nil {
			t.Fatal(err)
		}
		bt := ToBinary(w.Root)
		got, err := ab.SatisfyingAssignments(bt, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d (word %v)", trial, len(got), len(want), letters)
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("trial %d: missing %q", trial, k)
			}
		}
	}
}

func randomWVA(rng *rand.Rand, states int, alpha []tree.Label, vars tree.VarSet, density float64) *tva.WVA {
	a := &tva.WVA{NumStates: states, Alphabet: alpha, Vars: vars}
	subsets := []tree.VarSet{}
	tree.SubsetsOf(vars, func(s tree.VarSet) { subsets = append(subsets, s) })
	for q := 0; q < states; q++ {
		for _, l := range alpha {
			for _, s := range subsets {
				for p := 0; p < states; p++ {
					if rng.Float64() < density {
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

// TestTranslationSizeBounds checks the Lemma 7.4 / Corollary 8.4 size
// bounds before trimming obscures them: |Q′| = O(|Q|⁴) for trees and
// O(|Q|²) for words.
func TestTranslationSizeBounds(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	for k := 1; k <= 4; k++ {
		a := tva.DescendantAtDepth(alpha, "b", k, 0)
		n := a.NumStates + 2
		ab, err := Translate(a)
		if err != nil {
			t.Fatal(err)
		}
		if ab.NumStates > n*n*n*n+n*n {
			t.Fatalf("k=%d: %d states > |Q|⁴ bound", k, ab.NumStates)
		}
	}
}
