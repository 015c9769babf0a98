package forest

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// randomFragment builds a small random fragment tree for graft edits.
func randomFragment(rng *rand.Rand) *tree.Unranked {
	labels := []tree.Label{"a", "b", "c"}
	t := tree.NewUnranked(labels[rng.Intn(3)])
	ids := []tree.NodeID{t.Root.ID}
	for i := 0; i < rng.Intn(6); i++ {
		v, err := t.InsertFirstChild(ids[rng.Intn(len(ids))], labels[rng.Intn(3)])
		if err == nil {
			ids = append(ids, v.ID)
		}
	}
	return t
}

// applyRandomStructuralEdit performs one random edit — leaf or
// structural — through the Forest and reports whether one happened.
func applyRandomStructuralEdit(rng *rand.Rand, f *Forest) bool {
	nodes := f.Tree.Nodes()
	n := nodes[rng.Intn(len(nodes))]
	labels := []tree.Label{"a", "b", "c"}
	switch rng.Intn(9) {
	case 0:
		return f.Relabel(n.ID, labels[rng.Intn(3)]) == nil
	case 1:
		_, err := f.InsertFirstChild(n.ID, labels[rng.Intn(3)])
		return err == nil
	case 2:
		_, err := f.InsertRightSibling(n.ID, labels[rng.Intn(3)])
		return err == nil
	case 3:
		if !n.IsLeaf() {
			return false
		}
		return f.Delete(n.ID) == nil
	case 4:
		return f.DeleteSubtree(n.ID) == nil
	case 5, 6:
		dest := nodes[rng.Intn(len(nodes))]
		if rng.Intn(2) == 0 {
			return f.MoveSubtreeFirstChild(n.ID, dest.ID) == nil
		}
		return f.MoveSubtreeRightSibling(n.ID, dest.ID) == nil
	default:
		frag := randomFragment(rng)
		if rng.Intn(2) == 0 {
			_, err := f.InsertSubtreeFirstChild(n.ID, frag)
			return err == nil
		}
		_, err := f.InsertSubtreeRightSibling(n.ID, frag)
		return err == nil
	}
}

// TestStructuralEditsPreserveDecode is the structural-edit counterpart
// of TestEditsPreserveDecode: after every subtree insert/delete/move the
// term must still decode to the tree, satisfy the typing rules, keep the
// height budget at EVERY node, and drain a consistent trunk.
func TestStructuralEditsPreserveDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		ut := randomTree(rng, 1+rng.Intn(40))
		f := New(ut)
		f.DrainDelta()
		for step := 0; step < 50; step++ {
			if !applyRandomStructuralEdit(rng, f) {
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
			if err := f.CheckBalanceDeep(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			d := f.DrainDelta()
			if len(d.Fresh) > 0 {
				pos := map[*Node]int{}
				for i, n := range d.Fresh {
					pos[n] = i
				}
				for i, n := range d.Fresh {
					for _, c := range []*Node{n.Left, n.Right} {
						if c == nil {
							continue
						}
						if j, ok := pos[c]; ok && j > i {
							t.Fatalf("trial %d step %d: child drained after parent", trial, step)
						}
					}
				}
			}
			// Every moved root must be attached, disjoint from Fresh, and
			// hold only nodes absent from Fresh and Retired.
			inFresh := map[*Node]bool{}
			for _, n := range d.Fresh {
				inFresh[n] = true
			}
			inRetired := map[*Node]bool{}
			for _, n := range d.Retired {
				inRetired[n] = true
			}
			for _, m := range d.Moved {
				if !f.attached(m) {
					t.Fatalf("trial %d step %d: moved root not attached", trial, step)
				}
				m.Walk(func(x *Node) {
					if inFresh[x] || inRetired[x] {
						t.Fatalf("trial %d step %d: moved subterm overlaps fresh/retired", trial, step)
					}
				})
			}
		}
	}
}

// TestMoveSubtreeSharesWholesale pins the reuse contract: moving a large
// subtree must report Moved roots covering nearly all of it, with a
// fresh-trunk footprint that does not scale with the subtree size.
func TestMoveSubtreeSharesWholesale(t *testing.T) {
	// A root with two children: a big subtree under x and a small one
	// under y; move x's subtree below y.
	ut := tree.NewUnranked("r")
	x, _ := ut.InsertFirstChild(ut.Root.ID, "x")
	y, _ := ut.InsertRightSibling(x.ID, "y")
	cur := x.ID
	for i := 0; i < 2000; i++ {
		v, err := ut.InsertFirstChild(cur, "a")
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			cur = v.ID
		}
	}
	f := New(ut)
	f.DrainDelta()
	if err := f.MoveSubtreeFirstChild(x.ID, y.ID); err != nil {
		t.Fatal(err)
	}
	if err := DecodeTree(f.Root, f.Tree); err != nil {
		t.Fatal(err)
	}
	d := f.DrainDelta()
	movedWeight := 0
	for _, m := range d.Moved {
		movedWeight += m.Weight
	}
	sub := f.Tree.SubtreeSize(x.ID)
	if movedWeight < sub/2 {
		t.Fatalf("moved weight %d does not cover subtree of %d nodes", movedWeight, sub)
	}
	if len(d.Fresh) > 200 {
		t.Fatalf("fresh trunk %d scales with subtree size %d", len(d.Fresh), sub)
	}
	t.Logf("subtree=%d movedWeight=%d movedRoots=%d fresh=%d retired=%d",
		sub, movedWeight, len(d.Moved), len(d.Fresh), len(d.Retired))
}

// TestDeepSkewStressTree repeatedly moves a growing subtree onto one end
// of a path — adversarial skew that must trigger scapegoat rebuilds and
// still keep every invariant, including the per-node height budget.
func TestDeepSkewStressTree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ut := randomTree(rng, 60)
	f := New(ut)
	f.DrainDelta()
	frag := tree.NewUnranked("s")
	_, _ = frag.InsertFirstChild(frag.Root.ID, "s")
	deep := ut.Root.ID
	for i := 0; i < 600; i++ {
		v, err := f.InsertSubtreeFirstChild(deep, frag)
		if err != nil {
			t.Fatal(err)
		}
		deep = v
		if i%7 == 3 {
			// Periodically move the whole deep chain under a random node.
			nodes := f.Tree.Nodes()
			dest := nodes[rng.Intn(len(nodes))]
			kids := f.Tree.Node(f.Tree.Root.ID).FirstChild
			if kids != nil && f.MoveSubtreeFirstChild(kids.ID, dest.ID) == nil && f.Tree.Node(deep) == nil {
				deep = f.Tree.Root.ID
			}
		}
		if f.Tree.Node(deep) == nil {
			deep = f.Tree.Root.ID
		}
		f.DrainDelta()
	}
	if f.Rebuilds == 0 {
		t.Fatal("deep-skew structural growth never triggered a rebuild")
	}
	if err := f.CheckBalanceDeep(); err != nil {
		t.Fatal(err)
	}
	if err := DecodeTree(f.Root, f.Tree); err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d rebuilds=%d rebuiltWeight=%d height=%d", f.Tree.Size(), f.Rebuilds, f.RebuiltWeight, f.Root.Height)
}

// TestWordRangeOps fuzzes the rope edits (MoveRange / InsertRange /
// DeleteRange / Concat) against a reference slice, checking content, ID
// stability of moved letters, and the height budget after every edit.
func TestWordRangeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	labels := []tree.Label{"a", "b", "c"}
	w, err := NewWord([]tree.Label{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	refIDs, refLabels := w.Letters()
	w.DrainDelta()
	for step := 0; step < 1500; step++ {
		switch rng.Intn(4) {
		case 0: // MoveRange
			if len(refIDs) < 2 {
				continue
			}
			from := rng.Intn(len(refIDs))
			k := 1 + rng.Intn(len(refIDs)-from)
			if k == len(refIDs) {
				continue
			}
			dest := rng.Intn(len(refIDs)-k+1) - 1
			if err := w.MoveRange(from, k, dest); err != nil {
				t.Fatalf("step %d: MoveRange(%d,%d,%d): %v", step, from, k, dest, err)
			}
			mIDs := append([]tree.NodeID(nil), refIDs[from:from+k]...)
			mLabels := append([]tree.Label(nil), refLabels[from:from+k]...)
			refIDs = append(refIDs[:from], refIDs[from+k:]...)
			refLabels = append(refLabels[:from], refLabels[from+k:]...)
			refIDs = append(refIDs[:dest+1], append(mIDs, refIDs[dest+1:]...)...)
			refLabels = append(refLabels[:dest+1], append(mLabels, refLabels[dest+1:]...)...)
		case 1: // InsertRange
			pos := rng.Intn(len(refIDs) + 1)
			m := 1 + rng.Intn(5)
			ls := make([]tree.Label, m)
			for i := range ls {
				ls[i] = labels[rng.Intn(3)]
			}
			ids, err := w.InsertRange(pos, ls)
			if err != nil {
				t.Fatalf("step %d: InsertRange: %v", step, err)
			}
			refIDs = append(refIDs[:pos], append(append([]tree.NodeID(nil), ids...), refIDs[pos:]...)...)
			refLabels = append(refLabels[:pos], append(append([]tree.Label(nil), ls...), refLabels[pos:]...)...)
		case 2: // DeleteRange
			if len(refIDs) < 2 {
				continue
			}
			from := rng.Intn(len(refIDs))
			k := 1 + rng.Intn(len(refIDs)-from)
			if k == len(refIDs) {
				continue
			}
			if err := w.DeleteRange(from, k); err != nil {
				t.Fatalf("step %d: DeleteRange: %v", step, err)
			}
			refIDs = append(refIDs[:from], refIDs[from+k:]...)
			refLabels = append(refLabels[:from], refLabels[from+k:]...)
		default: // Concat
			m := 1 + rng.Intn(4)
			ls := make([]tree.Label, m)
			for i := range ls {
				ls[i] = labels[rng.Intn(3)]
			}
			ids, err := w.Concat(ls)
			if err != nil {
				t.Fatalf("step %d: Concat: %v", step, err)
			}
			refIDs = append(refIDs, ids...)
			refLabels = append(refLabels, ls...)
		}
		gotIDs, gotLabels := w.Letters()
		if len(gotIDs) != len(refIDs) || w.Len() != len(refIDs) {
			t.Fatalf("step %d: length %d/%d != %d", step, len(gotIDs), w.Len(), len(refIDs))
		}
		for i := range refIDs {
			if gotIDs[i] != refIDs[i] || gotLabels[i] != refLabels[i] {
				t.Fatalf("step %d: position %d: got (%d,%s), want (%d,%s)",
					step, i, gotIDs[i], gotLabels[i], refIDs[i], refLabels[i])
			}
		}
		if err := ValidateTerm(w.Root); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := w.CheckBalanceDeep(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		w.DrainDelta()
	}
}

// TestDeepSkewStressWord drives the rope from one end — repeated concat
// of small runs, then repeated front deletions — which must trigger
// rebalances while every invariant holds.
func TestDeepSkewStressWord(t *testing.T) {
	w, err := NewWord([]tree.Label{"a"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		if _, err := w.Concat([]tree.Label{"b", "c"}); err != nil {
			t.Fatal(err)
		}
		if err := w.CheckBalanceDeep(); err != nil {
			t.Fatalf("concat %d: %v", i, err)
		}
		w.DrainDelta()
	}
	for w.Len() > 2 {
		if err := w.DeleteRange(0, 2); err != nil {
			t.Fatal(err)
		}
		if err := w.CheckBalanceDeep(); err != nil {
			t.Fatalf("len %d: %v", w.Len(), err)
		}
		w.DrainDelta()
	}
	if w.Rebuilds == 0 {
		t.Fatal("one-ended rope growth never triggered a rebuild")
	}
	if err := ValidateTerm(w.Root); err != nil {
		t.Fatal(err)
	}
	t.Logf("rebuilds=%d len=%d height=%d", w.Rebuilds, w.Len(), w.Root.Height)
}
