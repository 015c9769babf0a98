package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/tree"
)

// bruteReach computes the set of ∪-gates of each descendant box reachable
// from gamma by ∪-paths, by naive propagation. Returns a map from box to
// the gate set.
func bruteReach(b *circuit.Box, gamma bitset.Set) map[*circuit.Box]bitset.Set {
	out := map[*circuit.Box]bitset.Set{}
	var rec func(bx *circuit.Box, gates bitset.Set)
	rec = func(bx *circuit.Box, gates bitset.Set) {
		if gates.Empty() {
			return
		}
		out[bx] = gates
		if bx.IsLeaf() {
			return
		}
		left := bitset.NewSet(len(bx.Left.Unions))
		right := bitset.NewSet(len(bx.Right.Unions))
		gates.ForEach(func(g int) bool {
			for _, l := range bx.UnionLeft(g) {
				left.Add(int(l))
			}
			for _, r := range bx.UnionRight(g) {
				right.Add(int(r))
			}
			return true
		})
		rec(bx.Left, left)
		rec(bx.Right, right)
	}
	rec(b, gamma)
	return out
}

// bruteFib returns the preorder-first interesting box for gamma, or nil.
func bruteFib(b *circuit.Box, gamma bitset.Set) *circuit.Box {
	reach := bruteReach(b, gamma)
	var first *circuit.Box
	var pre func(bx *circuit.Box)
	pre = func(bx *circuit.Box) {
		if bx == nil || first != nil {
			return
		}
		if gates, ok := reach[bx]; ok {
			intr := false
			gates.ForEach(func(g int) bool {
				if bx.HasLocal(g) {
					intr = true
					return false
				}
				return true
			})
			if intr {
				first = bx
				return
			}
		}
		pre(bx.Left)
		pre(bx.Right)
	}
	pre(b)
	return first
}

// bruteFbb returns the preorder-first bidirectional box for gamma, or
// nil: the first box (in preorder) whose reachable gate set has ∪-wires
// into both children.
func bruteFbb(b *circuit.Box, gamma bitset.Set) *circuit.Box {
	reach := bruteReach(b, gamma)
	var first *circuit.Box
	var pre func(bx *circuit.Box)
	pre = func(bx *circuit.Box) {
		if bx == nil || first != nil {
			return
		}
		if gates, ok := reach[bx]; ok && !bx.IsLeaf() {
			hasL, hasR := false, false
			gates.ForEach(func(g int) bool {
				if len(bx.UnionLeft(g)) > 0 {
					hasL = true
				}
				if len(bx.UnionRight(g)) > 0 {
					hasR = true
				}
				return true
			})
			if hasL && hasR {
				first = bx
				return
			}
		}
		pre(bx.Left)
		pre(bx.Right)
	}
	pre(b)
	return first
}

// TestIndexFibFbbAgainstBruteForce validates the jump pointers of
// Definition 6.1 on random circuits and random boxed sets: the folded
// fib/fbb must equal the independently computed preorder-first
// interesting / bidirectional box.
func TestIndexFibFbbAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trials := 0
	for trials < 300 {
		_, c := buildRandom(rng, 1+rng.Intn(3), 1+rng.Intn(12), tree.NewVarSet(0))
		if c == nil || c.Root == nil {
			continue
		}
		trials++
		croot := BuildIndex(c)
		nodes := allNodes(croot)
		nb := nodes[rng.Intn(len(nodes))]
		b := nb.Box
		if len(b.Unions) == 0 {
			continue
		}
		gamma := bitset.NewSet(len(b.Unions))
		for u := range b.Unions {
			if rng.Intn(2) == 0 {
				gamma.Add(u)
			}
		}
		if gamma.Empty() {
			gamma.Add(rng.Intn(len(b.Unions)))
		}
		idx := nb.Index

		wantFib := bruteFib(b, gamma)
		gotFibPos := idx.FoldFib(gamma)
		if wantFib == nil {
			t.Fatal("every nonempty boxed set has an interesting box")
		}
		if nb.Target(gotFibPos).Box != wantFib {
			t.Fatalf("trial %d: fib mismatch: got %p want %p", trials,
				nb.Target(gotFibPos).Box, wantFib)
		}

		wantFbb := bruteFbb(b, gamma)
		gotFbbPos := idx.FoldFbb(gamma)
		if wantFbb == nil {
			if gotFbbPos >= 0 {
				t.Fatalf("trial %d: fbb should be undefined, got %p", trials, nb.Target(gotFbbPos))
			}
		} else {
			if gotFbbPos < 0 {
				t.Fatalf("trial %d: fbb undefined, want %p", trials, wantFbb)
			}
			if nb.Target(gotFbbPos).Box != wantFbb {
				t.Fatalf("trial %d: fbb mismatch", trials)
			}
		}

		// Reachability relations must match brute-force propagation.
		reach := bruteReach(b, gamma)
		for i, target := range idx.Targets {
			wantGates, ok := reach[nb.Target(int16(i)).Box]
			r := bitset.Compose(target.Rel, seedRelation(b, gamma))
			gotGates := r.NonEmptyRows()
			if !ok {
				if !gotGates.Empty() {
					t.Fatalf("trial %d: relation nonempty for unreachable target", trials)
				}
				continue
			}
			if !gotGates.Equal(wantGates) {
				t.Fatalf("trial %d: relation rows %v want %v", trials, gotGates, wantGates)
			}
		}
	}
}

// TestIndexLcaTable validates the per-box lca tables against brute-force
// lca computation in the box tree.
func TestIndexLcaTable(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	trials := 0
	for trials < 100 {
		_, c := buildRandom(rng, 1+rng.Intn(3), 1+rng.Intn(10), tree.NewVarSet(0))
		if c == nil || c.Root == nil {
			continue
		}
		trials++
		croot := BuildIndex(c)
		// Wrappers carry no parent pointers; compute them by walking.
		parents := map[*IndexedBox]*IndexedBox{}
		croot.Walk(func(n *IndexedBox) {
			if !n.IsLeaf() {
				parents[n.Left] = n
				parents[n.Right] = n
			}
		})
		depth := func(n *IndexedBox) int {
			d := 0
			for x := n; parents[x] != nil; x = parents[x] {
				d++
			}
			return d
		}
		lca := func(a, b *IndexedBox) *IndexedBox {
			for depth(a) > depth(b) {
				a = parents[a]
			}
			for depth(b) > depth(a) {
				b = parents[b]
			}
			for a != b {
				a, b = parents[a], parents[b]
			}
			return a
		}
		croot.Walk(func(n *IndexedBox) {
			idx := n.Index
			for i := range idx.Targets {
				for j := range idx.Targets {
					want := lca(n.Target(int16(i)), n.Target(int16(j)))
					got := n.Target(idx.Lca(int16(i), int16(j)))
					if got != want {
						t.Fatalf("lca table wrong at box %p (%d, %d)", n.Box, i, j)
					}
				}
			}
		})
	}
}
