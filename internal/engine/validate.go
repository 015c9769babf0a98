package engine

import (
	"fmt"
	"math/big"
	"slices"

	"repro/internal/circuit"
	"repro/internal/counting"
	"repro/internal/enumerate"
	"repro/internal/tree"
)

// Validate deep-checks the frozen (box, index, counts) tree the snapshot
// reads, and returns the first inconsistency found. For every wrapper
// reachable from the root it checks that
//
//   - the wrapper mirrors its box (children wrap the box's children);
//   - a leaf's gate data is its program's shared template for its label;
//   - its counts equal a fresh fold of its children's counts;
//   - its index is well formed (enumerate.IndexedBox.CheckIndex: arrays
//     sized and in range, a symmetric lca table with Lca(i, i) = i);
//
// and that the snapshot's cached γ, empty-assignment flag and total
// derivation count equal a fresh computation at the root. When the
// snapshot carries the keyed delta diff's answer record, it also checks
// the record (validateAnswers). It costs one O(|T|·poly|Q|) walk, plus
// one enumeration when there is a record, and is meant for tests and
// diagnostics; the differential suites run it after every batch.
func (s *Snapshot) Validate() error {
	prog := s.builder.Program()
	fold := counting.NewFolder[*big.Int](counting.Derivations{})
	var err error
	s.root.Walk(func(n *enumerate.IndexedBox) {
		if err == nil {
			err = validateUnit(n, prog, fold)
		}
	})
	if err != nil {
		return err
	}
	gamma, emptyOK := s.builder.RootAccepting(&circuit.Circuit{Root: s.root.Box})
	if !gamma.Equal(s.gamma) || emptyOK != s.emptyOK {
		return fmt.Errorf("engine: cached γ %v (empty %v), recomputed %v (empty %v)", s.gamma, s.emptyOK, gamma, emptyOK)
	}
	if total := counting.Total[*big.Int](counting.Derivations{}, s.root.Counts, gamma, emptyOK); total.Cmp(s.count) != 0 {
		return fmt.Errorf("engine: cached derivation count %v, recomputed %v", s.count, total)
	}
	if s.answers != nil {
		return s.validateAnswers()
	}
	return nil
}

// validateAnswers checks the snapshot's answer record against a fresh
// drain of the snapshot: offs runs monotone from 0 to len(flat); the
// record holds the drain's answers in order, and as many; and byKey is
// a permutation of the answers in strictly increasing tree.CompareKeys
// order.
func (s *Snapshot) validateAnswers() error {
	a := s.answers
	if len(a.offs) == 0 || a.offs[0] != 0 || a.offs[len(a.offs)-1] != len(a.flat) {
		return fmt.Errorf("engine: answer record spans do not cover its %d singletons", len(a.flat))
	}
	for i := 1; i < len(a.offs); i++ {
		if a.offs[i] < a.offs[i-1] {
			return fmt.Errorf("engine: answer record span %d ends before it starts", i-1)
		}
	}
	n := 0
	for x := range enumerate.Assignments(s.root, s.gamma, s.emptyOK, enumerate.ModeIndexed) {
		if n == a.len() {
			return fmt.Errorf("engine: answer record has %d answers, the enumeration more", n)
		}
		if !slices.Equal(x, a.at(n)) {
			return fmt.Errorf("engine: answer record holds %q at rank %d, the enumeration %q", a.at(n).Key(), n, x.Key())
		}
		n++
	}
	if n != a.len() {
		return fmt.Errorf("engine: answer record has %d answers, the enumeration %d", a.len(), n)
	}
	if len(a.byKey) != n {
		return fmt.Errorf("engine: answer record has %d answers and %d key ranks", n, len(a.byKey))
	}
	seen := make([]bool, n)
	for k, i := range a.byKey {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("engine: answer record key order is not a permutation (entry %d is %d)", k, i)
		}
		seen[i] = true
		if k > 0 && tree.CompareKeys(a.keyed(k-1), a.keyed(k)) >= 0 {
			return fmt.Errorf("engine: answer record key order has %q before %q", a.keyed(k-1).Key(), a.keyed(k).Key())
		}
	}
	return nil
}

// validateUnit checks one frozen unit against its children (see
// Validate).
func validateUnit(n *enumerate.IndexedBox, prog *circuit.Program, fold *counting.Folder[*big.Int]) error {
	b := n.Box
	var lc, rc []*big.Int
	if n.IsLeaf() {
		if !b.IsLeaf() {
			return fmt.Errorf("engine: leaf wrapper over inner box n%d", b.Node)
		}
		if b.Gates != prog.LeafGates(b.Label) {
			return fmt.Errorf("engine: leaf box n%d does not use its program's template for label %q", b.Node, b.Label)
		}
	} else {
		if n.Left.Box != b.Left || n.Right.Box != b.Right {
			return fmt.Errorf("engine: wrapper children do not wrap the children of box n%d", b.Node)
		}
		lc, rc = n.Left.Counts, n.Right.Counts
	}
	want := fold.Box(b, lc, rc)
	if len(n.Counts) != len(want) {
		return fmt.Errorf("engine: box n%d has %d counts for %d ∪-gates", b.Node, len(n.Counts), len(want))
	}
	for u := range want {
		if n.Counts[u].Cmp(want[u]) != 0 {
			return fmt.Errorf("engine: box n%d gate %d counts %v derivations, a fresh fold %v", b.Node, u, n.Counts[u], want[u])
		}
	}
	if err := n.CheckIndex(); err != nil {
		return fmt.Errorf("engine: box n%d: %w", b.Node, err)
	}
	return nil
}
