package engine

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/enumerate"
	"repro/internal/tree"
	"repro/internal/tva"
)

// TestSnapshotValidateCatchesCorruption checks that Validate accepts a
// published snapshot and rejects each kind of damage it claims to
// detect: a wrong count, a leaf off its template, a cached total that
// disagrees with the root.
func TestSnapshotValidateCatchesCorruption(t *testing.T) {
	alpha := []tree.Label{"a", "b", "c"}
	doc := tva.RandomUnrankedTree(rand.New(rand.NewSource(3)), 60, alpha)
	set := NewTreeSet(doc)
	id, err := set.Register(tva.MarkedAncestor("a", "b", "c", 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot().Query(id)
	if err := snap.Validate(); err != nil {
		t.Fatalf("fresh snapshot: %v", err)
	}
	// Each corruption works on a private copy of the snapshot header and
	// of the wrappers it changes; the published units stay intact.
	corrupt := func(name string, f func(s *Snapshot)) {
		t.Helper()
		s := &Snapshot{root: snap.root, gamma: snap.gamma, emptyOK: snap.emptyOK, count: snap.count, builder: snap.builder}
		f(s)
		if s.Validate() == nil {
			t.Errorf("%s: Validate accepted a corrupted snapshot", name)
		}
	}
	corrupt("count", func(s *Snapshot) {
		root := *s.root
		root.Counts = append([]*big.Int(nil), root.Counts...)
		root.Counts[0] = new(big.Int).Add(root.Counts[0], big.NewInt(1))
		s.root = &root
	})
	corrupt("template", func(s *Snapshot) {
		var leaf *enumerate.IndexedBox
		for leaf = s.root; !leaf.IsLeaf(); leaf = leaf.Left {
		}
		box := *leaf.Box
		box.Label = "no such label"
		l := *leaf
		l.Box = &box
		// Rebuild the left spine over the changed leaf.
		var rebuild func(n *enumerate.IndexedBox) *enumerate.IndexedBox
		rebuild = func(n *enumerate.IndexedBox) *enumerate.IndexedBox {
			if n.IsLeaf() {
				return &l
			}
			c := *n
			c.Left = rebuild(n.Left)
			return &c
		}
		s.root = rebuild(s.root)
	})
	corrupt("total", func(s *Snapshot) {
		s.count = new(big.Int).Add(s.count, big.NewInt(1))
	})
}
