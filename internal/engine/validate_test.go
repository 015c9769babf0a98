package engine

import (
	"math/big"
	"math/rand"
	"slices"
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

// TestSnapshotValidateCatchesRecordCorruption checks that Validate
// accepts the answer record a subscribed ambiguous query's publication
// leaves on its snapshot, and rejects each kind of damage to it: an
// answer changed, two answers out of Results order, a missing answer,
// spans out of order, and a key order that is not sorted or not a
// permutation.
func TestSnapshotValidateCatchesRecordCorruption(t *testing.T) {
	alpha := []tree.Label{"a", "b", "c"}
	doc := tva.RandomUnrankedTree(rand.New(rand.NewSource(3)), 60, alpha)
	e, id := treeQuery(t, doc, directAccessQueries(t)["pathAB"], Options{})
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	<-ch // the seed resync
	if _, _, err := e.ApplyBatch([]Update{{Op: OpRelabel, Node: doc.Root.ID, Label: "a"}}); err != nil {
		t.Fatal(err)
	}
	<-ch
	snap := e.Snapshot().Query(id)
	if snap.answers == nil || snap.answers.len() < 3 {
		t.Fatal("want a record of at least 3 answers")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("published record: %v", err)
	}
	corrupt := func(name string, f func(a *answerSet)) {
		t.Helper()
		r := snap.answers
		a := &answerSet{flat: slices.Clone(r.flat), offs: slices.Clone(r.offs), byKey: slices.Clone(r.byKey)}
		f(a)
		s := &Snapshot{root: snap.root, gamma: snap.gamma, emptyOK: snap.emptyOK, count: snap.count, builder: snap.builder, answers: a}
		if s.Validate() == nil {
			t.Errorf("%s: Validate accepted a corrupted record", name)
		}
	}
	corrupt("answer", func(a *answerSet) { a.flat[0].Node++ })
	corrupt("order", func(a *answerSet) {
		// Swap the first two answers, keeping byKey pointed at them.
		x, y := slices.Clone(a.at(0)), slices.Clone(a.at(1))
		a.flat = slices.Concat(y, x, a.flat[a.offs[2]:])
		a.offs[1] = len(y)
		for k, i := range a.byKey {
			switch i {
			case 0:
				a.byKey[k] = 1
			case 1:
				a.byKey[k] = 0
			}
		}
	})
	corrupt("missing", func(a *answerSet) {
		last := a.len() - 1
		a.flat = a.flat[:a.offs[last]]
		a.offs = a.offs[:last+1]
		a.byKey = slices.DeleteFunc(a.byKey, func(i int) bool { return i == last })
	})
	corrupt("spans", func(a *answerSet) { a.offs[1], a.offs[2] = a.offs[2], a.offs[1] })
	corrupt("unsorted", func(a *answerSet) { a.byKey[0], a.byKey[1] = a.byKey[1], a.byKey[0] })
	corrupt("permutation", func(a *answerSet) { a.byKey[1] = a.byKey[0] })
}
