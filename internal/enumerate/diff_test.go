package enumerate

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/tree"
)

// leafBoxFor hand-assembles a leaf box for node with one var gate per
// set, each behind its own ∪-gate (gate i ← var i).
func leafBoxFor(node tree.NodeID, sets ...tree.VarSet) *circuit.Box {
	vars := make([]circuit.VarGate, len(sets))
	unions := make([]circuit.UnionInputs, len(sets))
	kind := make([]circuit.GammaKind, len(sets))
	idx := make([]int32, len(sets))
	for i, s := range sets {
		vars[i] = circuit.VarGate{Set: s}
		unions[i] = circuit.UnionInputs{Vars: []int32{int32(i)}}
		kind[i], idx[i] = circuit.GammaUnion, int32(i)
	}
	return circuit.Assemble(node, nil, nil, kind, idx, vars, nil, unions)
}

// productBoxOver hand-assembles an inner box with a single ×-gate
// pairing ∪-gate 0 of each child, behind ∪-gate 0.
func productBoxOver(l, r *IndexedBox) *IndexedBox {
	b := circuit.Assemble(tree.InvalidNode, l.Box, r.Box, []circuit.GammaKind{circuit.GammaUnion}, []int32{0},
		nil, []circuit.TimesGate{{Left: 0, Right: 0}}, []circuit.UnionInputs{{Times: []int32{0}}})
	return Wrap(b, l, r, true)
}

func gset(n int, elems ...int) bitset.Set {
	s := bitset.NewSet(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func keysOf(as []tree.Assignment) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Key()
	}
	return out
}

// TestDifferLeaf covers the leaf-level contract: pointer-shared regions
// with equal gate sets prune to an empty delta, gate-set narrowing emits
// exactly the dropped var route, a nil side drains the other in full,
// and the emptyOK flag diffs as the empty assignment.
func TestDifferLeaf(t *testing.T) {
	b := Wrap(leafBoxFor(3, 1, 2), nil, nil, true)
	g01 := gset(2, 0, 1)
	g0 := gset(2, 0)

	d := NewDiffer(ModeIndexed)
	if a, r := d.Diff(b, g01, false, b, g01, false); len(a)+len(r) != 0 {
		t.Fatalf("shared region with equal gates must prune: added %v removed %v", a, r)
	}
	a, r := d.Diff(b, g01, false, b, g0, false)
	if len(a) != 0 || len(r) != 1 || r[0].Key() != "3:1;" {
		t.Fatalf("gate narrowing: added %v removed %v", keysOf(a), keysOf(r))
	}
	a, r = d.Diff(nil, bitset.NewSet(0), false, b, g0, false)
	if len(r) != 0 || len(a) != 1 || a[0].Key() != "3:0;" {
		t.Fatalf("nil old side: added %v removed %v", keysOf(a), keysOf(r))
	}
	a, r = d.Diff(b, g0, true, b, g0, false)
	if len(a) != 0 || len(r) != 1 || len(r[0]) != 0 {
		t.Fatalf("emptyOK drop: added %v removed %v", keysOf(a), keysOf(r))
	}
}

// TestDifferProductSharedFactor changes one factor of a product region:
// the diff must route through the shared-factor grouping (the other
// factor is pointer-shared) and emit exactly the old and new products.
func TestDifferProductSharedFactor(t *testing.T) {
	l := Wrap(leafBoxFor(1, 1), nil, nil, true)
	r1 := Wrap(leafBoxFor(2, 2), nil, nil, true)
	r2 := Wrap(leafBoxFor(9, 2), nil, nil, true)
	o := productBoxOver(l, r1)
	n := productBoxOver(l, r2)
	g := gset(1, 0)

	d := NewDiffer(ModeIndexed)
	a, rm := d.Diff(o, g, false, n, g, false)
	if len(a) != 1 || a[0].Key() != "1:0;9:1;" {
		t.Fatalf("added = %v", keysOf(a))
	}
	if len(rm) != 1 || rm[0].Key() != "1:0;2:1;" {
		t.Fatalf("removed = %v", keysOf(rm))
	}

	// Same structure on both sides: even though the parent wrappers are
	// distinct pointers, the shared-factor recursion bottoms out on the
	// pointer-shared leaves and the delta is empty.
	n2 := productBoxOver(l, r1)
	if a, rm := d.Diff(o, g, false, n2, g, false); len(a)+len(rm) != 0 {
		t.Fatalf("identical versions: added %v removed %v", keysOf(a), keysOf(rm))
	}
}
