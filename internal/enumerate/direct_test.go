package enumerate

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/counting"
	"repro/internal/tree"
	"repro/internal/tva"
)

// fillCounts folds per-box derivation counts onto every wrapper
// bottom-up with counting.Folder, the way the engine does.
func fillCounts(root *IndexedBox) {
	f := counting.NewFolder[*big.Int](counting.Derivations{})
	root.Walk(func(n *IndexedBox) {
		if n.IsLeaf() {
			n.Counts = f.Box(n.Box, nil, nil)
		} else {
			n.Counts = f.Box(n.Box, n.Left.Counts, n.Right.Counts)
		}
	})
}

// countedCircuit builds a random circuit, wraps it with the index, and
// fills per-box derivation counts (fillCounts), returning also whether
// the homogenized automaton is unambiguous.
func countedCircuit(rng *rand.Rand, states, leaves int) (root *IndexedBox, unamb bool, bd *circuit.Builder, c *circuit.Circuit) {
	raw := tva.RandomBinary(rng, states, alphaAB, tree.NewVarSet(0, 1), 0.4)
	a := raw.Homogenize()
	if a.NumStates == 0 {
		return nil, false, nil, nil
	}
	bd, err := circuit.NewBuilder(a)
	if err != nil {
		panic(err)
	}
	bt := tva.RandomBinaryTree(rng, leaves, alphaAB)
	c = bd.Build(bt)
	if c == nil || c.Root == nil {
		return nil, false, nil, nil
	}
	root = BuildIndex(c)
	fillCounts(root)
	return root, a.Unambiguous(), bd, c
}

// TestAtMatchesRopesOrder checks, on random circuits of unambiguous
// automata, that At(j) on a fresh Descender returns exactly the j-th
// rope of Ropes for every rank, that ranks -1 and Total fail, and that
// Total matches the enumeration length.
func TestAtMatchesRopesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trials := 0; trials < 55; {
		root, unamb, bd, c := countedCircuit(rng, 1+rng.Intn(3), 1+rng.Intn(8))
		if root == nil || !unamb {
			continue
		}
		trials++
		gamma, emptyOK := bd.RootAccepting(c)
		keys := ropeKeys(Ropes(root, gamma, emptyOK, ModeIndexed))
		total, err := Total(root, gamma, emptyOK)
		if err != nil {
			t.Fatal(err)
		}
		if total.Cmp(big.NewInt(int64(len(keys)))) != 0 {
			t.Fatalf("Total = %s, enumerated %d", total, len(keys))
		}
		for j := range keys {
			r, err := new(Descender).At(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(j)))
			if err != nil {
				t.Fatalf("At(%d): %v", j, err)
			}
			got := "<empty>"
			if r != nil {
				got = r.Materialize().Key()
			}
			if got != keys[j] {
				t.Fatalf("At(%d) = %s, want %s", j, got, keys[j])
			}
		}
		if _, err := new(Descender).At(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(len(keys)))); err != ErrRankRange {
			t.Fatalf("At past the end = %v, want ErrRankRange", err)
		}
		if _, err := new(Descender).At(root, gamma, emptyOK, ModeIndexed, big.NewInt(-1)); err != ErrRankRange {
			t.Fatalf("At(-1) = %v, want ErrRankRange", err)
		}
	}
}

// TestAtErrors pins the error surface: ModeNaive has no direct access,
// and wrappers without counts refuse cleanly.
func TestAtErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for {
		root, _, bd, c := countedCircuit(rng, 2, 4)
		if root == nil {
			continue
		}
		gamma, emptyOK := bd.RootAccepting(c)
		if gamma.Empty() {
			continue
		}
		if _, err := new(Descender).At(root, gamma, emptyOK, ModeNaive, big.NewInt(0)); err != ErrNoDirectAccess {
			t.Fatalf("ModeNaive At = %v, want ErrNoDirectAccess", err)
		}
		bare := BuildIndex(c) // no counts filled
		if _, err := new(Descender).At(bare, gamma, emptyOK, ModeIndexed, big.NewInt(0)); err != ErrNoDirectAccess {
			t.Fatalf("countless At = %v, want ErrNoDirectAccess", err)
		}
		if _, err := Total(bare, gamma, emptyOK); err != ErrNoDirectAccess {
			t.Fatalf("countless Total = %v, want ErrNoDirectAccess", err)
		}
		return
	}
}
