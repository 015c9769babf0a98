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

// TestAtMatchesRopesOrder checks, on random circuits, that At(j)
// returns exactly the j-th rope of Ropes for every rank: ModeSimple
// always (one output per derivation), ModeIndexed whenever the
// automaton is unambiguous. Total must match the enumeration length in
// the same cases.
func TestAtMatchesRopesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials, indexedTrials := 0, 0
	for trials < 150 {
		root, unamb, bd, c := countedCircuit(rng, 1+rng.Intn(3), 1+rng.Intn(8))
		if root == nil {
			continue
		}
		trials++
		gamma, emptyOK := bd.RootAccepting(c)
		modes := []Mode{ModeSimple}
		if unamb {
			modes = append(modes, ModeIndexed)
			indexedTrials++
		}
		for _, mode := range modes {
			var keys []string
			for r := range Ropes(root, gamma, emptyOK, mode) {
				if r == nil {
					keys = append(keys, "<empty>")
				} else {
					keys = append(keys, r.Materialize().Key())
				}
			}
			total, err := Total(root, gamma, emptyOK)
			if err != nil {
				t.Fatal(err)
			}
			if mode == ModeSimple || unamb {
				if total.Cmp(big.NewInt(int64(len(keys)))) != 0 {
					t.Fatalf("mode %v: Total = %s, enumerated %d (unamb=%v)", mode, total, len(keys), unamb)
				}
			}
			for j := range keys {
				r, err := At(root, gamma, emptyOK, mode, big.NewInt(int64(j)))
				if err != nil {
					t.Fatalf("mode %v: At(%d): %v", mode, j, err)
				}
				got := "<empty>"
				if r != nil {
					got = r.Materialize().Key()
				}
				if got != keys[j] {
					t.Fatalf("mode %v: At(%d) = %s, want %s", mode, j, got, keys[j])
				}
			}
			if _, err := At(root, gamma, emptyOK, mode, big.NewInt(int64(len(keys)))); err == nil {
				t.Fatalf("mode %v: At past the end succeeded", mode)
			}
			if _, err := At(root, gamma, emptyOK, mode, big.NewInt(-1)); err == nil {
				t.Fatalf("mode %v: At(-1) succeeded", mode)
			}
		}
	}
	if indexedTrials < 20 {
		t.Fatalf("too few unambiguous trials: %d", indexedTrials)
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
		if _, err := At(root, gamma, emptyOK, ModeNaive, big.NewInt(0)); err != ErrNoDirectAccess {
			t.Fatalf("ModeNaive At = %v, want ErrNoDirectAccess", err)
		}
		bare := BuildIndex(c) // no counts filled
		if _, err := At(bare, gamma, emptyOK, ModeIndexed, big.NewInt(0)); err != ErrNoDirectAccess {
			t.Fatalf("countless At = %v, want ErrNoDirectAccess", err)
		}
		if _, err := Total(bare, gamma, emptyOK); err != ErrNoDirectAccess {
			t.Fatalf("countless Total = %v, want ErrNoDirectAccess", err)
		}
		return
	}
}
