package enumerate

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/tree"
	"repro/internal/tva"
)

// ropeKeys materializes a rope stream into assignment keys.
func ropeKeys(seq func(func(*Rope) bool)) []string {
	var keys []string
	for r := range seq {
		if r == nil {
			keys = append(keys, "<empty>")
		} else {
			keys = append(keys, r.Materialize().Key())
		}
	}
	return keys
}

// selectAB is an unambiguous binary TVA selecting one a-leaf as X0 and
// one b-leaf as X1 (states: 0 none, 1 X0 below, 2 X1 below, 3 both).
// Either variable may come from either child, so its circuits have
// bidirectional ∪-gates on every inner box and products wherever the
// two variables meet: seeks through it walk past bidirectional boxes
// and land inside products.
func selectAB() *tva.Binary {
	x0, x1 := tree.NewVarSet(0), tree.NewVarSet(1)
	a := &tva.Binary{
		NumStates: 4,
		Alphabet:  alphaAB,
		Vars:      tree.NewVarSet(0, 1),
		Init: []tva.InitRule{
			{Label: "a", Set: 0, State: 0}, {Label: "b", Set: 0, State: 0},
			{Label: "a", Set: x0, State: 1}, {Label: "b", Set: x1, State: 2},
		},
		Final: []tva.State{3},
	}
	for _, l := range alphaAB {
		for _, tr := range [][3]tva.State{{0, 0, 0}, {1, 0, 1}, {0, 1, 1}, {2, 0, 2}, {0, 2, 2},
			{1, 2, 3}, {2, 1, 3}, {3, 0, 3}, {0, 3, 3}} {
			a.Delta = append(a.Delta, tva.Triple{Label: l, Left: tr[0], Right: tr[1], Out: tr[2]})
		}
	}
	return a
}

// countedCircuitOf is countedCircuit for a given automaton.
func countedCircuitOf(rng *rand.Rand, raw *tva.Binary, leaves int) (root *IndexedBox, unamb bool, bd *circuit.Builder, c *circuit.Circuit) {
	a := raw.Homogenize()
	bd, err := circuit.NewBuilder(a)
	if err != nil {
		panic(err)
	}
	c = bd.Build(tva.RandomBinaryTree(rng, leaves, alphaAB))
	root = BuildIndex(c)
	fillCounts(root)
	return root, a.Unambiguous(), bd, c
}

// TestRopesFromMatchesSuffix is the differential test of the seek: on
// random counted circuits of unambiguous automata, RopesFrom(j) streams
// exactly Ropes[j:] for every rank j in [0, total], through one
// long-lived Descender, so the trail of one seek never leaks into the
// next. Every fourth circuit drawn runs selectAB, so every kind of trail
// frame is replayed. Larger answer sets are checked at the boundary
// ranks 0, 1, total−1, total and a random sample. The seek starts no
// enumeration (EnumStarts stays put), and an abandoned stream stops
// cleanly.
func TestRopesFromMatchesSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := NewDescender()
	kinds := map[frameKind]int{}
	trials, emptyTrials := 0, 0
	for drawn := 0; trials < 121; drawn++ {
		var (
			root  *IndexedBox
			unamb bool
			bd    *circuit.Builder
			c     *circuit.Circuit
		)
		if drawn%4 == 3 {
			root, unamb, bd, c = countedCircuitOf(rng, selectAB(), 2+rng.Intn(20))
		} else {
			root, unamb, bd, c = countedCircuit(rng, 1+rng.Intn(3), 1+rng.Intn(12))
		}
		if root == nil || !unamb {
			continue
		}
		gamma, emptyOK := bd.RootAccepting(c)
		if total, err := Total(root, gamma, emptyOK); err != nil || total.Cmp(big.NewInt(3000)) > 0 {
			continue // keep the suffix drains quadratic-cheap
		}
		trials++
		if emptyOK {
			emptyTrials++
		}
		want := ropeKeys(Ropes(root, gamma, emptyOK, ModeIndexed))
		n := len(want)
		ranks := []int{0, 1, n - 1, n}
		if n <= 200 {
			ranks = ranks[:0]
			for j := 0; j <= n; j++ {
				ranks = append(ranks, j)
			}
		} else {
			for k := 0; k < 20; k++ {
				ranks = append(ranks, rng.Intn(n))
			}
		}
		for _, j := range ranks {
			if j < 0 || j > n {
				continue
			}
			before := EnumStarts.Load()
			seq, err := d.RopesFrom(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(j)))
			if err != nil {
				t.Fatalf("RopesFrom(%d) of %d: %v", j, n, err)
			}
			got := ropeKeys(seq)
			if EnumStarts.Load() != before {
				t.Fatalf("RopesFrom(%d) started an enumeration", j)
			}
			if len(got) != n-j {
				t.Fatalf("RopesFrom(%d) streamed %d ropes, want %d", j, len(got), n-j)
			}
			for i := range got {
				if got[i] != want[j+i] {
					t.Fatalf("RopesFrom(%d)[%d] = %s, want Ropes[%d] = %s", j, i, got[i], j+i, want[j+i])
				}
			}
			for _, f := range d.trail {
				kinds[f.kind]++
			}
			// Abandon a fresh stream after one rope.
			seq, err = d.RopesFrom(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(j)))
			if err != nil {
				t.Fatal(err)
			}
			for range seq {
				break
			}
		}
		if _, err := d.RopesFrom(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(n+1))); err != ErrRankRange {
			t.Fatalf("RopesFrom past the end = %v, want ErrRankRange", err)
		}
		if _, err := d.RopesFrom(root, gamma, emptyOK, ModeIndexed, big.NewInt(-1)); err != ErrRankRange {
			t.Fatalf("RopesFrom(-1) = %v, want ErrRankRange", err)
		}
	}
	t.Logf("%d trials, %d with the empty assignment; trail frames by kind %v", trials, emptyTrials, kinds)
	if emptyTrials == 0 {
		t.Fatal("weak coverage: no trial with the empty assignment")
	}
	for k := frameWalk; k <= frameRight; k++ {
		if kinds[k] == 0 {
			t.Fatalf("no seek recorded a frame of kind %d: %v", k, kinds)
		}
	}
}

// TestRopesFromErrors pins the error surface shared with At: ModeNaive
// has no seek, and wrappers without counts refuse cleanly.
func TestRopesFromErrors(t *testing.T) {
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
		if _, err := NewDescender().RopesFrom(root, gamma, emptyOK, ModeNaive, big.NewInt(0)); err != ErrNoDirectAccess {
			t.Fatalf("ModeNaive RopesFrom = %v, want ErrNoDirectAccess", err)
		}
		bare := BuildIndex(c) // no counts filled
		if _, err := NewDescender().RopesFrom(bare, gamma, emptyOK, ModeIndexed, big.NewInt(0)); err != ErrNoDirectAccess {
			t.Fatalf("countless RopesFrom = %v, want ErrNoDirectAccess", err)
		}
		return
	}
}
