package counting

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// multiset computes the captured multiset of a ∪-gate by brute force:
// assignment key → derivation count, plus min/max sizes.
func multiset(b *circuit.Box, u int, memo map[*circuit.Box][]map[string]int64) map[string]int64 {
	if ms, ok := memo[b]; ok && ms[u] != nil {
		return ms[u]
	}
	if _, ok := memo[b]; !ok {
		memo[b] = make([]map[string]int64, len(b.Unions))
	}
	out := map[string]int64{}
	memo[b][u] = out
	ev := circuit.NewEvaluator()
	for _, vi := range b.UnionVars(u) {
		out[ev.VarAssignment(b, int(vi)).Key()]++
	}
	for _, ti := range b.UnionTimes(u) {
		tg := b.Times[ti]
		left := multiset(b.Left, int(tg.Left), memo)
		right := multiset(b.Right, int(tg.Right), memo)
		for lk, lc := range left {
			for rk, rc := range right {
				la, _ := parseKey(lk)
				ra, _ := parseKey(rk)
				merged := append(append(tree.Assignment{}, la...), ra...).Normalize()
				out[merged.Key()] += lc * rc
			}
		}
	}
	for _, l := range b.UnionLeft(u) {
		for k, c := range multiset(b.Left, int(l), memo) {
			out[k] += c
		}
	}
	for _, r := range b.UnionRight(u) {
		for k, c := range multiset(b.Right, int(r), memo) {
			out[k] += c
		}
	}
	return out
}

// parseKey reconstructs an assignment from its canonical key.
func parseKey(k string) (tree.Assignment, error) {
	var out tree.Assignment
	var node, v int64
	cur := &node
	neg := false
	for i := 0; i < len(k); i++ {
		switch c := k[i]; {
		case c == '-':
			neg = true
		case c >= '0' && c <= '9':
			*cur = *cur*10 + int64(c-'0')
		case c == ':':
			if neg {
				node = -node
				neg = false
			}
			cur = &v
		case c == ';':
			out = append(out, tree.Singleton{Var: tree.Var(v), Node: tree.NodeID(node)})
			node, v = 0, 0
			cur = &node
		}
	}
	return out, nil
}

func buildRandom(rng *rand.Rand, states, leaves int) (*circuit.Builder, *circuit.Circuit) {
	raw := tva.RandomBinary(rng, states, alphaAB, tree.NewVarSet(0, 1), 0.4)
	a := raw.Homogenize()
	if a.NumStates == 0 {
		return nil, nil
	}
	bd, err := circuit.NewBuilder(a)
	if err != nil {
		panic(err)
	}
	bt := tva.RandomBinaryTree(rng, leaves, alphaAB)
	return bd, bd.Build(bt)
}

// TestDerivationsMatchMultisetBruteForce validates the counting
// semiring against explicit multiset evaluation on random circuits.
func TestDerivationsMatchMultisetBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 0
	for trials < 120 {
		_, c := buildRandom(rng, 1+rng.Intn(3), 1+rng.Intn(6))
		if c == nil || c.Root == nil {
			continue
		}
		trials++
		ev := NewEvaluator[*big.Int](Derivations{})
		memo := map[*circuit.Box][]map[string]int64{}
		var boxes []*circuit.Box
		c.Walk(func(b *circuit.Box) { boxes = append(boxes, b) })
		for _, b := range boxes {
			for u := range b.Unions {
				ms := multiset(b, u, memo)
				var want int64
				for _, cnt := range ms {
					want += cnt
				}
				got := ev.Union(b, u)
				if got.Cmp(big.NewInt(want)) != 0 {
					t.Fatalf("trial %d: derivations = %v, want %d", trials, got, want)
				}
			}
		}
	}
}

// TestTropicalMatchBruteForce validates Min/MaxSize against brute-force
// captured sets.
func TestTropicalMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trials := 0
	for trials < 120 {
		_, c := buildRandom(rng, 1+rng.Intn(3), 1+rng.Intn(6))
		if c == nil || c.Root == nil {
			continue
		}
		trials++
		minE := NewEvaluator[int64](MinSize{})
		maxE := NewEvaluator[int64](MaxSize{})
		boolE := NewEvaluator[bool](Bool{})
		bf := circuit.NewEvaluator()
		var boxes []*circuit.Box
		c.Walk(func(b *circuit.Box) { boxes = append(boxes, b) })
		for _, b := range boxes {
			for u := range b.Unions {
				sets := bf.Union(b, u)
				wantMin, wantMax := int64(1)<<40, int64(-1)
				for _, asg := range sets {
					s := int64(len(asg))
					if s < wantMin {
						wantMin = s
					}
					if s > wantMax {
						wantMax = s
					}
				}
				if len(sets) == 0 {
					t.Fatal("∪-gate with empty captured set should not exist")
				}
				if got := minE.Union(b, u); got != wantMin {
					t.Fatalf("min = %d, want %d", got, wantMin)
				}
				if got := maxE.Union(b, u); got != wantMax {
					t.Fatalf("max = %d, want %d", got, wantMax)
				}
				if !boolE.Union(b, u) {
					t.Fatal("bool semiring says empty for nonempty gate")
				}
			}
		}
	}
}

// TestGammaEmptyFlag checks Gamma's handling of the empty assignment.
func TestGammaEmptyFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, c := buildRandom(rng, 2, 3)
	if c == nil {
		t.Skip("degenerate")
	}
	ev := NewEvaluator[*big.Int](Derivations{})
	empty := bitset.NewSet(len(c.Root.Unions))
	if got := ev.Gamma(c.Root, empty, true); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty-only gamma = %v", got)
	}
	if got := ev.Gamma(c.Root, empty, false); got.Sign() != 0 {
		t.Fatalf("no-gamma = %v", got)
	}
	me := NewEvaluator[int64](MinSize{})
	if v := me.Gamma(c.Root, empty, true); v != 0 {
		t.Fatalf("min with empty assignment = %d", v)
	}
	if v := me.Gamma(c.Root, empty, false); !IsInfinite(v) {
		t.Fatalf("min of nothing = %d", v)
	}
}

// TestFolderSharesLeavesAndFreezes pins the Folder contract the engine
// relies on: folding every box from its children's values reproduces the
// Evaluator's values, leaf boxes of one template get the same frozen
// slice, and the frozen values never alias the fold's accumulators.
func TestFolderSharesLeavesAndFreezes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		_, c := buildRandom(rng, 2, 6)
		if c == nil || c.Root == nil {
			continue
		}
		f := NewFolder[*big.Int](Derivations{})
		ev := NewEvaluator[*big.Int](Derivations{})
		vals := map[*circuit.Box][]*big.Int{}
		byGates := map[*circuit.Gates][]*big.Int{}
		c.Walk(func(b *circuit.Box) {
			var v []*big.Int
			if b.IsLeaf() {
				v = f.Box(b, nil, nil)
				if prev, ok := byGates[b.Gates]; ok && len(v) > 0 && &prev[0] != &v[0] {
					t.Fatal("leaves of one template got different count slices")
				}
				byGates[b.Gates] = v
			} else {
				v = f.Box(b, vals[b.Left], vals[b.Right])
			}
			vals[b] = v
		})
		c.Walk(func(b *circuit.Box) {
			want := ev.UnionsOf(b)
			for u := range b.Unions {
				if vals[b][u].Cmp(want[u]) != 0 {
					t.Fatalf("fold of gate %d = %v, evaluator %v", u, vals[b][u], want[u])
				}
			}
		})
		root := append([]*big.Int(nil), vals[c.Root]...)
		snapshot := make([]string, len(root))
		for i, v := range root {
			snapshot[i] = v.String()
		}
		// Further folds reuse the accumulators; frozen values must stay.
		c.Walk(func(b *circuit.Box) {
			if !b.IsLeaf() {
				f.Box(b, vals[b.Left], vals[b.Right])
			}
		})
		for i, v := range root {
			if v.String() != snapshot[i] {
				t.Fatal("a later fold changed a frozen value")
			}
		}
	}
}

// TestDerivationsMulAddToOverflow checks the 64-bit fast path of
// MulAddTo against plain big.Int arithmetic on both sides of the
// overflow boundary.
func TestDerivationsMulAddToOverflow(t *testing.T) {
	max := new(big.Int).SetUint64(^uint64(0))
	two := big.NewInt(2)
	for _, c := range [][3]*big.Int{
		{big.NewInt(5), big.NewInt(6), big.NewInt(7)},
		{new(big.Int).Sub(max, big.NewInt(1)), big.NewInt(1), big.NewInt(1)},
		{max, big.NewInt(1), big.NewInt(1)},
		{big.NewInt(0), max, two},
		{new(big.Int).Mul(max, max), max, max},
	} {
		want := new(big.Int).Add(c[0], new(big.Int).Mul(c[1], c[2]))
		got := Derivations{}.MulAddTo(new(big.Int).Set(c[0]), c[1], c[2])
		if got.Cmp(want) != 0 {
			t.Fatalf("%v + %v·%v = %v, want %v", c[0], c[1], c[2], got, want)
		}
	}
}

// TestUnionsOfAndForget checks the engine-facing cache surface: UnionsOf
// fills and returns the per-box slice, identical values to Union, and
// Forget drops exactly the given box's entry without disturbing others.
func TestUnionsOfAndForget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		bd, c := buildRandom(rng, 2, 5)
		if c == nil || c.Root == nil || c.Root.Left == nil {
			continue
		}
		_ = bd
		ev := NewEvaluator[*big.Int](Derivations{})
		var boxes []*circuit.Box
		c.Walk(func(b *circuit.Box) { boxes = append(boxes, b) })
		for _, b := range boxes {
			vs := ev.UnionsOf(b)
			if len(vs) != len(b.Unions) {
				t.Fatalf("UnionsOf returned %d values for %d gates", len(vs), len(b.Unions))
			}
			for u := range b.Unions {
				if vs[u].Cmp(ev.Union(b, u)) != 0 {
					t.Fatalf("UnionsOf[%d] != Union", u)
				}
			}
		}
		root := c.Root
		want := ev.UnionsOf(root.Left)
		ev.Forget(root)
		if _, ok := ev.cache[root]; ok {
			t.Fatal("Forget left the root entry")
		}
		got := ev.UnionsOf(root.Left)
		for u := range got {
			if got[u].Cmp(want[u]) != 0 {
				t.Fatal("Forget disturbed a sibling entry")
			}
		}
		// Recomputation after Forget must reproduce the same values.
		fresh := NewEvaluator[*big.Int](Derivations{})
		for u := range root.Unions {
			if fresh.Union(root, u).Cmp(ev.Union(root, u)) != 0 {
				t.Fatal("recomputation after Forget diverged")
			}
		}
		return
	}
	t.Fatal("no usable circuit generated")
}
