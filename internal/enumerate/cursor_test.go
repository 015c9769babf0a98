package enumerate

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/tree"
)

// TestMaterializeAllocs pins Materialize to its one allocation, the
// result, for multi-leaf ropes whose leaves come in order and out of
// order (Normalize sorts in place).
func TestMaterializeAllocs(t *testing.T) {
	inOrder := Concat(Concat(LeafRope(tree.NewVarSet(0, 2), 5), LeafRope(tree.NewVarSet(1), 7)),
		Concat(LeafRope(tree.NewVarSet(3), 9), LeafRope(tree.NewVarSet(4, 5), 11)))
	outOfOrder := Concat(LeafRope(tree.NewVarSet(1), 7), Concat(LeafRope(tree.NewVarSet(0, 2), 5), LeafRope(tree.NewVarSet(3), 2)))
	for name, r := range map[string]*Rope{"in order": inOrder, "out of order": outOfOrder} {
		a := r.Materialize()
		if len(a) != r.Size() {
			t.Fatalf("%s: materialized %d singletons, want %d", name, len(a), r.Size())
		}
		for i := 1; i < len(a); i++ {
			if a[i-1].Node > a[i].Node || a[i-1].Node == a[i].Node && a[i-1].Var >= a[i].Var {
				t.Fatalf("%s: not normalized: %v", name, a)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { r.Materialize() }); allocs != 1 {
			t.Fatalf("%s: Materialize makes %.1f allocations, want 1", name, allocs)
		}
	}
}

// TestRopesSteadyStateAllocs is the cursor's allocation guard: once the
// pooled cursor's slabs exist, a full drain allocates only the ropes it
// yields, carved 256 to a slab, plus a constant per iteration — far
// below one allocation per answer.
func TestRopesSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for {
		root, unamb, bd, c := countedCircuitOf(rng, selectAB(), 40)
		if root == nil || !unamb {
			continue
		}
		gamma, emptyOK := bd.RootAccepting(c)
		n := len(collectSeq(Ropes(root, gamma, emptyOK, ModeIndexed)))
		if n < 200 {
			continue
		}
		for _, mode := range []Mode{ModeIndexed, ModeNaive} {
			drain := func() {
				for range Ropes(root, gamma, emptyOK, mode) {
				}
			}
			drain()
			if perAnswer := testing.AllocsPerRun(10, drain) / float64(n); perAnswer > 0.1 {
				t.Fatalf("mode %v: %.3f allocations per answer over %d answers, want ≤ 0.1", mode, perAnswer, n)
			}
		}
		return
	}
}

// TestConcurrentAbandonedStreams runs goroutines that stream Ropes and
// RopesFrom over one frozen wrapper, each breaking at a random rank:
// every prefix must equal the sequential drain. Abandoned streams send
// their cursors back to the pool with frames still on the stack, and
// later streams reuse them, so stale cursor state would show here (and
// shared state under -race).
func TestConcurrentAbandonedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for cases := 0; cases < 2; {
		var (
			root  *IndexedBox
			unamb bool
			bd    *circuit.Builder
			c     *circuit.Circuit
		)
		if cases == 0 {
			root, unamb, bd, c = countedCircuitOf(rng, selectAB(), 30)
		} else {
			root, unamb, bd, c = countedCircuit(rng, 3, 12)
		}
		if root == nil || !unamb {
			continue
		}
		cases++
		gamma, _ := bd.RootAccepting(c)
		want := ropeKeys(Ropes(root, gamma, false, ModeIndexed))
		n := len(want)
		if n == 0 {
			continue
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for it := 0; it < 30; it++ {
					from, stop := 0, rng.Intn(n+1)
					var got []string
					if rng.Intn(2) == 0 {
						for r := range Ropes(root, gamma, false, ModeIndexed) {
							if len(got) == stop {
								break
							}
							got = append(got, r.Materialize().Key())
						}
					} else {
						from = rng.Intn(n)
						stop = rng.Intn(n - from + 1)
						d := GetDescender()
						seq, err := d.RopesFromInt(root, gamma, false, ModeIndexed, from)
						if err != nil {
							t.Errorf("RopesFrom(%d): %v", from, err)
							PutDescender(d)
							return
						}
						for r := range seq {
							if len(got) == stop {
								break
							}
							got = append(got, r.Materialize().Key())
						}
						PutDescender(d)
					}
					if len(got) != min(stop, n-from) {
						t.Errorf("stream from %d stopped at %d of %d", from, len(got), stop)
						return
					}
					for i, k := range got {
						if k != want[from+i] {
							t.Errorf("answer %d of the stream from %d = %s, want %s", i, from, k, want[from+i])
							return
						}
					}
				}
			}(int64(w))
		}
		wg.Wait()
		// A pooled cursor reused after the abandoned streams drains in full.
		if got := ropeKeys(Ropes(root, gamma, false, ModeIndexed)); !slices.Equal(got, want) {
			t.Fatalf("reused cursor drained %d answers, want the %d of the first drain", len(got), n)
		}
	}
}
