package spanner

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// matchOracle reports whether the pattern matches the whole word, by
// recursive descent (independent of the automaton machinery).
func matchOracle(p Pattern, w []tree.Label) bool {
	return len(matchEnds(p, w, 0)) > 0 && contains(matchEnds(p, w, 0), len(w))
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// matchEnds returns all positions j such that p matches w[i:j].
func matchEnds(p Pattern, w []tree.Label, i int) []int {
	switch g := p.(type) {
	case Empty:
		return []int{i}
	case Lit:
		if i < len(w) && w[i] == g.Label {
			return []int{i + 1}
		}
		return nil
	case Any:
		if i < len(w) {
			return []int{i + 1}
		}
		return nil
	case Seq:
		cur := []int{i}
		for _, part := range g.Parts {
			var next []int
			for _, j := range cur {
				for _, k := range matchEnds(part, w, j) {
					if !contains(next, k) {
						next = append(next, k)
					}
				}
			}
			cur = next
		}
		return cur
	case Alt:
		var out []int
		for _, br := range g.Branches {
			for _, j := range matchEnds(br, w, i) {
				if !contains(out, j) {
					out = append(out, j)
				}
			}
		}
		return out
	case Star:
		out := []int{i}
		frontier := []int{i}
		for len(frontier) > 0 {
			var next []int
			for _, j := range frontier {
				for _, k := range matchEnds(g.Inner, w, j) {
					if k > j && !contains(out, k) {
						out = append(out, k)
						next = append(next, k)
					}
				}
			}
			frontier = next
		}
		return out
	case Plus:
		return matchEnds(Seq{[]Pattern{g.Inner, Star{g.Inner}}}, w, i)
	case Opt:
		return matchEnds(Alt{[]Pattern{g.Inner, Empty{}}}, w, i)
	case Capture:
		return matchEnds(g.Inner, w, i)
	default:
		panic("unknown pattern")
	}
}

func randomPattern(rng *rand.Rand, depth int) Pattern {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return Lit{alphaAB[rng.Intn(2)]}
		case 1:
			return Any{}
		default:
			return Empty{}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return Cat(randomPattern(rng, depth-1), randomPattern(rng, depth-1))
	case 1:
		return Or(randomPattern(rng, depth-1), randomPattern(rng, depth-1))
	case 2:
		return Star{randomPattern(rng, depth-1)}
	case 3:
		return Opt{randomPattern(rng, depth-1)}
	default:
		return Plus{randomPattern(rng, depth-1)}
	}
}

// TestCompileMatchesOracle checks Boolean matching of compiled WVAs
// against the recursive-descent oracle on random patterns and words.
func TestCompileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := randomPattern(rng, 1+rng.Intn(3))
		a, err := CompileWVA(p, alphaAB)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("pattern %#v: %v", p, err)
		}
		n := rng.Intn(6)
		w := make([]tree.Label, n)
		ids := make([]tree.NodeID, n)
		for i := range w {
			w[i] = alphaAB[rng.Intn(2)]
			ids[i] = tree.NodeID(i)
		}
		want := matchOracle(p, w)
		got := a.Accepts(w, ids, tree.Valuation{})
		if want != got {
			t.Fatalf("trial %d: pattern %#v on %v: oracle %v, automaton %v", trial, p, w, want, got)
		}
	}
}

// TestCaptureSemantics checks that captures annotate exactly the matched
// positions.
func TestCaptureSemantics(t *testing.T) {
	// Word a b b a; pattern Σ* a x:(b+) Σ* — capture runs of b after an a.
	p := Cat(Star{Any{}}, Lit{"a"}, Capture{0, Plus{Lit{"b"}}}, Star{Any{}})
	a, err := CompileWVA(p, alphaAB)
	if err != nil {
		t.Fatal(err)
	}
	word := []tree.Label{"a", "b", "b", "a"}
	ids := []tree.NodeID{0, 1, 2, 3}
	got, err := a.SatisfyingAssignments(word, ids, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: x={1}, x={1,2} (b+ can stop early only if the rest is
	// consumed by Σ*), x={2}? The b at position 2 is preceded by b, not
	// a... but Σ* can absorb "a b" and the a at position... position 2's
	// preceding letter is b, so x must start right after an a: only
	// position 1 starts a capture; x ∈ {{1},{1,2}}.
	if len(got) != 2 {
		t.Fatalf("got %d assignments: %v", len(got), got)
	}
	want1 := tree.Assignment{{Var: 0, Node: 1}}.Normalize()
	want2 := tree.Assignment{{Var: 0, Node: 1}, {Var: 0, Node: 2}}.Normalize()
	if _, ok := got[want1.Key()]; !ok {
		t.Fatalf("missing %v", want1)
	}
	if _, ok := got[want2.Key()]; !ok {
		t.Fatalf("missing %v", want2)
	}
}

// TestDynamicSpanner runs a spanner through the dynamic word pipeline
// with edits, cross-checked against brute force.
func TestDynamicSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Contains(Cat(Lit{"a"}, Capture{0, Plus{Lit{"b"}}}))
	q, err := CompileWVA(p, alphaAB)
	if err != nil {
		t.Fatal(err)
	}
	letters := []tree.Label{"a", "b", "a"}
	e, err := engine.NewWordSet(letters)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Register(q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		ids, labs := e.Word()
		var batch []engine.Update
		switch rng.Intn(3) {
		case 0:
			batch = []engine.Update{{Op: engine.OpRelabel, Node: ids[rng.Intn(len(ids))], Label: alphaAB[rng.Intn(2)]}}
		case 1:
			if len(ids) < 8 {
				batch = []engine.Update{{Op: engine.OpInsertAfter, Node: ids[rng.Intn(len(ids))], Label: alphaAB[rng.Intn(2)]}}
			}
		default:
			if len(ids) > 1 {
				batch = []engine.Update{{Op: engine.OpDelete, Node: ids[rng.Intn(len(ids))]}}
			}
		}
		if _, _, err := e.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		ids, labs = e.Word()
		want, err := q.SatisfyingAssignments(labs, ids, 9)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Snapshot().Query(id).All()
		if len(got) != len(want) {
			t.Fatalf("step %d: got %d, want %d (word %v)", step, len(got), len(want), labs)
		}
		for _, a := range got {
			if _, ok := want[a.Key()]; !ok {
				t.Fatalf("step %d: spurious %v", step, a)
			}
		}
	}
}

func TestHelpers(t *testing.T) {
	labs := TextLabels("ab")
	if len(labs) != 2 || labs[0] != "a" || labs[1] != "b" {
		t.Fatalf("TextLabels = %v", labs)
	}
	alpha := ByteAlphabet("aba", "c")
	if len(alpha) != 3 {
		t.Fatalf("ByteAlphabet = %v", alpha)
	}
	spans := Spans(tree.Assignment{{Var: 0, Node: 1}, {Var: 0, Node: 2}, {Var: 1, Node: 5}})
	if len(spans) != 2 || len(spans[0]) != 2 || len(spans[1]) != 1 {
		t.Fatalf("Spans = %v", spans)
	}
	if _, err := CompileWVA(Or(), alphaAB); err == nil {
		t.Fatal("empty alternation should fail")
	}
	_ = tva.WVA{}
}
