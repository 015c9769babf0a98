package paths

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

func TestParse(t *testing.T) {
	q, err := Parse("/doc//sec/fig")
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{{Child, "doc"}, {Descendant, "sec"}, {Child, "fig"}}
	if len(q.Steps) != len(want) {
		t.Fatalf("steps = %v", q.Steps)
	}
	for i := range want {
		if q.Steps[i] != want[i] {
			t.Fatalf("step %d = %v, want %v", i, q.Steps[i], want[i])
		}
	}
	if q.String() != "/doc//sec/fig" {
		t.Fatalf("String = %q", q.String())
	}
	for _, bad := range []string{"", "a/b", "/", "/a//", "//"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

// TestCompileMatchesSelect fuzzes the compiled automaton against the
// direct top-down evaluator on random trees.
func TestCompileMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alpha := []tree.Label{"a", "b", "c"}
	queries := []string{
		"/a", "//a", "/*", "//*",
		"/a/b", "/a//b", "//a/b", "//a//b",
		"//a/*/b", "/a//b//c", "//b//b",
		"/*//a/b",
	}
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Compile(q, alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if a.NumStates != 2*len(q.Steps) {
			t.Fatalf("%s: %d states, want %d", qs, a.NumStates, 2*len(q.Steps))
		}
		for trial := 0; trial < 20; trial++ {
			ut := tva.RandomUnrankedTree(rng, 1+rng.Intn(7), alpha)
			want := Select(q, ut)
			got, err := a.SatisfyingAssignments(ut, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s on %s: automaton %d, select %d (%v)", qs, ut, len(got), len(want), want)
			}
			wantSet := map[tree.NodeID]bool{}
			for _, id := range want {
				wantSet[id] = true
			}
			for _, asg := range got {
				if len(asg) != 1 || !wantSet[asg[0].Node] {
					t.Fatalf("%s on %s: spurious %v", qs, ut, asg)
				}
			}
		}
	}
}

// TestPathsDynamic runs a path query through the dynamic engine under
// edits.
func TestPathsDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	alpha := []tree.Label{"a", "b", "c"}
	a := MustCompile("//a/b", alpha, 0)
	ut := tva.RandomUnrankedTree(rng, 5, alpha)
	e := engine.NewTreeSet(ut)
	id, err := e.Register(a, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Parse("//a/b")
	for step := 0; step < 40; step++ {
		nodes := e.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		var batch []engine.Update
		switch rng.Intn(3) {
		case 0:
			batch = []engine.Update{{Op: engine.OpRelabel, Node: n.ID, Label: alpha[rng.Intn(3)]}}
		case 1:
			if e.Tree().Size() < 40 {
				batch = []engine.Update{{Op: engine.OpInsertFirstChild, Node: n.ID, Label: alpha[rng.Intn(3)]}}
			}
		default:
			if n.IsLeaf() && n.Parent != nil {
				batch = []engine.Update{{Op: engine.OpDelete, Node: n.ID}}
			}
		}
		if _, _, err := e.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		want := Select(q, e.Tree())
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []tree.NodeID
		for _, asg := range e.Snapshot().Query(id).All() {
			got = append(got, asg[0].Node)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("step %d: got %v, want %v", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: got %v, want %v", step, got, want)
			}
		}
	}
}

// TestMustCompilePanics covers the panic path.
func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile("not-a-path", []tree.Label{"a"}, 0)
}
