package enumtrees_test

import (
	"fmt"
	"slices"
	"testing"

	enumtrees "repro"
)

// TestQuickstart is the README flow.
func TestQuickstart(t *testing.T) {
	tr, err := enumtrees.ParseTree("(a (b) (a (b)))")
	if err != nil {
		t.Fatal(err)
	}
	q := enumtrees.SelectLabel([]enumtrees.Label{"a", "b"}, "b", 0)
	qs, id, err := enumtrees.New(tr, q, enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := qs.Snapshot().Query(id).Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	m, ids, err := qs.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: tr.Root.ID, Label: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 4 || m.Query(id).Count() != 3 {
		t.Fatalf("new node %d, count = %d; want 4, 3", ids[0], m.Query(id).Count())
	}
	for asg := range m.Query(id).Results() {
		if len(asg) != 1 {
			t.Fatalf("assignment %v", asg)
		}
		if tr.Node(asg[0].Node).Label != "b" {
			t.Fatal("selected non-b node")
		}
	}
}

// TestQuerySetFacade exercises the multi-query flow through the public
// API: two standing queries, one batched publication, late
// registration, unregister, and the InvalidNode sentinel.
func TestQuerySetFacade(t *testing.T) {
	tr, err := enumtrees.ParseTree("(a (b) (c (b)))")
	if err != nil {
		t.Fatal(err)
	}
	alpha := []enumtrees.Label{"a", "b", "c"}
	qs := enumtrees.NewQuerySet(tr)
	qb, err := qs.Register(enumtrees.SelectLabel(alpha, "b", 0), enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qc, err := qs.Register(enumtrees.SelectLabel(alpha, "c", 0), enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}

	m, ids, err := qs.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: tr.Root.ID, Label: "c"},
		{Op: enumtrees.OpRelabel, Node: 1, Label: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] == enumtrees.InvalidNode || ids[1] != enumtrees.InvalidNode {
		t.Fatalf("batch ids = %v", ids)
	}
	if got := m.Query(qb).Count(); got != 1 {
		t.Fatalf("b-query count = %d, want 1", got)
	}
	if got := m.Query(qc).Count(); got != 2 {
		t.Fatalf("c-query count = %d, want 2", got)
	}

	// Late registration sees the edited document.
	qa, err := qs.Register(enumtrees.SelectLabel(alpha, "a", 0), enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := qs.Snapshot().Query(qa).Count(); got != 2 {
		t.Fatalf("late a-query count = %d, want 2", got)
	}

	// Unregister drops the query from the next publication on; the old
	// snapshot still answers it.
	if err := qs.Unregister(qc); err != nil {
		t.Fatal(err)
	}
	m2, _, err := qs.ApplyBatch([]enumtrees.Update{{Op: enumtrees.OpRelabel, Node: tr.Root.ID, Label: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Query(qc) != nil {
		t.Fatal("unregistered query still published")
	}
	if m.Query(qc).Count() != 2 {
		t.Fatal("old snapshot lost the unregistered query")
	}
	if got, want := len(m2.Queries()), 2; got != want {
		t.Fatalf("standing queries = %d, want %d", got, want)
	}
}

// TestMSOEndToEnd exercises the MSO facade.
func TestMSOEndToEnd(t *testing.T) {
	alpha := []enumtrees.Label{"dir", "file"}
	// Φ(x): x is a dir containing (somewhere below) a file.
	phi := enumtrees.Conj(
		enumtrees.HasLabel{X: 0, Label: "dir"},
		enumtrees.Exists{X: 1, F: enumtrees.Conj(
			enumtrees.Sing{X: 1},
			enumtrees.HasLabel{X: 1, Label: "file"},
			enumtrees.Descendant{X: 0, Y: 1},
		)},
	)
	q, err := enumtrees.CompileMSOFirstOrder(phi, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := enumtrees.ParseTree("(dir (dir (file)) (dir))")
	e, id, err := enumtrees.New(tr, q, enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Root dir and its first child contain files; the empty dir does not.
	if got := e.Snapshot().Query(id).Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// Add a file to the empty dir.
	var emptyDir enumtrees.NodeID
	for _, n := range tr.Nodes() {
		if n.Label == "dir" && n.IsLeaf() {
			emptyDir = n.ID
		}
	}
	if _, err := e.Apply(enumtrees.Update{Op: enumtrees.OpInsertFirstChild, Node: emptyDir, Label: "file"}); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Query(id).Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

// TestSpannerEndToEnd exercises the word facade.
func TestSpannerEndToEnd(t *testing.T) {
	alpha := enumtrees.ByteAlphabet("abc")
	p := enumtrees.Contains(enumtrees.Cat(
		enumtrees.Lit{Label: "a"},
		enumtrees.Capture{Var: 0, Inner: enumtrees.PlusP{Inner: enumtrees.Lit{Label: "b"}}},
		enumtrees.Lit{Label: "c"},
	))
	q, err := enumtrees.CompilePattern(p, alpha)
	if err != nil {
		t.Fatal(err)
	}
	e, id, err := enumtrees.NewWord(enumtrees.TextLabels("abbcab"), q, enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One match: positions 1-2 ("bb" between a and c).
	res := e.Snapshot().Query(id).All()
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	spans := enumtrees.Spans(res[0])
	if len(spans[0]) != 2 {
		t.Fatalf("span = %v", spans)
	}
	// Fix the trailing "ab" into "abc": a second match appears.
	ids, _ := e.Word()
	if _, err := e.Apply(enumtrees.Update{Op: enumtrees.OpInsertAfter, Node: ids[len(ids)-1], Label: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Query(id).Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func ExampleNew() {
	tr, _ := enumtrees.ParseTree("(a (b) (a))")
	q := enumtrees.SelectLabel([]enumtrees.Label{"a", "b"}, "a", 0)
	qs, id, _ := enumtrees.New(tr, q, enumtrees.Options{})
	fmt.Println(qs.Snapshot().Query(id).Count())
	// Output: 2
}

// TestPathAndAggregates exercises the path front-end and the semiring
// aggregates through the facade.
func TestPathAndAggregates(t *testing.T) {
	alpha := []enumtrees.Label{"doc", "sec", "fig", "par"}
	q := enumtrees.MustCompilePath("/doc//sec/fig", alpha, 0)
	tr, _ := enumtrees.ParseTree("(doc (sec (fig) (par)) (par (sec (fig) (fig))))")
	qs, id, err := enumtrees.New(tr, q, enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := qs.Snapshot().Query(id)
	// sec under doc has one fig; the sec under par is still a descendant
	// of doc, so its two figs match as well.
	if snap.Count() != 3 {
		t.Fatalf("count = %d, want 3", snap.Count())
	}
	// Path automata are unambiguous on these queries... not in general;
	// but derivation count must be >= result count.
	if snap.Derivations().Int64() < 3 {
		t.Fatalf("derivations = %v", snap.Derivations())
	}
	if mn, ok := snap.MinResultSize(); !ok || mn != 1 {
		t.Fatalf("min size = %d, %v", mn, ok)
	}
	if mx, ok := snap.MaxResultSize(); !ok || mx != 1 {
		t.Fatalf("max size = %d, %v", mx, ok)
	}
}

// TestDescendantAtDepth checks the facade's E5 query: an error, not a
// panic, for depths below 1, and the right answers for k = 2.
func TestDescendantAtDepth(t *testing.T) {
	alpha := []enumtrees.Label{"a", "b"}
	for _, k := range []int{0, -1} {
		if q, err := enumtrees.DescendantAtDepth(alpha, "b", k, 0); err == nil || q != nil {
			t.Fatalf("DescendantAtDepth(k=%d) = %v, %v; want an error", k, q, err)
		}
	}
	q, err := enumtrees.DescendantAtDepth(alpha, "b", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the root has a b two edges below it (nodes 2 and 4); nodes 1
	// and 3 have theirs one edge below.
	tr, _ := enumtrees.ParseTree("(a (a (b)) (a (b)))")
	qs, id, err := enumtrees.New(tr, q, enumtrees.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for a := range qs.Snapshot().Query(id).Results() {
		got = append(got, a.String())
	}
	if want := []string{"{<X0:n0>}"}; !slices.Equal(got, want) {
		t.Fatalf("answers %v, want %v", got, want)
	}
}
