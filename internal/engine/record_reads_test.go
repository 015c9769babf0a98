package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
)

// TestDeltaRecordServesReads checks the reads of snapshots that carry
// the keyed delta diff's answer record (every publication of a
// subscribed ambiguous query): Page at the first, middle and last
// offset and past the end, with limits beyond the count; At; All;
// Results abandoned halfway; ParallelAll; and Chunks, must equal a
// fresh enumeration of the same frozen root, also from concurrent
// readers of one snapshot. A record-served page counts only the answers
// it returns in AnswersEnumerated. The answers it hands out are the
// caller's: writing into them, or appending to them, changes neither
// the next answer of the same page, nor the record (Validate), nor the
// next publication's delta (the strict replay). The queries are the
// path query //a//b, a seeded random two-variable automaton, and //a//b
// united with an automaton that accepts the empty assignment, so the
// empty answer, which must come out as a non-nil empty slice, is in
// every answer set.
func TestDeltaRecordServesReads(t *testing.T) {
	alpha := []tree.Label{"a", "b", "c"}
	random2, err := diffTreeQuery("random2:33")
	if err != nil {
		t.Fatal(err)
	}
	emptyOnly := tva.LeafCount(alpha, 1, 0) // accepts every tree, with no variable set
	emptyOnly.Vars = tree.NewVarSet(0)
	pathAB := paths.MustCompile("//a//b", alpha, 0)
	relabels := func(seed int64, nodes int) *diffScript {
		rng := rand.New(rand.NewSource(seed))
		s := &diffScript{tree: tva.RandomUnrankedTree(rng, nodes, alpha).String()}
		for range 8 {
			var batch []string
			for range 1 + rng.Intn(2) {
				batch = append(batch, fmt.Sprintf("relabel %d %s", rng.Intn(nodes), alpha[rng.Intn(len(alpha))]))
			}
			s.batches = append(s.batches, batch)
		}
		return s
	}
	for _, tc := range []struct {
		name      string
		q         *tva.Unranked
		script    *diffScript
		wantEmpty bool
	}{
		{"pathAB", pathAB, relabels(41, 300), false},
		// TestDeltaReplayAmbiguousMulti's structural script of seed 33,
		// whose answers have two singletons.
		{"random2", random2, randomDiffScript(rand.New(rand.NewSource(1033)), "random2:33", false, true), false},
		{"emptyOK", tva.UnionUnranked(pathAB, emptyOnly), relabels(43, 60), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ut, err := tree.ParseUnranked(tc.script.tree)
			if err != nil {
				t.Fatal(err)
			}
			e, id := newTreeQuery(t, ut, tc.q, engine.Options{})
			ch, err := e.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			c := newDeltaConsumer(t, ch)
			served := 0
			for bi, raw := range tc.script.batches {
				batch := make([]engine.Update, 0, len(raw))
				for _, ed := range raw {
					u, err := parseDiffEdit(ed)
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, u)
				}
				keyed := e.Stats().KeyedDiffs
				m, _, err := e.ApplyBatch(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				c.advance(t, m.Version())
				snap := m.Query(id)
				if snap.DirectAccess() {
					t.Fatalf("batch %d: the query has direct access", bi)
				}
				want := slices.Collect(freshAnswers(snap))
				if got := resultKeys(slices.Values(want)); !slices.Equal(c.keys(), got) {
					t.Fatalf("batch %d: delta replay diverges\nreplayed: %v\nfull:     %v", bi, c.keys(), got)
				}
				if tc.wantEmpty && !slices.ContainsFunc(want, func(a tree.Assignment) bool { return len(a) == 0 }) {
					t.Fatalf("batch %d: the empty assignment is not an answer", bi)
				}
				// The keyed diff ran, so it left its record on snap.
				record := e.Stats().KeyedDiffs > keyed
				if record {
					served++
				}
				checkRecordReads(t, e, snap, want, record)
				if err := snap.Validate(); err != nil {
					t.Fatalf("batch %d, after writing into the answers read: %v", bi, err)
				}
			}
			if served == 0 {
				t.Fatal("no publication left an answer record")
			}
		})
	}
}

// checkRecordReads runs every read of snap against want, its answers in
// Results order, once serially and once from four concurrent readers,
// then writes into every answer it was handed. On a record-bearing
// snapshot it also checks that a page counts only its own answers.
func checkRecordReads(t *testing.T, e *engine.TreeSet, snap *engine.Snapshot, want []tree.Assignment, record bool) {
	t.Helper()
	n := len(want)
	wantKeys := assignmentKeys(want)
	if got := snap.Count(); got != n {
		t.Fatalf("v%d: Count = %d, want %d", snap.Version(), got, n)
	}
	// read is one read's answers, which must be ranks [lo, hi).
	type read struct {
		what   string
		lo, hi int
		got    []tree.Assignment
	}
	reads := func() []read {
		var out []read
		for _, off := range []int{0, n / 2, n - 1, n, n + 3} {
			for _, lim := range []int{1, 7, n + 5} {
				if off >= 0 {
					lo := min(off, n)
					out = append(out, read{fmt.Sprintf("Page(%d, %d)", off, lim), lo, min(off+lim, n), snap.Page(off, lim)})
				}
			}
		}
		for _, j := range []int{0, n / 2, n - 1} {
			if j < 0 || j >= n {
				continue
			}
			a, err := snap.At(j)
			if err != nil {
				a = nil // reported as a nil answer below
			}
			out = append(out, read{fmt.Sprintf("At(%d)", j), j, j + 1, []tree.Assignment{a}})
		}
		out = append(out, read{"All", 0, n, snap.All()}, read{"ParallelAll(3)", 0, n, snap.ParallelAll(3)})
		var head []tree.Assignment
		for a := range snap.Results() {
			if head = append(head, a); len(head) > n/2 {
				break
			}
		}
		out = append(out, read{"Results, abandoned", 0, min(n/2+1, n), head})
		for _, cw := range [][2]int{{3, 2}, {1, 5}, {4, 64}} {
			var chunks []tree.Assignment
			for chunk := range snap.Chunks(cw[0], cw[1]) {
				chunks = append(chunks, chunk...)
			}
			out = append(out, read{fmt.Sprintf("Chunks(%d, %d)", cw[0], cw[1]), 0, n, chunks})
		}
		for range snap.Chunks(3, 1) {
			break
		}
		return out
	}
	check := func(rs []read) {
		t.Helper()
		for _, r := range rs {
			if got, w := assignmentKeys(r.got), wantKeys[r.lo:r.hi]; !slices.Equal(got, w) {
				t.Fatalf("v%d: %s diverges from the enumeration\ngot:  %v\nwant: %v", snap.Version(), r.what, got, w)
			}
			for _, a := range r.got {
				if a == nil {
					t.Fatalf("v%d: %s returned a nil assignment", snap.Version(), r.what)
				}
			}
		}
		if _, err := snap.At(n); err == nil {
			t.Fatalf("v%d: At(%d) succeeded past the end", snap.Version(), n)
		}
	}
	check(reads())
	var wg sync.WaitGroup
	concurrent := make([][]read, 4)
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = reads()
		}()
	}
	wg.Wait()
	for _, rs := range concurrent {
		check(rs)
	}

	if record && n > 0 {
		before := e.Stats().AnswersEnumerated
		page := snap.Page(n/2, 7)
		if got := e.Stats().AnswersEnumerated - before; got != int64(len(page)) {
			t.Fatalf("v%d: a record-served Page(%d, 7) of %d answers counted %d", snap.Version(), n/2, len(page), got)
		}
	}
	// Appending to one answer of a page must not write into the next.
	if page := snap.Page(0, 2); len(page) == 2 {
		_ = append(page[0], tree.Singleton{Var: 7, Node: -7})
		if page[1].Key() != wantKeys[1] {
			t.Fatalf("v%d: appending to a page's answer 0 changed answer 1 to %q", snap.Version(), page[1].Key())
		}
	}
	for _, rs := range append(concurrent, reads()) {
		for _, r := range rs {
			for _, a := range r.got {
				for i := range a {
					a[i] = tree.Singleton{Var: 9, Node: -9}
				}
			}
		}
	}
}
