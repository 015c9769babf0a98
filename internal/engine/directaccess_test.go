package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/enumerate"
	"repro/internal/mso"
	"repro/internal/paths"
	"repro/internal/spanner"
	"repro/internal/tree"
	"repro/internal/tva"
)

// checkDirectAccess verifies the full direct-access contract of one
// snapshot against its own enumeration: Count matches the drained
// length, At(j) equals the j-th Results element for every j, out-of-
// range ranks error, and Page slices agree.
func checkDirectAccess(t *testing.T, s *Snapshot) {
	t.Helper()
	var drained []tree.Assignment
	for a := range s.Results() {
		drained = append(drained, a)
	}
	if got := s.Count(); got != len(drained) {
		t.Fatalf("v%d: Count = %d, drained %d (direct=%v)", s.Version(), got, len(drained), s.DirectAccess())
	}
	for j := range drained {
		a, err := s.At(j)
		if err != nil {
			t.Fatalf("v%d: At(%d): %v", s.Version(), j, err)
		}
		if a.Key() != drained[j].Key() {
			t.Fatalf("v%d: At(%d) = %v, Results[%d] = %v (direct=%v)",
				s.Version(), j, a, j, drained[j], s.DirectAccess())
		}
	}
	if _, err := s.At(len(drained)); err == nil {
		t.Fatalf("v%d: At(%d) succeeded past the end", s.Version(), len(drained))
	}
	if _, err := s.At(-1); err == nil {
		t.Fatalf("v%d: At(-1) succeeded", s.Version())
	}
	off, lim := len(drained)/3, 4
	page := s.Page(off, lim)
	want := drained[off:min(off+lim, len(drained))]
	if len(page) != len(want) {
		t.Fatalf("v%d: Page(%d,%d) has %d elements, want %d", s.Version(), off, lim, len(page), len(want))
	}
	for i := range page {
		if page[i].Key() != want[i].Key() {
			t.Fatalf("v%d: Page(%d,%d)[%d] = %v, want %v", s.Version(), off, lim, i, page[i], want[i])
		}
	}
}

// directAccessQueries are the tree queries the At/Count contract is
// exercised with: single-variable selection, the multi-state ancestor
// query, a two-variable product-heavy FO query, and a path query whose
// automaton is ambiguous (several runs per answer), which must take the
// fallback and still agree.
func directAccessQueries(t *testing.T) map[string]*tva.Unranked {
	t.Helper()
	alpha := []tree.Label{"a", "b", "c"}
	pair, err := mso.CompileFO(mso.Child{X: 0, Y: 1}, alpha, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*tva.Unranked{
		"selectB":   tva.SelectLabel(alpha, "b", 0),
		"ancestor":  tva.MarkedAncestor("a", "b", "c", 0),
		"childPair": pair,
		"pathAB":    paths.MustCompile("//a//b", alpha, 0),
	}
}

// wantDirect is the expected DirectAccess classification per query:
// only the ambiguous path automaton falls back.
var wantDirect = map[string]bool{
	"selectB": true, "ancestor": true, "childPair": true, "pathAB": false,
}

// TestAtMatchesResults checks, for every query and after every update
// batch, that At(j) returns exactly the j-th element of Results — the
// acceptance contract of the direct-access subsystem.
func TestAtMatchesResults(t *testing.T) {
	for name, q := range directAccessQueries(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			ut := tva.RandomUnrankedTree(rng, 30, []tree.Label{"a", "b", "c"})
			e, qid := treeQuery(t, ut, q, Options{})
			if got := e.Snapshot().Query(qid).DirectAccess(); got != wantDirect[name] {
				t.Fatalf("DirectAccess = %v, want %v", got, wantDirect[name])
			}
			checkDirectAccess(t, e.Snapshot().Query(qid))
			for step := 0; step < 12; step++ {
				batch := randomTreeBatch(rng, e.Tree(), 4)
				m, _, err := e.ApplyBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				checkDirectAccess(t, m.Query(qid))
			}
		})
	}
}

// randomTreeBatch draws a batch of valid edits against the current tree
// (IDs are resolved per edit position optimistically; inserts later in
// the batch may target nodes created earlier only via existing IDs).
func randomTreeBatch(rng *rand.Rand, ut *tree.Unranked, n int) []Update {
	labels := []tree.Label{"a", "b", "c"}
	var batch []Update
	for i := 0; i < n; i++ {
		nodes := ut.Nodes()
		nd := nodes[rng.Intn(len(nodes))]
		l := labels[rng.Intn(len(labels))]
		switch rng.Intn(4) {
		case 0:
			batch = append(batch, Update{Op: OpRelabel, Node: nd.ID, Label: l})
		case 1:
			batch = append(batch, Update{Op: OpInsertFirstChild, Node: nd.ID, Label: l})
		case 2:
			if nd.Parent != nil {
				batch = append(batch, Update{Op: OpInsertRightSibling, Node: nd.ID, Label: l})
			}
		default:
			if nd.IsLeaf() && nd.Parent != nil {
				batch = append(batch, Update{Op: OpDelete, Node: nd.ID})
			}
		}
	}
	return batch
}

// TestCountAndAtDoNoEnumeration is the regression test for the
// O(#answers) Snapshot.Count bug: on a large answer set, Count, At and
// Page must not start a single enumeration (observed through the
// enumerate.EnumStarts instrumentation counter), and the algebraic
// count must equal the drained one.
func TestCountAndAtDoNoEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ut := tva.RandomUnrankedTree(rng, 4000, alphaAB)
	e, qid := mustSelectB(t, ut)
	s := e.Snapshot().Query(qid)
	if !s.DirectAccess() {
		t.Fatal("selectB snapshot should support direct access")
	}
	before := enumerate.EnumStarts.Load()
	count := s.Count()
	mid, err := s.At(count / 2)
	if err != nil {
		t.Fatal(err)
	}
	page := s.Page(count-10, 20)
	if got := enumerate.EnumStarts.Load(); got != before {
		t.Fatalf("Count/At/Page started %d enumerations", got-before)
	}
	if count < 1000 {
		t.Fatalf("answer set unexpectedly small: %d", count)
	}
	drained := 0
	for range s.Results() {
		drained++
	}
	if count != drained {
		t.Fatalf("Count = %d, drained %d", count, drained)
	}
	if len(mid) != 1 || len(page) != 10 {
		t.Fatalf("At/Page shape wrong: |mid|=%d |page|=%d", len(mid), len(page))
	}
	if enumerate.EnumStarts.Load() == before {
		t.Fatal("instrumentation counter did not observe the drain")
	}
}

// TestAmbiguousQueryFallsBack pins the ambiguity contract: the //a//b
// path automaton admits several runs per answer (one per a-ancestor),
// so the registration check must refuse direct access, Derivations must
// overcount, and Count/At must still be exact via the fallback.
func TestAmbiguousQueryFallsBack(t *testing.T) {
	alpha := []tree.Label{"a", "b", "c"}
	// a-root → a → b: the b-node has two a-ancestors, hence two runs.
	ut, err := tree.ParseUnranked("(a (a (b)))")
	if err != nil {
		t.Fatal(err)
	}
	e, qid := treeQuery(t, ut, paths.MustCompile("//a//b", alpha, 0), Options{})
	s := e.Snapshot().Query(qid)
	if s.DirectAccess() {
		t.Fatal("path query //a//b must not be classified unambiguous")
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if d := s.Derivations(); d.Int64() != 2 {
		t.Fatalf("Derivations = %s, want 2 (one per a-ancestor)", d)
	}
	checkDirectAccess(t, s)
}

// TestDirectAccessModes checks the ModeNaive baseline at the
// enumeration layer, on the engine's own frozen (box, index, counts)
// roots of the ambiguous //a//b query, across edits: it enumerates the
// snapshot's answer set and has no direct access (ErrNoDirectAccess).
func TestDirectAccessModes(t *testing.T) {
	q := paths.MustCompile("//a//b", []tree.Label{"a", "b", "c"}, 0)
	t.Run("naive", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		ut := tva.RandomUnrankedTree(rng, 25, []tree.Label{"a", "b", "c"})
		e, qid := treeQuery(t, ut, q, Options{})
		checkNaiveOnRoot(t, e.Snapshot().Query(qid))
		for step := 0; step < 6; step++ {
			m, _, err := e.ApplyBatch(randomTreeBatch(rng, e.Tree(), 3))
			if err != nil {
				t.Fatal(err)
			}
			checkNaiveOnRoot(t, m.Query(qid))
		}
	})
}

// checkNaiveOnRoot runs ModeNaive on a snapshot's frozen root and checks
// it against the snapshot: the same answer set, and no ranked access.
func checkNaiveOnRoot(t *testing.T, s *Snapshot) {
	t.Helper()
	_, gamma, emptyOK := s.Accepting()
	answers, seen := map[string]bool{}, map[string]bool{}
	for _, a := range s.All() {
		answers[a.Key()] = true
	}
	for a := range enumerate.Assignments(s.Root(), gamma, emptyOK, enumerate.ModeNaive) {
		if !answers[a.Key()] {
			t.Fatalf("v%d: ModeNaive enumerates %v, not an answer", s.Version(), a)
		}
		seen[a.Key()] = true
	}
	if len(seen) != len(answers) {
		t.Fatalf("v%d: ModeNaive enumerates %d of %d answers", s.Version(), len(seen), len(answers))
	}
	d := enumerate.GetDescender()
	defer enumerate.PutDescender(d)
	if _, err := d.AtInt(s.Root(), gamma, emptyOK, enumerate.ModeNaive, 0); !errors.Is(err, enumerate.ErrNoDirectAccess) {
		t.Fatalf("v%d: ModeNaive AtInt(0) = %v, want ErrNoDirectAccess", s.Version(), err)
	}
}

// TestWordDirectAccess runs the contract on the word pipeline with a
// spanner query producing multi-singleton assignments, across letter
// edits.
func TestWordDirectAccess(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	q, err := spanner.CompileWVA(
		spanner.Contains(spanner.Cat(
			spanner.Lit{Label: "a"},
			spanner.Capture{Var: 0, Inner: spanner.Plus{Inner: spanner.Lit{Label: "b"}}})),
		alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	letters := make([]tree.Label, 40)
	for i := range letters {
		letters[i] = alpha[rng.Intn(2)]
	}
	e, qid := wordQuery(t, letters, q, Options{})
	checkDirectAccess(t, e.Snapshot().Query(qid))
	for step := 0; step < 15; step++ {
		ids, _ := e.Word()
		id := ids[rng.Intn(len(ids))]
		u := Update{Op: OpRelabel, Node: id}
		switch rng.Intn(3) {
		case 0:
			u.Label = alpha[rng.Intn(2)]
		case 1:
			u.Op, u.Label = OpInsertAfter, alpha[rng.Intn(2)]
		default:
			if e.Len() <= 1 {
				continue
			}
			u.Op = OpDelete
		}
		m, _, err := e.ApplyBatch([]Update{u})
		if err != nil {
			t.Fatal(err)
		}
		checkDirectAccess(t, m.Query(qid))
	}
}

// TestSemiringCountVsDrain is the ambiguity property test: across
// random nondeterministic TVAs and MSO-compiled queries, the semiring
// derivation count must equal the drained result count exactly when the
// registration-time unambiguity check says so, and the public Count
// must equal the drained count ALWAYS (ambiguous automata take the
// enumeration fallback instead of silently returning derivation
// counts). Derivations itself may only ever overcount.
func TestSemiringCountVsDrain(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	unambiguousSeen, ambiguousSeen := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		q := tva.RandomUnranked(rng, 2+int(seed%3), alpha, tree.VarSet(1), 0.25)
		ut := tva.RandomUnrankedTree(rng, 12, alpha)
		e := NewTreeSet(ut)
		qid, err := e.Register(q, Options{})
		if err != nil {
			continue // degenerate random automaton
		}
		for step := 0; step < 4; step++ {
			s := e.Snapshot().Query(qid)
			drained := 0
			for range s.Results() {
				drained++
			}
			if got := s.Count(); got != drained {
				t.Fatalf("seed %d step %d: Count = %d, drained %d (direct=%v)",
					seed, step, got, drained, s.DirectAccess())
			}
			deriv := s.Derivations()
			if s.DirectAccess() {
				unambiguousSeen++
				if deriv.Int64() != int64(drained) {
					t.Fatalf("seed %d step %d: unambiguous but derivations %s != drained %d",
						seed, step, deriv, drained)
				}
			} else {
				ambiguousSeen++
				if deriv.Int64() < int64(drained) {
					t.Fatalf("seed %d step %d: derivations %s undercount drained %d",
						seed, step, deriv, drained)
				}
			}
			nodes := e.Tree().Nodes()
			mustApply(t, &e.Engine, Update{Op: OpRelabel, Node: nodes[rng.Intn(len(nodes))].ID, Label: alpha[rng.Intn(2)]})
		}
	}
	if unambiguousSeen == 0 || ambiguousSeen == 0 {
		t.Fatalf("property test did not cover both classes: unambiguous=%d ambiguous=%d",
			unambiguousSeen, ambiguousSeen)
	}

	// MSO-compiled queries go through determinization and must always be
	// classified unambiguous.
	phi := mso.Conj(
		mso.HasLabel{X: 0, Label: "b"},
		mso.Not{F: mso.Exists{X: 1, F: mso.Conj(
			mso.Singleton{X: 1}, mso.HasLabel{X: 1, Label: "a"}, mso.Child{X: 0, Y: 1})}},
	)
	q, err := mso.CompileFO(phi, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	e, qid := treeQuery(t, tva.RandomUnrankedTree(rng, 30, alpha), q, Options{})
	s := e.Snapshot().Query(qid)
	if !s.DirectAccess() {
		t.Fatal("MSO-compiled (determinized) query must be unambiguous")
	}
	drained := 0
	for range s.Results() {
		drained++
	}
	if s.Derivations().Int64() != int64(drained) {
		t.Fatalf("MSO query: derivations %s, drained %d", s.Derivations(), drained)
	}
}

// TestMultiSnapshotDirectAccess checks that a QuerySet publication
// serves Count/At for every standing query from one MultiSnapshot.
func TestMultiSnapshotDirectAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ut := tva.RandomUnrankedTree(rng, 35, []tree.Label{"a", "b", "c"})
	qs := NewTreeSet(ut)
	ids := []QueryID{}
	for _, q := range []*tva.Unranked{
		tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0),
		tva.MarkedAncestor("a", "b", "c", 0),
	} {
		id, err := qs.Register(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m, _, err := qs.ApplyBatch(randomTreeBatch(rng, qs.Tree(), 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		checkDirectAccess(t, m.Query(id))
	}
}

// TestPageHugeLimit guards the preallocation clamp: a caller-supplied
// limit far past the answer count must not allocate proportionally,
// neither on a direct-access snapshot (clamped by Count) nor on an
// ambiguous one (never preallocated from the limit).
func TestPageHugeLimit(t *testing.T) {
	for name, q := range map[string]*tva.Unranked{
		"selectB": tva.SelectLabel([]tree.Label{"a", "b"}, "b", 0),
		// Ambiguous: the page size is not known before the stream ends.
		"pathAB": paths.MustCompile("//a//b", []tree.Label{"a", "b"}, 0),
	} {
		t.Run(name, func(t *testing.T) {
			ut, err := tree.ParseUnranked("(a (b) (b) (b))")
			if err != nil {
				t.Fatal(err)
			}
			e, qid := treeQuery(t, ut, q, Options{})
			s := e.Snapshot().Query(qid)
			got := s.Page(1, 1<<30)
			if len(got) != 2 {
				t.Fatalf("Page(1, huge) returned %d elements, want 2", len(got))
			}
			if got := s.Page(1<<30, 1<<30); len(got) != 0 {
				t.Fatalf("Page past the end returned %d elements", len(got))
			}
		})
	}
}

// TestSizeAggregatesCached checks MinResultSize/MaxResultSize against
// the answer sizes of a drain, and that the fold behind them runs once
// per snapshot: repeated calls agree and allocate nothing.
func TestSizeAggregatesCached(t *testing.T) {
	for name, q := range directAccessQueries(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			ut := tva.RandomUnrankedTree(rng, 40, []tree.Label{"a", "b", "c"})
			e, qid := treeQuery(t, ut, q, Options{})
			s := e.Snapshot().Query(qid)
			all := s.All()
			if len(all) == 0 {
				t.Fatal("empty answer set: the sizes are not exercised")
			}
			wantMin, wantMax := len(all[0]), len(all[0])
			for _, a := range all {
				wantMin, wantMax = min(wantMin, len(a)), max(wantMax, len(a))
			}
			mn, okMin := s.MinResultSize()
			mx, okMax := s.MaxResultSize()
			if !okMin || !okMax || mn != wantMin || mx != wantMax {
				t.Fatalf("min/max = %d,%v/%d,%v, want %d/%d", mn, okMin, mx, okMax, wantMin, wantMax)
			}
			allocs := testing.AllocsPerRun(10, func() {
				mn2, ok2 := s.MinResultSize()
				mx2, ok3 := s.MaxResultSize()
				if mn2 != mn || mx2 != mx || !ok2 || !ok3 {
					t.Fatalf("repeated call: min/max = %d/%d, want %d/%d", mn2, mx2, mn, mx)
				}
			})
			if allocs != 0 {
				t.Fatalf("repeated MinResultSize/MaxResultSize allocate %.0f times", allocs)
			}
		})
	}
}

// TestPageAllocsIndependentOfOffset is the offset-independence guard of
// the seek: a page deep into a large answer set allocates within a small
// constant of the first page, so Page does no O(offset) work — no
// answers before the offset are produced (skipping them would cost
// several allocations per skipped answer, thousands here). The slack
// covers what does vary with the offset: the seek's trail, one frame
// per level of the O(log|T|)-deep descent, each replayed once.
func TestPageAllocsIndependentOfOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ut := tva.RandomUnrankedTree(rng, 4000, []tree.Label{"a", "b", "c"})
	e, qid := treeQuery(t, ut, tva.MarkedAncestor("a", "b", "c", 0), Options{})
	s := e.Snapshot().Query(qid)
	count := s.Count()
	if !s.DirectAccess() || count < 1000 {
		t.Fatalf("want a large direct-access answer set, got %d (direct=%v)", count, s.DirectAccess())
	}
	const lim, slack = 20, 64
	first := testing.AllocsPerRun(20, func() { s.Page(0, lim) })
	for _, off := range []int{count / 2, count - lim} {
		deep := testing.AllocsPerRun(20, func() { s.Page(off, lim) })
		t.Logf("allocs: Page(0, %d) %.0f, Page(%d, %d) %.0f", lim, first, off, lim, deep)
		if deep > first+slack || first > deep+slack {
			t.Fatalf("Page(%d, %d) allocates %.0f times, Page(0, %d) %.0f: the seek is not offset-independent",
				off, lim, deep, lim, first)
		}
	}
}
