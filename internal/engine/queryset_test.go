package engine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tree"
	"repro/internal/tva"
)

// selectLabel builds the standing query "X0 selects an l-labeled node"
// over the {a, b, c} test alphabet.
func selectLabel(l tree.Label) *tva.Unranked {
	return tva.SelectLabel([]tree.Label{"a", "b", "c"}, l, 0)
}

// expectedLabel lists the keys of the expected result set of
// selectLabel(l) on t.
func expectedLabel(t *tree.Unranked, l tree.Label) []string {
	var out []string
	for _, n := range t.Nodes() {
		if n.Label == l {
			out = append(out, tree.Assignment{{Var: 0, Node: n.ID}}.Normalize().Key())
		}
	}
	slices.Sort(out)
	return out
}

// randomEdit applies one random valid edit to the set, mirroring the
// single-engine tests.
func randomEdit(t *testing.T, s *TreeSet, rng *rand.Rand) {
	t.Helper()
	labels := []tree.Label{"a", "b", "c"}
	nodes := s.Tree().Nodes()
	n := nodes[rng.Intn(len(nodes))]
	u := Update{Op: OpRelabel, Node: n.ID, Label: labels[rng.Intn(3)]}
	switch rng.Intn(4) {
	case 1:
		u.Op = OpInsertFirstChild
	case 2:
		if n.Parent == nil {
			return
		}
		u.Op = OpInsertRightSibling
	case 3:
		if !n.IsLeaf() || n.Parent == nil {
			return
		}
		u.Op = OpDelete
	}
	mustApply(t, &s.Engine, u)
}

// TestLateRegistrationMatchesFresh is the property test of runtime
// registration: a query registered AFTER a random edit script must
// enumerate exactly what a fresh engine built at that version does — and
// registering it must not disturb the queries already standing.
func TestLateRegistrationMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ut := tva.RandomUnrankedTree(rng, 30+rng.Intn(50), []tree.Label{"a", "b", "c"})
		s := NewTreeSet(ut)
		early, err := s.Register(selectLabel("b"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			randomEdit(t, s, rng)
		}
		beforeReg := resultKeys(s.Snapshot().Query(early).Results())

		late, err := s.Register(selectLabel("a"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Snapshot()

		// The late query answers as a fresh engine at this version would.
		fresh, fid := treeQuery(t, s.Tree().Clone(), selectLabel("a"), Options{})
		want := resultKeys(fresh.Snapshot().Query(fid).Results())
		if got := resultKeys(m.Query(late).Results()); !slices.Equal(got, want) {
			t.Fatalf("seed %d: late registration got %d results, fresh engine %d", seed, len(got), len(want))
		}
		// Double-check against the tree directly.
		if wantTree := expectedLabel(s.Tree(), "a"); !slices.Equal(want, wantTree) {
			t.Fatalf("seed %d: fresh engine disagrees with the tree", seed)
		}
		// The early query is untouched by the registration.
		if got := resultKeys(m.Query(early).Results()); !slices.Equal(got, beforeReg) {
			t.Fatalf("seed %d: registration disturbed a standing query", seed)
		}

		// And both queries stay correct under further edits.
		for i := 0; i < 40; i++ {
			randomEdit(t, s, rng)
		}
		m = s.Snapshot()
		if got := resultKeys(m.Query(late).Results()); !slices.Equal(got, expectedLabel(s.Tree(), "a")) {
			t.Fatalf("seed %d: late query wrong after further edits", seed)
		}
		if got := resultKeys(m.Query(early).Results()); !slices.Equal(got, expectedLabel(s.Tree(), "b")) {
			t.Fatalf("seed %d: early query wrong after further edits", seed)
		}
	}
}

// TestQuerySetSharesTermWork pins the C2 acceptance property at test
// scale: a shared set applying a batch stream to k=4 standing queries
// performs the term work (path copies, rebalances) ONCE — counters equal
// to the k=1 case — while k independent engines perform it k times.
func TestQuerySetSharesTermWork(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(11))
	ut := tva.RandomUnrankedTree(rng, 200, []tree.Label{"a", "b", "c"})
	queries := []*tva.Unranked{selectLabel("a"), selectLabel("b"), selectLabel("c"), selectLabel("a")}

	stream := func(apply func(batch []Update)) {
		srng := rand.New(rand.NewSource(12))
		labels := []tree.Label{"a", "b", "c"}
		ids := []tree.NodeID{}
		for _, n := range ut.Nodes() {
			ids = append(ids, n.ID)
		}
		for b := 0; b < 30; b++ {
			var batch []Update
			for j := 0; j < 5; j++ {
				batch = append(batch, Update{Op: OpRelabel, Node: ids[srng.Intn(len(ids))], Label: labels[srng.Intn(3)]})
			}
			apply(batch)
		}
	}

	run := func(nq int) (pathCopies, rebalances int) {
		single := NewTreeSet(ut.Clone())
		for i := 0; i < nq; i++ {
			if _, err := single.Register(queries[i], Options{}); err != nil {
				t.Fatal(err)
			}
		}
		stream(func(batch []Update) {
			if _, _, err := single.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		})
		st := single.Stats()
		return st.PathCopies, st.Rebalances
	}

	pc1, rb1 := run(1)
	pcK, rbK := run(k)
	if pcK != pc1 || rbK != rb1 {
		t.Fatalf("shared term work grew with queries: k=1 (%d copies, %d rebalances) vs k=%d (%d, %d)",
			pc1, rb1, k, pcK, rbK)
	}

	// k independent engines: the same stream costs k× the term work.
	engines := make([]*TreeSet, k)
	for i := range engines {
		engines[i], _ = treeQuery(t, ut.Clone(), queries[i], Options{})
	}
	stream(func(batch []Update) {
		for _, e := range engines {
			if _, _, err := e.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	})
	total := 0
	for _, e := range engines {
		total += e.Stats().PathCopies
	}
	if total != k*pc1 {
		t.Fatalf("independent engines did %d path copies, want %d×%d = %d", total, k, pc1, k*pc1)
	}
}

// TestUnregisterReleasesPipeline checks that unregistering removes
// exactly one pipeline — its attachments are dropped, the others keep
// answering — and that already-published snapshots still cover the
// removed query.
func TestUnregisterReleasesPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ut := tva.RandomUnrankedTree(rng, 60, []tree.Label{"a", "b", "c"})
	s := NewTreeSet(ut)
	qa, err := s.Register(selectLabel("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.Register(selectLabel("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	boxesBefore := s.Stats().BoxesRebuilt

	if err := s.Unregister(qa); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BoxesRebuilt; got < boxesBefore {
		t.Fatalf("BoxesRebuilt went backwards across unregister: %d -> %d", boxesBefore, got)
	}
	if err := s.Unregister(qa); err == nil {
		t.Fatal("double unregister must fail")
	}
	if got := s.Queries(); !slices.Equal(got, []QueryID{qb}) {
		t.Fatalf("queries after unregister = %v, want [%v]", got, qb)
	}
	if len(s.pipes) != 1 {
		t.Fatalf("pipelines not released: %d remain", len(s.pipes))
	}

	// The new snapshot lacks qa; the old one still answers it.
	m := s.Snapshot()
	if m.Query(qa) != nil {
		t.Fatal("unregistered query still published")
	}
	if before.Query(qa) == nil || before.Query(qa).Count() != len(expectedLabel(ut, "a")) {
		t.Fatal("pre-unregister snapshot no longer answers the removed query")
	}

	// The surviving query keeps serving through further edits.
	for i := 0; i < 40; i++ {
		randomEdit(t, s, rng)
	}
	if got := resultKeys(s.Snapshot().Query(qb).Results()); !slices.Equal(got, expectedLabel(s.Tree(), "b")) {
		t.Fatal("surviving query wrong after unregister + edits")
	}
}

// selectLetterWVA builds the word query "X0 selects an l-labeled
// letter" over the {a, b} test alphabet.
func selectLetterWVA(l tree.Label) *tva.WVA {
	q := &tva.WVA{
		NumStates: 2,
		Alphabet:  []tree.Label{"a", "b"},
		Vars:      tree.NewVarSet(0),
		Initial:   []tva.State{0},
		Final:     []tva.State{1},
	}
	for _, c := range q.Alphabet {
		q.Trans = append(q.Trans,
			tva.WTrans{From: 0, Label: c, Set: 0, To: 0},
			tva.WTrans{From: 1, Label: c, Set: 0, To: 1},
		)
	}
	q.Trans = append(q.Trans, tva.WTrans{From: 0, Label: l, Set: tree.NewVarSet(0), To: 1})
	return q
}

// expectedLetters lists the expected result keys of selectLetterWVA(l)
// on the current word: one singleton per l-labeled letter.
func expectedLetters(s *WordSet, l tree.Label) []string {
	ids, labels := s.Word()
	var out []string
	for i, lab := range labels {
		if lab == l {
			out = append(out, tree.Assignment{{Var: 0, Node: ids[i]}}.Normalize().Key())
		}
	}
	slices.Sort(out)
	return out
}

// TestWordSetLateRegistrationAndUnregister is the word-side mirror of
// the tree QuerySet tests: edits (including MoveRange bulk updates that
// trigger term rebuilds) precede a late registration, which must answer
// exactly per the current word; unregistering releases one pipeline
// while the survivor keeps serving.
func TestWordSetLateRegistrationAndUnregister(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	letters := make([]tree.Label, 24)
	for i := range letters {
		letters[i] = []tree.Label{"a", "b"}[rng.Intn(2)]
	}
	s, err := NewWordSet(letters)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.Register(selectLetterWVA("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Edit storm: relabels, inserts, deletes, and bulk moves.
	for i := 0; i < 60; i++ {
		ids, _ := s.Word()
		id := ids[rng.Intn(len(ids))]
		u := Update{Op: OpRelabel, Node: id, Label: []tree.Label{"a", "b"}[rng.Intn(2)]}
		switch rng.Intn(5) {
		case 1:
			u.Op = OpInsertAfter
		case 2:
			u.Op = OpInsertBefore
		case 3:
			if s.Len() <= 1 {
				continue
			}
			u.Op = OpDelete
		case 4:
			n := s.Len()
			if n < 4 {
				continue
			}
			from, k := rng.Intn(n-2), 1+rng.Intn(2)
			u = Update{Op: OpMoveRange, From: from, K: k, To: rng.Intn(n-k+1) - 1}
		}
		mustApply(t, &s.Engine, u)
	}
	if got := resultKeys(s.Snapshot().Query(qb).Results()); !slices.Equal(got, expectedLetters(s, "b")) {
		t.Fatal("standing word query wrong after edit storm")
	}

	// Late registration walks the edited (and rebuilt) live term.
	qa, err := s.Register(selectLetterWVA("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Snapshot()
	if got := resultKeys(m.Query(qa).Results()); !slices.Equal(got, expectedLetters(s, "a")) {
		t.Fatal("late word registration enumerates wrong assignments")
	}

	// Unregister the early query; the late one keeps serving under more
	// edits.
	if err := s.Unregister(qb); err != nil {
		t.Fatal(err)
	}
	ids, _ := s.Word()
	mustApply(t, &s.Engine, Update{Op: OpInsertAfter, Node: ids[0], Label: "a"})
	m = s.Snapshot()
	if m.Query(qb) != nil {
		t.Fatal("unregistered word query still published")
	}
	if got := resultKeys(m.Query(qa).Results()); !slices.Equal(got, expectedLetters(s, "a")) {
		t.Fatal("surviving word query wrong after unregister + edit")
	}
}

// TestQuerySetStress is the -race stress of the multi-query contract:
// concurrent readers enumerate every query of whatever MultiSnapshot
// they load — including queries being churned in and out by a third
// goroutine — while the writer streams relabel-only batches. Relabels
// over {a, b} preserve the node count, so every consistent MultiSnapshot
// must satisfy count(select:a) + count(select:b) = |T| across its two
// permanent queries, no matter how the load interleaves.
func TestQuerySetStress(t *testing.T) {
	const (
		readers  = 4
		nodes    = 120
		minReads = 300
	)
	rng := rand.New(rand.NewSource(31))
	ut := tva.RandomUnrankedTree(rng, nodes, []tree.Label{"a", "b"})
	s := NewTreeSet(ut)
	qa, err := s.Register(selectLabel("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.Register(selectLabel("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}

	var (
		done  atomic.Bool
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				m := s.Snapshot()
				if m.Version() == 0 {
					continue
				}
				ca := m.Query(qa).Count()
				cb := m.Query(qb).Count()
				if ca+cb != nodes {
					t.Errorf("v%d: count(a)+count(b) = %d+%d, want %d", m.Version(), ca, cb, nodes)
					return
				}
				// Enumerate every churned query present in this version
				// too: their pipelines must be fully usable.
				for _, id := range m.Queries() {
					if id != qa && id != qb {
						m.Query(id).Count()
					}
				}
				reads.Add(1)
			}
		}()
	}

	// Churner: registers and unregisters a third query continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			id, err := s.Register(selectLabel("b"), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Unregister(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Writer: relabel-only batches (the node count stays fixed).
	wrng := rand.New(rand.NewSource(32))
	labels := []tree.Label{"a", "b"}
	ids := []tree.NodeID{}
	for _, n := range s.Tree().Nodes() {
		ids = append(ids, n.ID)
	}
	for i := 0; reads.Load() < minReads && !t.Failed(); i++ {
		var batch []Update
		for j := 0; j < 1+wrng.Intn(5); j++ {
			batch = append(batch, Update{Op: OpRelabel, Node: ids[wrng.Intn(len(ids))], Label: labels[wrng.Intn(2)]})
		}
		if _, _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	t.Logf("%d consistent multi-query reads under register/unregister churn", reads.Load())
}
