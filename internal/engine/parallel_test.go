package engine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
)

// randomValidBatch draws one always-valid batch against the current tree
// state: homogeneous per round (relabels, inserts, or deletes of
// distinct leaves), so it cannot fail halfway. The same rng state over
// identical trees yields identical batches, which is what lets the
// sequential and parallel engines replay one stream.
func randomValidBatch(tr *tree.Unranked, size int, rng *rand.Rand) []Update {
	labels := []tree.Label{"a", "b", "c"}
	nodes := tr.Nodes()
	var batch []Update
	switch rng.Intn(3) {
	case 0: // relabels
		for j := 0; j < size; j++ {
			n := nodes[rng.Intn(len(nodes))]
			batch = append(batch, Update{Op: OpRelabel, Node: n.ID, Label: labels[rng.Intn(3)]})
		}
	case 1: // inserts (first child and right sibling mixed)
		for j := 0; j < size; j++ {
			n := nodes[rng.Intn(len(nodes))]
			if n.Parent != nil && rng.Intn(2) == 0 {
				batch = append(batch, Update{Op: OpInsertRightSibling, Node: n.ID, Label: labels[rng.Intn(3)]})
			} else {
				batch = append(batch, Update{Op: OpInsertFirstChild, Node: n.ID, Label: labels[rng.Intn(3)]})
			}
		}
	default: // deletes of distinct leaves (tree stays nonempty)
		var leaves []tree.NodeID
		for _, n := range nodes {
			if n.IsLeaf() && n.Parent != nil {
				leaves = append(leaves, n.ID)
			}
		}
		rng.Shuffle(len(leaves), func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })
		for j := 0; j < size && j < len(leaves); j++ {
			batch = append(batch, Update{Op: OpDelete, Node: leaves[j]})
		}
		if len(batch) == 0 {
			batch = append(batch, Update{Op: OpRelabel, Node: tr.Root.ID, Label: labels[rng.Intn(3)]})
		}
	}
	return batch
}

// diffSnapshots compares one query's slice of two MultiSnapshots:
// identical Results (as sorted keys), identical Count, and identical
// At(j) for the first, middle and last rank — the full read surface the
// parallel write path must keep bit-for-bit deterministic.
func diffSnapshots(t *testing.T, label string, a, b *Snapshot) {
	t.Helper()
	ka, kb := resultKeys(a.Results()), resultKeys(b.Results())
	if !slices.Equal(ka, kb) {
		t.Fatalf("%s: results diverged: sequential %d, parallel %d", label, len(ka), len(kb))
	}
	ca, cb := a.Count(), b.Count()
	if ca != cb || ca != len(ka) {
		t.Fatalf("%s: counts diverged: sequential %d, parallel %d, enumerated %d", label, ca, cb, len(ka))
	}
	for _, j := range []int{0, ca / 2, ca - 1} {
		if j < 0 || j >= ca {
			continue
		}
		ra, errA := a.At(j)
		rb, errB := b.At(j)
		if errA != nil || errB != nil {
			t.Fatalf("%s: At(%d) errored: sequential %v, parallel %v", label, j, errA, errB)
		}
		if ra.Normalize().Key() != rb.Normalize().Key() {
			t.Fatalf("%s: At(%d) diverged: %v vs %v", label, j, ra, rb)
		}
	}
}

// TestParallelSequentialDifferential is the parallel-vs-sequential
// property test of the write path: the same edit script applied to two
// engines — worker pool off (Workers=1, the deterministic sequential
// path) and on (Workers=4) — must publish identical Results, Count and
// At for EVERY standing query after every batch. The query mix covers
// the unambiguous fast paths and an ambiguous automaton (//a//b, which
// falls back to enumeration for Count/At).
func TestParallelSequentialDifferential(t *testing.T) {
	alpha := []tree.Label{"a", "b", "c"}
	type sq struct {
		name string
		q    *tva.Unranked
		opts Options
	}
	queries := []sq{
		{"select:a", tva.SelectLabel(alpha, "a", 0), Options{}},
		{"select:b", tva.SelectLabel(alpha, "b", 0), Options{}},
		{"descdepth:b:2", tva.DescendantAtDepth(alpha, "b", 2, 0), Options{}},
		{"path://a/b", paths.MustCompile("//a/b", alpha, 0), Options{}},
		{"path://a//b", paths.MustCompile("//a//b", alpha, 0), Options{}}, // ambiguous
	}

	rng := rand.New(rand.NewSource(51))
	ut := tva.RandomUnrankedTree(rng, 80, alpha)

	build := func(workers int) (*TreeSet, []QueryID) {
		s := NewTreeSet(ut.Clone())
		s.SetWorkers(workers)
		ids := make([]QueryID, len(queries))
		for i, q := range queries {
			id, err := s.Register(q.q, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		return s, ids
	}
	seq, seqIDs := build(1)
	par, parIDs := build(4)

	srng := rand.New(rand.NewSource(52))
	for b := 0; b < 25; b++ {
		batch := randomValidBatch(seq.Tree(), 1+srng.Intn(6), srng)
		ms, _, err := seq.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d (sequential): %v", b, err)
		}
		mp, _, err := par.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d (parallel): %v", b, err)
		}
		for i, q := range queries {
			diffSnapshots(t, q.name, ms.Query(seqIDs[i]), mp.Query(parIDs[i]))
		}
	}
	// Cross-check the last version against the tree for the plain
	// selections, so the differential can't be trivially "equal but both
	// wrong".
	if got := resultKeys(seq.Snapshot().Query(seqIDs[0]).Results()); !slices.Equal(got, expectedLabel(seq.Tree(), "a")) {
		t.Fatal("sequential engine diverged from the tree")
	}
}

// TestParallelSequentialWordDifferential is the word-side slice of the
// differential: one letter-edit script, worker pool off vs on, identical
// results for both standing word queries after every batch.
func TestParallelSequentialWordDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	letters := make([]tree.Label, 30)
	for i := range letters {
		letters[i] = []tree.Label{"a", "b"}[rng.Intn(2)]
	}
	build := func(workers int) (*WordSet, QueryID, QueryID) {
		s, err := NewWordSet(letters)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		qa, err := s.Register(selectLetterWVA("a"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		qb, err := s.Register(selectLetterWVA("b"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s, qa, qb
	}
	seq, sa, sb := build(1)
	par, pa, pb := build(4)

	for i := 0; i < 80; i++ {
		ids, _ := seq.Word()
		id := ids[rng.Intn(len(ids))]
		l := []tree.Label{"a", "b"}[rng.Intn(2)]
		var batch []Update
		switch rng.Intn(3) {
		case 0:
			batch = []Update{{Op: OpRelabel, Node: id, Label: l}}
		case 1:
			batch = []Update{{Op: OpInsertAfter, Node: id, Label: l}}
		default:
			if seq.Len() > 1 {
				batch = []Update{{Op: OpDelete, Node: id}}
			} else {
				batch = []Update{{Op: OpInsertBefore, Node: id, Label: l}}
			}
		}
		ms, _, err := seq.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("step %d (sequential): %v", i, err)
		}
		mp, _, err := par.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("step %d (parallel): %v", i, err)
		}
		diffSnapshots(t, "word select:a", ms.Query(sa), mp.Query(pa))
		diffSnapshots(t, "word select:b", ms.Query(sb), mp.Query(pb))
	}
	if got := resultKeys(seq.Snapshot().Query(sb).Results()); !slices.Equal(got, expectedLetters(seq, "b")) {
		t.Fatal("sequential word engine diverged from the word")
	}
}

// TestParallelRegisterChurnStress is the -race stress of the parallel
// write path under registration churn: the writer streams relabel-only
// batches through a Workers=4 pool while a churner continuously
// registers (via the lock-light path: pin, off-lock build, delta replay,
// splice) and unregisters an extra select:b query, and readers verify
// every MultiSnapshot they load. Relabels over {a, b} preserve the node
// count, so count(a) + count(b) = |T| in every consistent version — and
// a churned select:b copy present in a version must agree exactly with
// the permanent select:b query of the SAME version, which pins the
// correctness of the deltas replayed onto the late pipeline. CI runs
// this at GOMAXPROCS=1 and GOMAXPROCS=4.
func TestParallelRegisterChurnStress(t *testing.T) {
	const (
		readers    = 3
		nodes      = 120
		minReads   = 250
		minBatches = 200
		minChurn   = 25
		maxBatches = 30000
	)
	rng := rand.New(rand.NewSource(71))
	ut := tva.RandomUnrankedTree(rng, nodes, []tree.Label{"a", "b"})
	s := NewTreeSet(ut)
	s.SetWorkers(4)
	qa, err := s.Register(selectLabel("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.Register(selectLabel("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}

	var (
		done    atomic.Bool
		reads   atomic.Int64
		churned atomic.Int64
		wg      sync.WaitGroup
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
				for _, id := range m.Queries() {
					if id == qa || id == qb {
						continue
					}
					// Every churned query is another select:b: its late
					// pipeline must answer exactly like the permanent one
					// on the same version.
					if cc := m.Query(id).Count(); cc != cb {
						t.Errorf("v%d: churned select:b counts %d, permanent %d", m.Version(), cc, cb)
						return
					}
				}
				reads.Add(1)
			}
		}()
	}

	// Churner: the lock-light registration path runs concurrently with
	// the writer's parallel repairs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			id, err := s.Register(selectLabel("b"), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			churned.Add(1)
			if err := s.Unregister(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Writer: relabel-only batches (the node count stays fixed).
	wrng := rand.New(rand.NewSource(72))
	labels := []tree.Label{"a", "b"}
	var ids []tree.NodeID
	for _, n := range s.Tree().Nodes() {
		ids = append(ids, n.ID)
	}
	// The writer keeps publishing until the readers verified enough
	// versions AND the churner exercised the lock-light path often
	// enough (capped so a failure can't spin forever).
	for i := 0; i < maxBatches && !t.Failed(); i++ {
		if i >= minBatches && reads.Load() >= minReads && churned.Load() >= minChurn {
			break
		}
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
	if t.Failed() {
		return
	}

	// After the storm the final version must agree with the tree exactly
	// (determinism of the parallel path end-to-end).
	m := s.Snapshot()
	if got := resultKeys(m.Query(qa).Results()); !slices.Equal(got, expectedLabel(s.Tree(), "a")) {
		t.Fatal("final snapshot diverged from the tree after churn")
	}
	t.Logf("%d consistent reads, %d lock-light registrations under the parallel writer", reads.Load(), churned.Load())
}

// TestDeltaLogTrimming pins the delta-log bookkeeping of lock-light
// registration: the log records deltas only while pins are held, each
// completing registration replays exactly its suffix, and dropping a
// pin trims the prefix no remaining pin needs — so overlapping
// registration churn cannot grow the log without bound.
func TestDeltaLogTrimming(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ut := tva.RandomUnrankedTree(rng, 50, []tree.Label{"a", "b", "c"})
	s := NewTreeSet(ut)
	if _, err := s.Register(selectLabel("a"), Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		randomEdit(t, s, rng)
	}
	if len(s.deltaLog) != 0 || len(s.regPins) != 0 {
		t.Fatalf("delta log active with no registration in flight: %d deltas, %d pins", len(s.deltaLog), len(s.regPins))
	}

	// Simulate a long-running registration overlapping a real one: hold
	// an artificial early pin while edits stream and another query
	// registers, then drop it.
	s.mu.Lock()
	early := s.logBase + len(s.deltaLog)
	s.regPins = append(s.regPins, early)
	s.mu.Unlock()

	for i := 0; i < 8; i++ {
		randomEdit(t, s, rng)
	}
	if len(s.deltaLog) == 0 {
		t.Fatal("pinned edits were not logged")
	}
	qb, err := s.Register(selectLabel("b"), Options{}) // overlapping pin, replays the logged suffix
	if err != nil {
		t.Fatal(err)
	}
	if got := resultKeys(s.Snapshot().Query(qb).Results()); !slices.Equal(got, expectedLabel(s.Tree(), "b")) {
		t.Fatal("overlapping registration answered wrong")
	}
	// The early pin still holds the full log (its registration hasn't
	// replayed anything yet).
	s.mu.Lock()
	logged := len(s.deltaLog)
	s.mu.Unlock()
	if logged == 0 {
		t.Fatal("log trimmed while the earliest pin still needs it")
	}

	for i := 0; i < 8; i++ {
		randomEdit(t, s, rng)
	}
	s.mu.Lock()
	s.unpin(early)
	trimmed := len(s.deltaLog)
	pins := len(s.regPins)
	s.mu.Unlock()
	if trimmed != 0 || pins != 0 {
		t.Fatalf("dropping the last pin left %d deltas, %d pins", trimmed, pins)
	}

	// Registrations and edits keep working after the churn.
	for i := 0; i < 8; i++ {
		randomEdit(t, s, rng)
	}
	if got := resultKeys(s.Snapshot().Query(qb).Results()); !slices.Equal(got, expectedLabel(s.Tree(), "b")) {
		t.Fatal("query wrong after pin churn")
	}
}

// TestEngineStatsSurface pins the unified stats surface: Engine.Stats is
// one immutable reading per publication, consistent with the deprecated
// counter wrappers, monotone across edits and unregistrations, and
// readable while the parallel writer runs (the churn stress above
// hammers the concurrency; this test checks the values).
func TestEngineStatsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ut := tva.RandomUnrankedTree(rng, 60, []tree.Label{"a", "b", "c"})
	s := NewTreeSet(ut)
	s.SetWorkers(2)
	qa, err := s.Register(selectLabel("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(4)
	qb, err := s.Register(selectLabel("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Workers != 4 {
		t.Fatalf("SetWorkers(4) not reported: %d", st.Workers)
	}
	if st.Queries != 2 || len(st.QueryBoxesRebuilt) != 2 {
		t.Fatalf("stats queries = %d (%v), want 2", st.Queries, st.QueryBoxesRebuilt)
	}
	if st.BoxesRebuilt != st.QueryBoxesRebuilt[qa]+st.QueryBoxesRebuilt[qb] {
		t.Fatalf("BoxesRebuilt %d is not the per-query sum %v", st.BoxesRebuilt, st.QueryBoxesRebuilt)
	}

	for i := 0; i < 30; i++ {
		randomEdit(t, s, rng)
	}
	st2 := s.Stats()
	if st2.Version <= st.Version || st2.PathCopies <= st.PathCopies || st2.BoxesRebuilt <= st.BoxesRebuilt {
		t.Fatalf("stats not monotone across edits: %+v -> %+v", st, st2)
	}
	// The snapshot-side Stats carries the same publication's counters.
	snapStats := s.Snapshot().Query(qa).Stats()
	if snapStats.PathCopies != st2.PathCopies || snapStats.Rebalances != st2.Rebalances {
		t.Fatalf("snapshot stats (%d copies, %d rebalances) disagree with engine stats (%d, %d)",
			snapStats.PathCopies, snapStats.Rebalances, st2.PathCopies, st2.Rebalances)
	}
	if snapStats.BoxesRebuilt != st2.QueryBoxesRebuilt[qa] {
		t.Fatal("snapshot per-query BoxesRebuilt disagrees with engine stats")
	}

	// Unregistering keeps the cumulative counter monotone.
	if err := s.Unregister(qb); err != nil {
		t.Fatal(err)
	}
	st3 := s.Stats()
	if st3.BoxesRebuilt < st2.BoxesRebuilt {
		t.Fatalf("BoxesRebuilt went backwards across unregister: %d -> %d", st2.BoxesRebuilt, st3.BoxesRebuilt)
	}
	if _, ok := st3.QueryBoxesRebuilt[qb]; ok {
		t.Fatal("unregistered query still in per-query stats")
	}
	// The returned map is the caller's copy.
	st3.QueryBoxesRebuilt[qa] = -1
	if s.Stats().QueryBoxesRebuilt[qa] == -1 {
		t.Fatal("Stats() leaked the engine's internal map")
	}
}
