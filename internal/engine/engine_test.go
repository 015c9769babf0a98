package engine

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// selectB returns the standing test query: X0 selects a b-labeled node.
func selectB() *tva.Unranked { return tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0) }

// expectedB lists the keys of the expected result set of selectB on t:
// one singleton assignment per b-labeled node.
func expectedB(t *tree.Unranked) []string {
	var out []string
	for _, n := range t.Nodes() {
		if n.Label == "b" {
			out = append(out, tree.Assignment{{Var: 0, Node: n.ID}}.Normalize().Key())
		}
	}
	slices.Sort(out)
	return out
}

// resultKeys drains a snapshot into sorted assignment keys.
func resultKeys(rs iter.Seq[tree.Assignment]) []string {
	var out []string
	for a := range rs {
		out = append(out, a.Key())
	}
	slices.Sort(out)
	return out
}

// mustSelectB registers selectB as the one standing query of a fresh
// TreeSet.
func mustSelectB(t *testing.T, ut *tree.Unranked) (*TreeSet, QueryID) {
	t.Helper()
	return treeQuery(t, ut, selectB(), Options{})
}

// TestSnapshotMatchesTree cross-checks every published snapshot against
// the tree version it was taken from, over a random single-edit stream.
func TestSnapshotMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ut := tva.RandomUnrankedTree(rng, 40, []tree.Label{"a", "b", "c"})
	e, id := mustSelectB(t, ut)
	check := func(s *Snapshot) {
		t.Helper()
		want := expectedB(e.Tree())
		if got := resultKeys(s.Results()); !slices.Equal(got, want) {
			t.Fatalf("snapshot v%d: got %v, want %v", s.Version(), got, want)
		}
	}
	check(e.Snapshot().Query(id))
	for step := 0; step < 200; step++ {
		nodes := e.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		l := []tree.Label{"a", "b", "c"}[rng.Intn(3)]
		u := Update{Op: OpRelabel, Node: n.ID, Label: l}
		switch rng.Intn(4) {
		case 1:
			u.Op = OpInsertFirstChild
		case 2:
			if n.Parent == nil {
				continue
			}
			u.Op = OpInsertRightSibling
		case 3:
			if !n.IsLeaf() || n.Parent == nil {
				continue
			}
			u.Op = OpDelete
		}
		m, _, err := e.ApplyBatch([]Update{u})
		if err != nil {
			t.Fatal(err)
		}
		check(m.Query(id))
	}
}

// TestSnapshotIsolationMidIteration is the deterministic isolation
// check: an in-flight Results iteration, paused halfway, must be
// unaffected by updates applied in between — and the snapshot must stay
// fully re-enumerable afterwards.
func TestSnapshotIsolationMidIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ut := tva.RandomUnrankedTree(rng, 120, []tree.Label{"a", "b"})
	e, id := mustSelectB(t, ut)

	snap := e.Snapshot().Query(id)
	want := resultKeys(snap.Results())
	if len(want) < 10 {
		t.Fatalf("test tree too small: %d results", len(want))
	}

	next, stop := iter.Pull(snap.Results())
	defer stop()
	var got []string
	for i := 0; i < len(want)/2; i++ {
		a, ok := next()
		if !ok {
			t.Fatal("iteration ended early")
		}
		got = append(got, a.Key())
	}

	// Hammer the engine: relabel every b away, insert fresh subtrees,
	// delete leaves. The paused iteration must not notice.
	for _, n := range e.Tree().Nodes() {
		if n.Label == "b" {
			mustApply(t, &e.Engine, Update{Op: OpRelabel, Node: n.ID, Label: "a"})
		}
	}
	for i := 0; i < 30; i++ {
		mustApply(t, &e.Engine, Update{Op: OpInsertFirstChild, Node: e.Tree().Root.ID, Label: "b"})
	}

	for {
		a, ok := next()
		if !ok {
			break
		}
		got = append(got, a.Key())
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("interleaved iteration diverged: got %d results, want %d", len(got), len(want))
	}
	// Restartability: the old snapshot still answers for its version.
	if again := resultKeys(snap.Results()); !slices.Equal(again, want) {
		t.Fatal("old snapshot changed after updates")
	}
	// And the latest snapshot sees the new state.
	if got := resultKeys(e.Snapshot().Query(id).Results()); len(got) != 30 {
		t.Fatalf("latest snapshot has %d results, want 30", len(got))
	}
}

// TestApplyBatchMatchesSequential applies the same edit stream batched
// and one-by-one: the final result sets must agree, and the batch must
// publish once with strictly less box-repair work.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ut := tva.RandomUnrankedTree(rng, 60, []tree.Label{"a", "b", "c"})

	eBatch, idB := mustSelectB(t, ut.Clone())
	eSeq, idS := mustSelectB(t, ut.Clone())
	if eBatch.Snapshot().Version() != 1 {
		t.Fatalf("initial version = %d, want 1", eBatch.Snapshot().Version())
	}

	// A clustered batch: relabels concentrated on few nodes, so trunks
	// overlap and batching amortizes.
	var batch []Update
	nodes := ut.Nodes()
	for i := 0; i < 24; i++ {
		n := nodes[rng.Intn(10)%len(nodes)]
		batch = append(batch, Update{Op: OpRelabel, Node: n.ID, Label: []tree.Label{"a", "b", "c"}[rng.Intn(3)]})
	}
	base := eBatch.Stats().BoxesRebuilt
	mB, _, err := eBatch.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	batchWork := eBatch.Stats().BoxesRebuilt - base

	base = eSeq.Stats().BoxesRebuilt
	for _, u := range batch {
		mustApply(t, &eSeq.Engine, u)
	}
	seqWork := eSeq.Stats().BoxesRebuilt - base

	snapB, snapS := mB.Query(idB), eSeq.Snapshot().Query(idS)
	if got, want := resultKeys(snapB.Results()), resultKeys(snapS.Results()); !slices.Equal(got, want) {
		t.Fatalf("batch result %v != sequential result %v", got, want)
	}
	if snapB.Version() != 2 {
		t.Fatalf("batch published %d times, want once", snapB.Version()-1)
	}
	if batchWork >= seqWork {
		t.Fatalf("batching did not amortize: batch rebuilt %d boxes, sequential %d", batchWork, seqWork)
	}
	t.Logf("box repair: batch %d vs sequential %d (%d edits)", batchWork, seqWork, len(batch))
}

// TestApplyBatchInsertIDsAndErrors checks the ID return and the
// stop-at-first-error contract.
func TestApplyBatchInsertIDsAndErrors(t *testing.T) {
	ut := tree.NewUnranked("a")
	e, id := mustSelectB(t, ut)

	m, ids, err := e.ApplyBatch([]Update{
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
		{Op: OpInsertRightSibling, Node: ut.Root.ID, Label: "b"}, // invalid: the root has no siblings
	})
	if err == nil {
		t.Fatal("expected error for insertR at the root")
	}
	if ids[0] < 0 {
		t.Fatal("first insert should have returned a fresh ID")
	}
	if ids[1] != tree.InvalidNode {
		t.Fatalf("unapplied position should stay InvalidNode, got %d", ids[1])
	}
	// The first edit was applied and published despite the later error.
	if got := resultKeys(m.Query(id).Results()); len(got) != 1 {
		t.Fatalf("partial batch published %d results, want 1", len(got))
	}

	m2, ids2, err := e.ApplyBatch([]Update{
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
		{Op: OpRelabel, Node: ids[0], Label: "a"},
		{Op: OpDelete, Node: ids[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids2[0] < 0 || ids2[1] != tree.InvalidNode || ids2[2] != tree.InvalidNode {
		t.Fatalf("ids = %v: only inserts return fresh IDs, -1 elsewhere", ids2)
	}
	// The old b-child was relabeled away and deleted; only the batch's
	// fresh insert remains.
	if got := resultKeys(m2.Query(id).Results()); len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}

	// Word-only operations are rejected on a tree engine.
	if _, _, err := e.ApplyBatch([]Update{{Op: OpInsertAfter, Node: 0, Label: "b"}}); err == nil {
		t.Fatal("expected error for a word op on a tree engine")
	}
	// Apply is a batch of one: same ID and error contract.
	v, err := e.Apply(Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"})
	if err != nil || v < 0 {
		t.Fatalf("Apply insert = %d, %v", v, err)
	}
	if v, err := e.Apply(Update{Op: OpDelete, Node: ut.Root.ID}); err == nil || v != tree.InvalidNode {
		t.Fatalf("Apply of a root delete = %d, %v; want InvalidNode and an error", v, err)
	}
}

// wordOneB is the test WVA accepting any word with exactly one marked b
// (X0 on it).
func wordOneB() *tva.WVA {
	q := &tva.WVA{
		NumStates: 2,
		Alphabet:  alphaAB,
		Vars:      tree.NewVarSet(0),
		Initial:   []tva.State{0},
		Final:     []tva.State{1},
	}
	for _, l := range alphaAB {
		q.Trans = append(q.Trans,
			tva.WTrans{From: 0, Label: l, Set: 0, To: 0},
			tva.WTrans{From: 1, Label: l, Set: 0, To: 1},
		)
	}
	q.Trans = append(q.Trans, tva.WTrans{From: 0, Label: "b", Set: tree.NewVarSet(0), To: 1})
	return q
}

// TestWordEngineBatchAndSnapshots covers the word side: batched letter
// edits, snapshot isolation, MoveRange as one publication.
func TestWordEngineBatchAndSnapshots(t *testing.T) {
	e, id := wordQuery(t, []tree.Label{"a", "b", "a"}, wordOneB(), Options{})
	before := e.Snapshot().Query(id)
	if before.Count() != 1 {
		t.Fatalf("initial count = %d, want 1", before.Count())
	}

	ids, _ := e.Word()
	m, newIDs, err := e.ApplyBatch([]Update{
		{Op: OpInsertAfter, Node: ids[2], Label: "b"},
		{Op: OpInsertBefore, Node: ids[0], Label: "b"},
		{Op: OpRelabel, Node: ids[1], Label: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if newIDs[0] == newIDs[1] {
		t.Fatal("insert IDs must be distinct")
	}
	snap := m.Query(id)
	if snap.Count() != 2 {
		t.Fatalf("after batch count = %d, want 2", snap.Count())
	}
	if before.Count() != 1 {
		t.Fatal("old word snapshot changed after batch")
	}
	if snap.Version() != before.Version()+1 {
		t.Fatalf("batch published %d snapshots, want 1", snap.Version()-before.Version())
	}

	// MoveRange: one publication, stable IDs.
	v := snap.Version()
	mm, _, err := e.ApplyBatch([]Update{{Op: OpMoveRange, From: 0, K: 2, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	moved := mm.Query(id)
	if moved.Version() != v+1 {
		t.Fatalf("MoveRange published %d snapshots, want 1", moved.Version()-v)
	}
	if moved.Count() != 2 {
		t.Fatalf("after move count = %d, want 2", moved.Count())
	}
}

// TestApplyBatchRangeInsertIDs pins the ID contract of the word range
// inserts: the batch reports the FIRST fresh letter of an OpInsertRange
// or OpConcat, and the range's letters carry consecutive IDs from it.
func TestApplyBatchRangeInsertIDs(t *testing.T) {
	e, id := wordQuery(t, []tree.Label{"a", "a", "a"}, wordOneB(), Options{})
	ins := []tree.Label{"a", "b", "a"}
	cat := []tree.Label{"a", "a"}
	m, ids, err := e.ApplyBatch([]Update{
		{Op: OpInsertRange, From: 1, Labels: ins},
		{Op: OpRelabel, Node: 0, Label: "a"},
		{Op: OpConcat, Labels: cat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] == tree.InvalidNode || ids[2] == tree.InvalidNode || ids[1] != tree.InvalidNode {
		t.Fatalf("ids = %v: want fresh IDs at the range inserts only", ids)
	}
	letters, _ := e.Word()
	for j := range ins {
		if got := letters[1+j]; got != ids[0]+tree.NodeID(j) {
			t.Fatalf("inserted letter %d has ID %d, want %d", j, got, ids[0]+tree.NodeID(j))
		}
	}
	for j := range cat {
		if got := letters[len(letters)-len(cat)+j]; got != ids[2]+tree.NodeID(j) {
			t.Fatalf("concatenated letter %d has ID %d, want %d", j, got, ids[2]+tree.NodeID(j))
		}
	}
	// The one b (inserted at position 2) is the only answer, at the ID
	// the contract predicts.
	res := m.Query(id).All()
	if len(res) != 1 || res[0][0].Node != ids[0]+1 {
		t.Fatalf("results = %v, want the b at letter %d", res, ids[0]+1)
	}
	// A failing range insert reports InvalidNode.
	_, ids, err = e.ApplyBatch([]Update{{Op: OpInsertRange, From: 99, Labels: ins}})
	if err == nil || ids[0] != tree.InvalidNode {
		t.Fatalf("out-of-range insert: ids %v, err %v", ids, err)
	}
}

// TestStatsAndVersioning sanity-checks the monotone version counter and
// the lazily computed stats.
func TestStatsAndVersioning(t *testing.T) {
	ut := tree.NewUnranked("a")
	e, id := mustSelectB(t, ut)
	var last uint64
	for i := 0; i < 5; i++ {
		mustApply(t, &e.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"})
		snap := e.Snapshot().Query(id)
		if snap.Version() <= last {
			t.Fatalf("version not increasing: %d after %d", snap.Version(), last)
		}
		last = snap.Version()
		st := snap.Stats()
		if st.Boxes == 0 || st.BoxesRebuilt == 0 {
			t.Fatalf("stats empty: %+v", st)
		}
		if st2 := snap.Stats(); st2 != st {
			t.Fatal("stats not stable across calls")
		}
	}
}

// TestAttachTracksLiveTerm verifies the eager-release bookkeeping: after
// a long random edit storm (including inserts, deletes and the scapegoat
// rebuilds they trigger) the attachment map must hold exactly one frozen
// wrapper per live term node — no leaked superseded entries, no missing
// live ones.
func TestAttachTracksLiveTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ut := tva.RandomUnrankedTree(rng, 30, []tree.Label{"a", "b"})
	e, id := mustSelectB(t, ut)
	labels := []tree.Label{"a", "b"}
	for i := 0; i < 3000; i++ {
		nodes := e.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		u := Update{Op: OpRelabel, Node: n.ID}
		switch rng.Intn(4) {
		case 0:
			u.Label = labels[rng.Intn(2)]
		case 1:
			u.Op, u.Label = OpInsertFirstChild, labels[rng.Intn(2)]
		case 2:
			if n.Parent == nil {
				continue
			}
			u.Op, u.Label = OpInsertRightSibling, labels[rng.Intn(2)]
		default:
			if !n.IsLeaf() || n.Parent == nil {
				continue
			}
			u.Op = OpDelete
		}
		mustApply(t, &e.Engine, u)
	}
	attach := e.pipes[id].attach
	live := 0
	var rec func(n *forest.Node)
	rec = func(n *forest.Node) {
		if n == nil {
			return
		}
		live++
		if attach[n] == nil {
			t.Fatalf("live term node %v has no attachment", n.Op)
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(e.f.TermRoot())
	if len(attach) != live {
		t.Fatalf("attach map has %d entries for %d live term nodes (leak)", len(attach), live)
	}
	want := expectedB(e.Tree())
	if got := resultKeys(e.Snapshot().Query(id).Results()); !slices.Equal(got, want) {
		t.Fatalf("post-storm results wrong: got %d, want %d", len(got), len(want))
	}
}

func ExampleTreeSet_ApplyBatch() {
	ut := tree.NewUnranked("a")
	s := NewTreeSet(ut)
	id, _ := s.Register(tva.SelectLabel([]tree.Label{"a", "b"}, "b", 0), Options{})
	m, _, _ := s.ApplyBatch([]Update{
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
	})
	fmt.Println(m.Query(id).Count())
	// Output: 2
}
