package engine

import (
	"slices"
	"testing"
	"time"

	"repro/internal/tree"
	"repro/internal/tva"
)

// This file audits the error paths of ApplyBatch: a failing edit
// mid-batch must still publish a MultiSnapshot that reflects exactly
// the applied prefix, consistently across every registered query — no
// torn state, no stale version, and the engine must keep accepting
// edits afterwards.

// expectedForQuery computes the oracle result keys for the two standing
// audit queries directly from the tree.
func auditQueries() []*tva.Unranked {
	return []*tva.Unranked{
		tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0),
		tva.MarkedAncestor("a", "b", "c", 0),
	}
}

// checkSetAgainstFresh verifies every registered query of qs against a
// fresh engine built on the current tree.
func checkSetAgainstFresh(t *testing.T, qs *TreeSet, ids []QueryID) {
	t.Helper()
	m := qs.Snapshot()
	for qi, q := range auditQueries() {
		fresh, fid := treeQuery(t, qs.Tree().Clone(), q, Options{})
		want := resultKeys(fresh.Snapshot().Query(fid).Results())
		got := resultKeys(m.Query(ids[qi]).Results())
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: snapshot diverges from prefix state\ngot:  %v\nwant: %v", qi, got, want)
		}
		if c := m.Query(ids[qi]).Count(); c != len(want) {
			t.Fatalf("query %d: Count = %d, want %d", qi, c, len(want))
		}
	}
}

// TestTreeBatchFailureMidBatch checks that each way a batch can fail —
// invalid node ID, delete of the root, delete of an inner node, insertR
// on the root, unknown op — publishes the applied prefix for all
// standing queries.
func TestTreeBatchFailureMidBatch(t *testing.T) {
	cases := []struct {
		name    string
		batch   []Update
		applied int // updates expected to have been applied
	}{
		{"invalidNode", []Update{
			{Op: OpRelabel, Node: 1, Label: "b"},
			{Op: OpRelabel, Node: 999, Label: "a"},
			{Op: OpRelabel, Node: 2, Label: "b"},
		}, 1},
		{"deleteRoot", []Update{
			{Op: OpInsertFirstChild, Node: 0, Label: "b"},
			{Op: OpDelete, Node: 0},
			{Op: OpRelabel, Node: 1, Label: "c"},
		}, 1},
		{"deleteInner", []Update{
			{Op: OpRelabel, Node: 2, Label: "b"},
			{Op: OpDelete, Node: 1}, // n1 has a child
			{Op: OpRelabel, Node: 1, Label: "c"},
		}, 1},
		{"insertRRoot", []Update{
			{Op: OpRelabel, Node: 3, Label: "b"},
			{Op: OpInsertRightSibling, Node: 0, Label: "a"},
		}, 1},
		{"wordOpOnTree", []Update{
			{Op: OpRelabel, Node: 1, Label: "b"},
			{Op: OpInsertAfter, Node: 1, Label: "a"},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ut, err := tree.ParseUnranked("(a (b (c)) (a (b)))")
			if err != nil {
				t.Fatal(err)
			}
			qs := NewTreeSet(ut)
			var ids []QueryID
			for _, q := range auditQueries() {
				id, err := qs.Register(q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			before := qs.Snapshot().Version()
			m, _, err := qs.ApplyBatch(tc.batch)
			if err == nil {
				t.Fatal("batch unexpectedly succeeded")
			}
			if m == nil || m.Version() != before+1 {
				t.Fatalf("failed batch must still publish exactly once (got %+v)", m)
			}
			if m != qs.Snapshot() {
				t.Fatal("returned snapshot is not the published one")
			}
			checkSetAgainstFresh(t, qs, ids)
			// The engine must remain usable after the failure.
			if _, err := qs.Apply(Update{Op: OpRelabel, Node: 0, Label: "b"}); err != nil {
				t.Fatalf("engine unusable after failed batch: %v", err)
			}
			checkSetAgainstFresh(t, qs, ids)
			_ = tc.applied
		})
	}
}

// TestEmptyBatchPublishesNothing: an empty batch changes nothing, so it
// must not move the version, must hand back the current publication,
// and must offer no delta — the subscriber's next delta after its seed
// is the next real edit's, uncoalesced.
func TestEmptyBatchPublishesNothing(t *testing.T) {
	ut, err := tree.ParseUnranked("(a (b) (c))")
	if err != nil {
		t.Fatal(err)
	}
	qs, id := treeQuery(t, ut, auditQueries()[0], Options{})
	ch, err := qs.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	recv := func() (Delta, bool) {
		select {
		case d := <-ch:
			return d, true
		case <-time.After(200 * time.Millisecond):
			return Delta{}, false
		}
	}
	before := qs.Snapshot()
	if seed, ok := recv(); !ok || seed.Resync == nil || seed.Version != before.Version() {
		t.Fatalf("seed delta = %+v (received %v), want a resync at v%d", seed, ok, before.Version())
	}
	for _, batch := range [][]Update{nil, {}} {
		m, ids, err := qs.ApplyBatch(batch)
		if err != nil || len(ids) != 0 {
			t.Fatalf("empty batch: ids %v, err %v", ids, err)
		}
		if m != before || qs.Snapshot() != before {
			t.Fatalf("empty batch published v%d over v%d", qs.Snapshot().Version(), before.Version())
		}
	}
	if d, ok := recv(); ok {
		t.Fatalf("empty batches offered a delta: %+v", d)
	}
	m, _, err := qs.ApplyBatch([]Update{{Op: OpRelabel, Node: 2, Label: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version() != before.Version()+1 {
		t.Fatalf("edit after empty batches published v%d, want v%d", m.Version(), before.Version()+1)
	}
	d, ok := recv()
	if !ok || d.Version != m.Version() || d.Coalesced || len(d.Added) != 1 {
		t.Fatalf("delta after the edit = %+v (received %v), want v%d with one added answer", d, ok, m.Version())
	}
}

// TestWordBatchFailureMidBatch is the word-side audit: invalid letter
// ID, deleting the last letter, and tree ops on words.
func TestWordBatchFailureMidBatch(t *testing.T) {
	q, err := wordSelectQuery()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("invalidLetter", func(t *testing.T) {
		ws, err := NewWordSet([]tree.Label{"a", "b", "a"})
		if err != nil {
			t.Fatal(err)
		}
		id, err := ws.Register(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := ws.Snapshot().Version()
		m, _, err := ws.ApplyBatch([]Update{
			{Op: OpRelabel, Node: 1, Label: "a"},
			{Op: OpRelabel, Node: 42, Label: "b"},
			{Op: OpRelabel, Node: 2, Label: "b"},
		})
		if err == nil {
			t.Fatal("batch unexpectedly succeeded")
		}
		if m.Version() != before+1 {
			t.Fatal("failed batch must publish exactly once")
		}
		// Prefix applied: "a a a" — no b's left.
		if got := resultKeys(m.Query(id).Results()); len(got) != 0 {
			t.Fatalf("prefix state wrong: %v", got)
		}
		if c := m.Query(id).Count(); c != 0 {
			t.Fatalf("Count = %d on prefix state", c)
		}
	})
	t.Run("deleteToEmpty", func(t *testing.T) {
		ws, err := NewWordSet([]tree.Label{"b"})
		if err != nil {
			t.Fatal(err)
		}
		id, err := ws.Register(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := ws.Word()
		m, _, err := ws.ApplyBatch([]Update{
			{Op: OpInsertAfter, Node: ids[0], Label: "b"},
			{Op: OpDelete, Node: ids[0]},
			{Op: OpDelete, Node: ids[0]}, // already deleted: must fail
		})
		if err == nil {
			t.Fatal("deleting a deleted letter must fail")
		}
		if got := m.Query(id).Count(); got != 1 {
			t.Fatalf("Count = %d after prefix (want the 1 surviving b)", got)
		}
		// Deleting the last letter must fail and publish unchanged state.
		ids2, _ := ws.Word()
		if len(ids2) != 1 {
			t.Fatalf("word length %d, want 1", len(ids2))
		}
		m2, _, err := ws.ApplyBatch([]Update{{Op: OpDelete, Node: ids2[0]}})
		if err == nil {
			t.Fatal("deleting the last letter must fail")
		}
		if got := m2.Query(id).Count(); got != 1 {
			t.Fatalf("Count = %d after refused delete", got)
		}
	})
	t.Run("treeOpOnWord", func(t *testing.T) {
		ws, err := NewWordSet([]tree.Label{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		id, err := ws.Register(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ws.ApplyBatch([]Update{
			{Op: OpRelabel, Node: 0, Label: "b"},
			{Op: OpInsertFirstChild, Node: 0, Label: "a"},
		})
		if err == nil {
			t.Fatal("tree op on a word must fail")
		}
		if got := m.Query(id).Count(); got != 2 {
			t.Fatalf("Count = %d after prefix relabel", got)
		}
	})
}

// wordSelectQuery returns a WVA selecting every b-letter.
func wordSelectQuery() (*tva.WVA, error) {
	// One-state-per-phase select: X0 marks one b position.
	return &tva.WVA{
		NumStates: 2,
		Alphabet:  []tree.Label{"a", "b"},
		Vars:      tree.VarSet(1 << 0),
		Initial:   []tva.State{0},
		Trans: []tva.WTrans{
			{From: 0, Label: "a", Set: 0, To: 0},
			{From: 0, Label: "b", Set: 0, To: 0},
			{From: 0, Label: "b", Set: tree.VarSet(1 << 0), To: 1},
			{From: 1, Label: "a", Set: 0, To: 1},
			{From: 1, Label: "b", Set: 0, To: 1},
		},
		Final: []tva.State{1},
	}, nil
}
