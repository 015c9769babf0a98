package forest

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/tree"
)

// leakRounds is enough edit+drain rounds to path-copy every node of the
// initial spine many times over on the small inputs below.
const leakRounds = 200

// TestDrainReleasesSupersededTerm checks that draining the dirty
// protocol drops every reference to superseded term versions: after
// enough relabels, each followed by DrainDelta, the initial term root is
// unreachable from the source and must be collected. A stale pointer in
// the drained lists would keep it — and, through retired nodes' Parent
// pointers into later versions, every superseded trunk — alive.
func TestDrainReleasesSupersededTerm(t *testing.T) {
	t.Run("forest", func(t *testing.T) {
		ut := tree.NewUnranked("a")
		ids := []tree.NodeID{ut.Root.ID}
		for i := 0; i < 63; i++ {
			n, err := ut.InsertFirstChild(ids[i/2], "b")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, n.ID)
		}
		f := New(ut)
		f.DrainDelta()
		root := weak.Make(f.TermRoot())
		for i := range leakRounds {
			if err := f.Relabel(ids[i%len(ids)], tree.Label("ab"[i%2:i%2+1])); err != nil {
				t.Fatal(err)
			}
			f.DrainDelta()
		}
		runtime.GC()
		if root.Value() != nil {
			t.Fatal("initial term root still reachable after the edits were drained")
		}
		runtime.KeepAlive(f)
	})
	t.Run("word", func(t *testing.T) {
		letters := make([]tree.Label, 64)
		for i := range letters {
			letters[i] = "a"
		}
		w, err := NewWord(letters)
		if err != nil {
			t.Fatal(err)
		}
		w.DrainDelta()
		ids, _ := w.Letters()
		root := weak.Make(w.TermRoot())
		for i := range leakRounds {
			if err := w.Relabel(ids[i%len(ids)], tree.Label("ab"[i%2:i%2+1])); err != nil {
				t.Fatal(err)
			}
			w.DrainDelta()
		}
		runtime.GC()
		if root.Value() != nil {
			t.Fatal("initial term root still reachable after the edits were drained")
		}
		runtime.KeepAlive(w)
	})
}
