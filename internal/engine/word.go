package engine

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

// WordSet is the multi-query engine of Theorem 8.5 over one dynamic
// word: it maintains the satisfying assignments of any number of
// standing word variable automata under letter insertion, deletion and
// replacement, sharing the term work across queries exactly like
// TreeSet.
type WordSet struct {
	Engine
	w *forest.Word
}

// NewWordSet encodes the nonempty word as a balanced term and publishes
// an empty MultiSnapshot. Queries are added with Register.
func NewWordSet(letters []tree.Label) (*WordSet, error) {
	w, err := forest.NewWord(letters)
	if err != nil {
		return nil, err
	}
	s := &WordSet{w: w}
	s.initEngine(w, s.edit)
	return s, nil
}

// Register adds a standing query (Corollary 8.4 translation, then the
// same pipeline as trees) against the current word version.
func (s *WordSet) Register(query *tva.WVA, opts Options) (QueryID, error) {
	ab, err := forest.TranslateWord(query)
	if err != nil {
		return 0, err
	}
	builder, err := circuit.NewBuilder(ab.Homogenize())
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	return s.register(builder, ab.NumStates, opts), nil
}

// Word returns the current word content as (letter IDs, labels).
// Writer-side view: concurrent readers should work from snapshots.
func (s *WordSet) Word() ([]tree.NodeID, []tree.Label) { return s.w.Letters() }

// IDAt resolves a 0-based position to its stable letter ID in O(log n).
func (s *WordSet) IDAt(i int) (tree.NodeID, error) { return s.w.IDAt(i) }

// Len returns the word length.
func (s *WordSet) Len() int { return s.w.Len() }

// edit applies one word update (the word half of ApplyBatch's edit
// switch), returning the ID it created: the new letter of a single
// insert, the first fresh letter of a range insert or concat.
func (s *WordSet) edit(u Update) (tree.NodeID, error) {
	switch u.Op {
	case OpRelabel:
		return tree.InvalidNode, s.w.Relabel(u.Node, u.Label)
	case OpInsertAfter:
		return s.w.InsertAfter(u.Node, u.Label)
	case OpInsertBefore:
		return s.w.InsertBefore(u.Node, u.Label)
	case OpDelete:
		return tree.InvalidNode, s.w.Delete(u.Node)
	case OpMoveRange:
		return tree.InvalidNode, s.w.MoveRange(u.From, u.K, u.To)
	case OpDeleteRange:
		return tree.InvalidNode, s.w.DeleteRange(u.From, u.K)
	case OpInsertRange:
		return firstID(s.w.InsertRange(u.From, u.Labels))
	case OpConcat:
		return firstID(s.w.Concat(u.Labels))
	}
	return tree.InvalidNode, fmt.Errorf("engine: update %v is not a word operation", u.Op)
}

// firstID reduces a range insert's fresh IDs to the first one; the rest
// follow consecutively (see ApplyBatch).
func firstID(ids []tree.NodeID, err error) (tree.NodeID, error) {
	if err != nil {
		return tree.InvalidNode, err
	}
	return ids[0], nil
}
