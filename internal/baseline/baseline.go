// Package baseline implements the comparison algorithms that reproduce
// the Table 1 landscape and the combined-complexity contrast of
// experiment E5 (the naive box enumeration, whose delay grows with the
// circuit depth, is enumerate.ModeNaive, run by experiments E1/E8 on
// the engine's frozen structure):
//
//   - RebuildEnumerator: updates recompute the whole enumeration
//     structure from scratch (linear update time) — the static
//     algorithms of Bagan / Kazana-Segoufin made update-aware naively;
//   - DeterminizeFirst: determinizes the query automaton before running
//     the pipeline — the prior-work requirement the paper's combined
//     tractability removes (exponential in |Q|).
package baseline

import (
	"fmt"
	"iter"

	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

// RebuildEnumerator re-runs the full preprocessing on every update. Its
// enumeration matches the paper's (indexed, constant delay); only the
// update cost differs: Θ(|T|) per edit.
type RebuildEnumerator struct {
	t    *tree.Unranked
	q    *tva.Unranked
	snap *engine.Snapshot
	opts engine.Options
}

// NewRebuildEnumerator preprocesses once.
func NewRebuildEnumerator(t *tree.Unranked, q *tva.Unranked, opts engine.Options) (*RebuildEnumerator, error) {
	r := &RebuildEnumerator{t: t, q: q, opts: opts}
	if err := r.rebuild(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *RebuildEnumerator) rebuild() error {
	s := engine.NewTreeSet(r.t.Clone())
	id, err := s.Register(r.q, r.opts)
	if err != nil {
		return err
	}
	r.snap = s.Snapshot().Query(id)
	return nil
}

// Tree returns the maintained tree.
func (r *RebuildEnumerator) Tree() *tree.Unranked { return r.t }

// Apply edits the tree and rebuilds from scratch, returning the ID the
// update created (tree.InvalidNode if none). It takes the same updates
// as engine.TreeSet.Apply; a grafted copy's node IDs match the engine's
// only if both sides consume IDs in lockstep, which holds when the same
// edit script drives both.
func (r *RebuildEnumerator) Apply(u engine.Update) (tree.NodeID, error) {
	v, err := r.edit(u)
	if err != nil {
		return tree.InvalidNode, err
	}
	return v, r.rebuild()
}

// edit applies one update to the plain tree.
func (r *RebuildEnumerator) edit(u engine.Update) (tree.NodeID, error) {
	var n *tree.UNode
	var err error
	switch u.Op {
	case engine.OpRelabel:
		return tree.InvalidNode, r.t.Relabel(u.Node, u.Label)
	case engine.OpDelete:
		return tree.InvalidNode, r.t.Delete(u.Node)
	case engine.OpDeleteSubtree:
		_, _, err = r.t.DeleteSubtree(u.Node)
		return tree.InvalidNode, err
	case engine.OpMoveSubtreeFirstChild:
		return tree.InvalidNode, r.t.MoveSubtreeFirstChild(u.Node, u.Dest)
	case engine.OpMoveSubtreeRightSibling:
		return tree.InvalidNode, r.t.MoveSubtreeRightSibling(u.Node, u.Dest)
	case engine.OpInsertFirstChild:
		n, err = r.t.InsertFirstChild(u.Node, u.Label)
	case engine.OpInsertRightSibling:
		n, err = r.t.InsertRightSibling(u.Node, u.Label)
	case engine.OpInsertSubtreeFirstChild:
		n, err = r.t.GraftFirstChild(u.Node, u.Fragment)
	case engine.OpInsertSubtreeRightSibling:
		n, err = r.t.GraftRightSibling(u.Node, u.Fragment)
	default:
		return tree.InvalidNode, fmt.Errorf("baseline: update %v is not a tree operation", u.Op)
	}
	if err != nil {
		return tree.InvalidNode, err
	}
	return n.ID, nil
}

// Results enumerates on the current structure.
func (r *RebuildEnumerator) Results() iter.Seq[tree.Assignment] { return r.snap.Results() }

// Count returns the number of results on the current structure.
func (r *RebuildEnumerator) Count() int { return r.snap.Count() }

// DeterminizeFirstStats preprocesses the query by translating it to the
// binary term alphabet and then determinizing, returning the state and
// transition counts of both routes. Experiment E5 sweeps |Q| and shows
// the nondeterministic route staying polynomial while determinization
// explodes; the numbers themselves are the result (the determinized
// automaton still runs through the same pipeline).
type DeterminizeFirstStats struct {
	NondetStates int
	NondetSize   int
	DetStates    int
	DetSize      int
}

// DeterminizeFirst translates and then determinizes the query automaton,
// returning the determinized binary TVA and the size comparison.
func DeterminizeFirst(q *tva.Unranked) (*tva.Binary, DeterminizeFirstStats, error) {
	nb, err := forest.Translate(q)
	if err != nil {
		return nil, DeterminizeFirstStats{}, err
	}
	db := tva.Determinize(nb).Trim()
	return db, DeterminizeFirstStats{
		NondetStates: nb.NumStates,
		NondetSize:   nb.Size(),
		DetStates:    db.NumStates,
		DetSize:      db.Size(),
	}, nil
}
