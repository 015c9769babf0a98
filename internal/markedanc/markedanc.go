// Package markedanc implements the marked-ancestor problem of Section 9
// and the reduction of Theorem 9.2: an MSO enumeration structure with
// relabeling updates solves existential marked-ancestor queries, so the
// Ω(log n / log log n) cell-probe lower bound of Alstrup, Husfeldt and
// Rauhe transfers to enumeration update time. The package provides the
// enumeration-based solver (the reduction, run forward) and a simple
// walk-to-root baseline, plus the reference curve used by experiment E7.
package markedanc

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

// Solver answers existential marked ancestor queries under mark updates.
type Solver interface {
	// Mark marks a node.
	Mark(id tree.NodeID) error
	// Unmark unmarks a node.
	Unmark(id tree.NodeID) error
	// Query reports whether the node has a marked proper ancestor.
	Query(id tree.NodeID) (bool, error)
}

// Labels used by the reduction.
const (
	Marked   tree.Label = "m"
	Unmarked tree.Label = "u"
	Special  tree.Label = "s"
)

// EnumerationSolver is the Theorem 9.2 reduction: the tree is labeled
// marked/unmarked, marks toggle via relabel updates, and a query labels
// the probe node special, asks whether the enumeration is nonempty, and
// restores the label. Both operations cost O(log n · poly(|Q|)).
type EnumerationSolver struct {
	s  *engine.TreeSet
	id engine.QueryID
}

// NewEnumerationSolver builds the solver over a copy-free view of the
// tree, which must use the Unmarked label everywhere initially.
func NewEnumerationSolver(t *tree.Unranked) (*EnumerationSolver, error) {
	s := engine.NewTreeSet(t)
	id, err := s.Register(tva.MarkedAncestor(Marked, Unmarked, Special, 0), engine.Options{})
	if err != nil {
		return nil, err
	}
	return &EnumerationSolver{s: s, id: id}, nil
}

// relabel applies one relabel update and returns the resulting snapshot
// of the reduction's query.
func (s *EnumerationSolver) relabel(id tree.NodeID, l tree.Label) (*engine.Snapshot, error) {
	m, _, err := s.s.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: id, Label: l}})
	return m.Query(s.id), err
}

// Mark marks a node (relabel to m).
func (s *EnumerationSolver) Mark(id tree.NodeID) error {
	_, err := s.relabel(id, Marked)
	return err
}

// Unmark unmarks a node (relabel to u).
func (s *EnumerationSolver) Unmark(id tree.NodeID) error {
	_, err := s.relabel(id, Unmarked)
	return err
}

// Query relabels the node to special, tests nonemptiness of Φ, and
// restores the node.
func (s *EnumerationSolver) Query(id tree.NodeID) (bool, error) {
	n := s.s.Tree().Node(id)
	if n == nil {
		return false, fmt.Errorf("markedanc: node %d does not exist", id)
	}
	old := n.Label
	snap, err := s.relabel(id, Special)
	if err != nil {
		return false, err
	}
	ans := snap.NonEmpty()
	if _, err := s.relabel(id, old); err != nil {
		return false, err
	}
	return ans, nil
}

// Stats exposes the underlying query's stats.
func (s *EnumerationSolver) Stats() engine.Stats { return s.s.Snapshot().Query(s.id).Stats() }

// WalkSolver is the trivial baseline: O(1) updates, O(depth) queries by
// walking to the root. On the deep instances of experiment E7 its query
// time is linear while the enumeration solver stays logarithmic.
type WalkSolver struct {
	t     *tree.Unranked
	marks map[tree.NodeID]bool
}

// NewWalkSolver builds the baseline solver.
func NewWalkSolver(t *tree.Unranked) *WalkSolver {
	return &WalkSolver{t: t, marks: map[tree.NodeID]bool{}}
}

// Mark marks a node.
func (s *WalkSolver) Mark(id tree.NodeID) error {
	if s.t.Node(id) == nil {
		return fmt.Errorf("markedanc: node %d does not exist", id)
	}
	s.marks[id] = true
	return nil
}

// Unmark unmarks a node.
func (s *WalkSolver) Unmark(id tree.NodeID) error {
	if s.t.Node(id) == nil {
		return fmt.Errorf("markedanc: node %d does not exist", id)
	}
	delete(s.marks, id)
	return nil
}

// Query walks to the root.
func (s *WalkSolver) Query(id tree.NodeID) (bool, error) {
	n := s.t.Node(id)
	if n == nil {
		return false, fmt.Errorf("markedanc: node %d does not exist", id)
	}
	for p := n.Parent; p != nil; p = p.Parent {
		if s.marks[p.ID] {
			return true, nil
		}
	}
	return false, nil
}

// LowerBoundCurve returns the Ω(log n / log log n) reference value of
// Theorem 9.2 for instance size n (up to the constant the experiment
// normalizes away).
func LowerBoundCurve(n int) float64 {
	if n < 4 {
		return 1
	}
	return math.Log2(float64(n)) / math.Log2(math.Log2(float64(n)))
}
