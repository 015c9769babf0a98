// Package tva implements the tree variable automata of the paper: binary
// TVAs (Section 2), which the circuit construction of Section 3 consumes,
// and unranked stepwise TVAs (Section 7), which are the user-facing query
// formalism. It provides homogenization (Lemma 2.1), trimming, boolean
// operations (product, union, determinization, complement, projection,
// cylindrification) used by the MSO compiler, and brute-force oracles used
// throughout the test suite.
package tva

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// State is an automaton state, identified by its index in [0, NumStates).
type State int

// InitRule is an element (l, Y, q) of the initial relation ι ⊆ Λ×2^X×Q:
// on a leaf labeled l annotated with exactly the variable set Y, the
// automaton may assign state q.
type InitRule struct {
	Label tree.Label
	Set   tree.VarSet
	State State
}

// Triple is an element (l, q1, q2, q) of the transition relation
// δ ⊆ Λ×Q×Q×Q of a binary TVA: on an l-labeled internal node whose
// children carry states q1 (left) and q2 (right), the automaton may assign
// state q.
type Triple struct {
	Label tree.Label
	Left  State
	Right State
	Out   State
}

// Binary is a binary tree variable automaton A = (Q, ι, δ, F) over
// Λ-trees with variable set X (a Λ,X-TVA, Section 2). Annotations are read
// on leaves only.
type Binary struct {
	NumStates int
	// Alphabet is the tree alphabet Λ. Constructions that must consider
	// every label (completion, complement) iterate over it.
	Alphabet []tree.Label
	// Vars is the variable universe X.
	Vars  tree.VarSet
	Init  []InitRule
	Delta []Triple
	Final []State

	// Homogenization metadata (Lemma 2.1): when Homogenized is true,
	// OneStates marks exactly the 1-states; every live state is then
	// either a 0-state or a 1-state but not both.
	Homogenized bool
	OneStates   bitset.Set
}

// Size returns |A| = |Q| + |ι| + |δ| as defined in Section 2.
func (a *Binary) Size() int { return a.NumStates + len(a.Init) + len(a.Delta) }

// InitByLabel groups the initial relation by label.
func (a *Binary) InitByLabel() map[tree.Label][]InitRule {
	m := map[tree.Label][]InitRule{}
	for _, r := range a.Init {
		m[r.Label] = append(m[r.Label], r)
	}
	return m
}

// DeltaByLabel groups the transition relation by label.
func (a *Binary) DeltaByLabel() map[tree.Label][]Triple {
	m := map[tree.Label][]Triple{}
	for _, t := range a.Delta {
		m[t.Label] = append(m[t.Label], t)
	}
	return m
}

// Validate checks basic well-formedness: states in range, variable sets
// within the universe, labels within the alphabet.
func (a *Binary) Validate() error {
	labels := map[tree.Label]bool{}
	for _, l := range a.Alphabet {
		labels[l] = true
	}
	okState := func(q State) bool { return q >= 0 && int(q) < a.NumStates }
	for _, r := range a.Init {
		if !okState(r.State) {
			return fmt.Errorf("tva: init rule state %d out of range", r.State)
		}
		if r.Set&^a.Vars != 0 {
			return fmt.Errorf("tva: init rule set %v outside universe %v", r.Set, a.Vars)
		}
		if !labels[r.Label] {
			return fmt.Errorf("tva: init rule label %q not in alphabet", r.Label)
		}
	}
	for _, t := range a.Delta {
		if !okState(t.Left) || !okState(t.Right) || !okState(t.Out) {
			return fmt.Errorf("tva: transition %v has state out of range", t)
		}
		if !labels[t.Label] {
			return fmt.Errorf("tva: transition label %q not in alphabet", t.Label)
		}
	}
	for _, q := range a.Final {
		if !okState(q) {
			return fmt.Errorf("tva: final state %d out of range", q)
		}
	}
	return nil
}

// StatesAt computes bottom-up, for every node of the binary tree under the
// valuation ν (annotations on leaves), the set of states the automaton can
// assign to that node by a run on its subtree. This is the standard
// membership DP; it is the reference semantics the circuit construction is
// tested against.
func (a *Binary) StatesAt(t *tree.Binary, nu tree.Valuation) map[*tree.BNode]bitset.Set {
	initBy := a.InitByLabel()
	deltaBy := a.DeltaByLabel()
	out := map[*tree.BNode]bitset.Set{}
	var walk func(n *tree.BNode) bitset.Set
	walk = func(n *tree.BNode) bitset.Set {
		s := bitset.NewSet(a.NumStates)
		if n.IsLeaf() {
			ann := nu[n.ID]
			for _, r := range initBy[n.Label] {
				if r.Set == ann {
					s.Add(int(r.State))
				}
			}
		} else {
			ls := walk(n.Left)
			rs := walk(n.Right)
			for _, tr := range deltaBy[n.Label] {
				if ls.Has(int(tr.Left)) && rs.Has(int(tr.Right)) {
					s.Add(int(tr.Out))
				}
			}
		}
		out[n] = s
		return s
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

// Accepts reports whether the automaton accepts the binary tree under the
// valuation ν.
func (a *Binary) Accepts(t *tree.Binary, nu tree.Valuation) bool {
	states := a.StatesAt(t, nu)
	root := states[t.Root]
	for _, q := range a.Final {
		if root.Has(int(q)) {
			return true
		}
	}
	return false
}

// SatisfyingAssignments enumerates, by brute force over all valuations of
// the leaves, the satisfying assignments of the automaton on the tree
// (Section 2). It is exponential and exists as the ground-truth oracle for
// tests; maxLeaves guards against accidental blow-up.
func (a *Binary) SatisfyingAssignments(t *tree.Binary, maxLeaves int) (map[string]tree.Assignment, error) {
	leaves := t.Leaves()
	if len(leaves) > maxLeaves {
		return nil, fmt.Errorf("tva: brute force on %d leaves exceeds cap %d", len(leaves), maxLeaves)
	}
	subsets := []tree.VarSet{}
	tree.SubsetsOf(a.Vars, func(s tree.VarSet) { subsets = append(subsets, s) })
	sort.Slice(subsets, func(i, j int) bool { return subsets[i] < subsets[j] })

	results := map[string]tree.Assignment{}
	nu := tree.Valuation{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(leaves) {
			if a.Accepts(t, nu) {
				asg := nu.Assignment()
				results[asg.Key()] = asg
			}
			return
		}
		for _, s := range subsets {
			if s == 0 {
				delete(nu, leaves[i].ID)
			} else {
				nu[leaves[i].ID] = s
			}
			rec(i + 1)
		}
		delete(nu, leaves[i].ID)
	}
	rec(0)
	return results, nil
}

// reachableStates returns the states that appear in some run on some tree
// (bottom-up closure over ι and δ).
func (a *Binary) reachableStates() bitset.Set {
	reach := bitset.NewSet(a.NumStates)
	for _, r := range a.Init {
		reach.Add(int(r.State))
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Delta {
			if reach.Has(int(t.Left)) && reach.Has(int(t.Right)) && !reach.Has(int(t.Out)) {
				reach.Add(int(t.Out))
				changed = true
			}
		}
	}
	return reach
}

// usefulStates returns the states from which a final state can be reached
// by continuing a run upwards (co-reachability), intersected with
// reachability. Trimming to useful states never changes the satisfying
// assignments.
func (a *Binary) usefulStates() bitset.Set {
	reach := a.reachableStates()
	use := bitset.NewSet(a.NumStates)
	for _, q := range a.Final {
		if reach.Has(int(q)) {
			use.Add(int(q))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Delta {
			if use.Has(int(t.Out)) && reach.Has(int(t.Left)) && reach.Has(int(t.Right)) {
				if !use.Has(int(t.Left)) {
					use.Add(int(t.Left))
					changed = true
				}
				if !use.Has(int(t.Right)) {
					use.Add(int(t.Right))
					changed = true
				}
			}
		}
	}
	return use
}

// Trim removes states that are unreachable or useless, renumbering the
// survivors. The satisfying assignments are unchanged. Homogenization
// metadata is preserved.
func (a *Binary) Trim() *Binary {
	keep := a.usefulStates()
	remap := make([]State, a.NumStates)
	for i := range remap {
		remap[i] = -1
	}
	n := 0
	keep.ForEach(func(q int) bool {
		remap[q] = State(n)
		n++
		return true
	})
	out := &Binary{
		NumStates:   n,
		Alphabet:    append([]tree.Label(nil), a.Alphabet...),
		Vars:        a.Vars,
		Homogenized: a.Homogenized,
		OneStates:   bitset.NewSet(n),
	}
	for _, r := range a.Init {
		if remap[r.State] >= 0 {
			out.Init = append(out.Init, InitRule{r.Label, r.Set, remap[r.State]})
		}
	}
	for _, t := range a.Delta {
		if remap[t.Left] >= 0 && remap[t.Right] >= 0 && remap[t.Out] >= 0 {
			out.Delta = append(out.Delta, Triple{t.Label, remap[t.Left], remap[t.Right], remap[t.Out]})
		}
	}
	for _, q := range a.Final {
		if remap[q] >= 0 {
			out.Final = append(out.Final, remap[q])
		}
	}
	if a.Homogenized {
		for q := 0; q < a.NumStates; q++ {
			if remap[q] >= 0 && a.OneStates.Has(q) {
				out.OneStates.Add(int(remap[q]))
			}
		}
	}
	return out
}
