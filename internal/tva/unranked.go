package tva

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// StepTriple is an element (q, q′, q″) of the transition relation
// δ ⊆ Q×Q×Q of a stepwise unranked TVA (Section 7): while scanning the
// children of a node left to right, an automaton in accumulated state q
// that reads a child carrying state q′ may move to accumulated state q″.
type StepTriple struct {
	From  State // accumulated state before reading the child
	Child State // state of the child being read
	To    State // accumulated state after reading the child
}

// Unranked is a stepwise tree variable automaton on unranked Λ-trees for
// variable set X (Section 7). The initial relation ι assigns possible
// starting states to every node based on its label and annotation (not
// only to leaves); δ then consumes the children states one by one, like a
// word automaton; the state of a node is the accumulated state after all
// children have been read.
type Unranked struct {
	NumStates int
	Alphabet  []tree.Label
	Vars      tree.VarSet
	Init      []InitRule
	Delta     []StepTriple
	Final     []State
}

// Size returns |A| = |Q| + |ι| + |δ|.
func (a *Unranked) Size() int { return a.NumStates + len(a.Init) + len(a.Delta) }

// Validate checks basic well-formedness.
func (a *Unranked) Validate() error {
	labels := map[tree.Label]bool{}
	for _, l := range a.Alphabet {
		labels[l] = true
	}
	okState := func(q State) bool { return q >= 0 && int(q) < a.NumStates }
	for _, r := range a.Init {
		if !okState(r.State) {
			return fmt.Errorf("tva: unranked init state %d out of range", r.State)
		}
		if r.Set&^a.Vars != 0 {
			return fmt.Errorf("tva: unranked init set %v outside universe %v", r.Set, a.Vars)
		}
		if !labels[r.Label] {
			return fmt.Errorf("tva: unranked init label %q not in alphabet", r.Label)
		}
	}
	for _, t := range a.Delta {
		if !okState(t.From) || !okState(t.Child) || !okState(t.To) {
			return fmt.Errorf("tva: unranked transition %v has state out of range", t)
		}
	}
	for _, q := range a.Final {
		if !okState(q) {
			return fmt.Errorf("tva: unranked final state %d out of range", q)
		}
	}
	return nil
}

// initStates returns ι(l, ann) as a bit set.
func (a *Unranked) initStates(initBy map[tree.Label][]InitRule, l tree.Label, ann tree.VarSet) bitset.Set {
	s := bitset.NewSet(a.NumStates)
	for _, r := range initBy[l] {
		if r.Set == ann {
			s.Add(int(r.State))
		}
	}
	return s
}

// StatesAt computes, for every node n of the unranked tree under valuation
// ν (annotations on all nodes), the set of states assignable to n by a run
// on its subtree. This is the stepwise membership DP and the reference
// semantics for the forest-algebra translation tests.
func (a *Unranked) StatesAt(t *tree.Unranked, nu tree.Valuation) map[*tree.UNode]bitset.Set {
	initBy := a.InitByLabel()
	// step[child][from] -> set of To states.
	out := map[*tree.UNode]bitset.Set{}
	var walk func(n *tree.UNode) bitset.Set
	walk = func(n *tree.UNode) bitset.Set {
		acc := a.initStates(initBy, n.Label, nu[n.ID])
		for c := n.FirstChild; c != nil; c = c.NextSib {
			cs := walk(c)
			next := bitset.NewSet(a.NumStates)
			for _, tr := range a.Delta {
				if acc.Has(int(tr.From)) && cs.Has(int(tr.Child)) {
					next.Add(int(tr.To))
				}
			}
			acc = next
		}
		out[n] = acc
		return acc
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

// InitByLabel groups the initial relation by label.
func (a *Unranked) InitByLabel() map[tree.Label][]InitRule {
	m := map[tree.Label][]InitRule{}
	for _, r := range a.Init {
		m[r.Label] = append(m[r.Label], r)
	}
	return m
}

// Accepts reports whether the automaton accepts the unranked tree under
// valuation ν.
func (a *Unranked) Accepts(t *tree.Unranked, nu tree.Valuation) bool {
	states := a.StatesAt(t, nu)
	root := states[t.Root]
	for _, q := range a.Final {
		if root.Has(int(q)) {
			return true
		}
	}
	return false
}

// SatisfyingAssignments enumerates by brute force over all valuations of
// all nodes the satisfying assignments of the automaton on the tree. It is
// the exponential ground-truth oracle for tests; maxNodes guards against
// blow-up.
func (a *Unranked) SatisfyingAssignments(t *tree.Unranked, maxNodes int) (map[string]tree.Assignment, error) {
	nodes := t.Nodes()
	if len(nodes) > maxNodes {
		return nil, fmt.Errorf("tva: brute force on %d nodes exceeds cap %d", len(nodes), maxNodes)
	}
	subsets := []tree.VarSet{}
	tree.SubsetsOf(a.Vars, func(s tree.VarSet) { subsets = append(subsets, s) })

	results := map[string]tree.Assignment{}
	nu := tree.Valuation{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(nodes) {
			if a.Accepts(t, nu) {
				asg := nu.Assignment()
				results[asg.Key()] = asg
			}
			return
		}
		for _, s := range subsets {
			if s == 0 {
				delete(nu, nodes[i].ID)
			} else {
				nu[nodes[i].ID] = s
			}
			rec(i + 1)
		}
		delete(nu, nodes[i].ID)
	}
	rec(0)
	return results, nil
}

// reachable returns the states that occur in some run on some tree: the
// closure of the ι-states under δ (every accumulated state is also a
// possible node state, witnessed by a node with exactly the scanned
// children).
func (a *Unranked) reachable() bitset.Set {
	r := bitset.NewSet(a.NumStates)
	for _, ru := range a.Init {
		r.Add(int(ru.State))
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Delta {
			if r.Has(int(t.From)) && r.Has(int(t.Child)) && !r.Has(int(t.To)) {
				r.Add(int(t.To))
				changed = true
			}
		}
	}
	return r
}

// useful returns the reachable states from which an accepting run can be
// completed.
func (a *Unranked) useful() bitset.Set {
	reach := a.reachable()
	u := bitset.NewSet(a.NumStates)
	for _, q := range a.Final {
		if reach.Has(int(q)) {
			u.Add(int(q))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Delta {
			if !u.Has(int(t.To)) {
				continue
			}
			if reach.Has(int(t.Child)) && reach.Has(int(t.From)) {
				if !u.Has(int(t.From)) {
					u.Add(int(t.From))
					changed = true
				}
				if !u.Has(int(t.Child)) {
					u.Add(int(t.Child))
					changed = true
				}
			}
		}
	}
	return u
}

// Trim removes unreachable and useless states, renumbering the survivors.
func (a *Unranked) Trim() *Unranked {
	keep := a.useful()
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
	out := &Unranked{
		NumStates: n,
		Alphabet:  append([]tree.Label(nil), a.Alphabet...),
		Vars:      a.Vars,
	}
	for _, r := range a.Init {
		if remap[r.State] >= 0 {
			out.Init = append(out.Init, InitRule{r.Label, r.Set, remap[r.State]})
		}
	}
	for _, t := range a.Delta {
		if remap[t.From] >= 0 && remap[t.Child] >= 0 && remap[t.To] >= 0 {
			out.Delta = append(out.Delta, StepTriple{remap[t.From], remap[t.Child], remap[t.To]})
		}
	}
	for _, q := range a.Final {
		if remap[q] >= 0 {
			out.Final = append(out.Final, remap[q])
		}
	}
	return out
}
