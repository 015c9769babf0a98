package tva

import (
	"sort"

	"repro/internal/tree"
)

// UnionUnranked returns a stepwise TVA accepting a tree under a valuation
// iff a or b does (disjoint union of state spaces).
func UnionUnranked(a, b *Unranked) *Unranked {
	off := State(a.NumStates)
	out := &Unranked{
		NumStates: a.NumStates + b.NumStates,
		Alphabet:  mergeAlphabets(a.Alphabet, b.Alphabet),
		Vars:      a.Vars | b.Vars,
	}
	out.Init = append(out.Init, a.Init...)
	for _, r := range b.Init {
		out.Init = append(out.Init, InitRule{r.Label, r.Set, r.State + off})
	}
	out.Delta = append(out.Delta, a.Delta...)
	for _, t := range b.Delta {
		out.Delta = append(out.Delta, StepTriple{t.From + off, t.Child + off, t.To + off})
	}
	out.Final = append(out.Final, a.Final...)
	for _, q := range b.Final {
		out.Final = append(out.Final, q+off)
	}
	return out
}

// IntersectUnranked returns the product automaton accepting exactly the
// trees and valuations accepted by both a and b. Both must have the same
// variable universe (cylindrify first if not).
func IntersectUnranked(a, b *Unranked) *Unranked {
	out := &Unranked{
		NumStates: a.NumStates * b.NumStates,
		Alphabet:  mergeAlphabets(a.Alphabet, b.Alphabet),
		Vars:      a.Vars | b.Vars,
	}
	enc := func(p, q State) State { return p*State(b.NumStates) + q }
	bInit := b.InitByLabel()
	for _, ra := range a.Init {
		for _, rb := range bInit[ra.Label] {
			if ra.Set == rb.Set {
				out.Init = append(out.Init, InitRule{ra.Label, ra.Set, enc(ra.State, rb.State)})
			}
		}
	}
	for _, ta := range a.Delta {
		for _, tb := range b.Delta {
			out.Delta = append(out.Delta, StepTriple{
				enc(ta.From, tb.From),
				enc(ta.Child, tb.Child),
				enc(ta.To, tb.To),
			})
		}
	}
	for _, fa := range a.Final {
		for _, fb := range b.Final {
			out.Final = append(out.Final, enc(fa, fb))
		}
	}
	return out.Trim()
}

// DeterminizeUnranked performs the subset construction for stepwise
// automata. The result assigns to every node the set of states the input
// automaton could assign, is deterministic and complete (the empty subset
// acts as the sink), and accepts iff the set at the root intersects F.
func DeterminizeUnranked(a *Unranked) *Unranked {
	encode := func(qs []State) string {
		b := make([]byte, 0, len(qs)*2)
		for _, q := range qs {
			b = append(b, byte(q), byte(q>>8))
		}
		return string(b)
	}
	index := map[string]State{}
	var subsets [][]State
	intern := func(qs []State) State {
		sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
		k := encode(qs)
		if s, ok := index[k]; ok {
			return s
		}
		s := State(len(subsets))
		index[k] = s
		subsets = append(subsets, qs)
		return s
	}

	out := &Unranked{Alphabet: append([]tree.Label(nil), a.Alphabet...), Vars: a.Vars}
	initBy := a.InitByLabel()

	// Seed: one subset per (label, annotation), possibly empty (sink).
	for _, l := range a.Alphabet {
		tree.SubsetsOf(a.Vars, func(ann tree.VarSet) {
			var qs []State
			seen := map[State]bool{}
			for _, r := range initBy[l] {
				if r.Set == ann && !seen[r.State] {
					seen[r.State] = true
					qs = append(qs, r.State)
				}
			}
			out.Init = append(out.Init, InitRule{l, ann, intern(qs)})
		})
	}

	// Close under the step function over all pairs of known subsets.
	type pk struct{ from, child State }
	done := map[pk]bool{}
	for frontier := 0; frontier < len(subsets); frontier++ {
		for other := 0; other < len(subsets); other++ {
			for _, p := range []pk{{State(other), State(frontier)}, {State(frontier), State(other)}} {
				if done[p] {
					continue
				}
				done[p] = true
				hasFrom := map[State]bool{}
				for _, q := range subsets[p.from] {
					hasFrom[q] = true
				}
				hasChild := map[State]bool{}
				for _, q := range subsets[p.child] {
					hasChild[q] = true
				}
				resSeen := map[State]bool{}
				var res []State
				for _, t := range a.Delta {
					if hasFrom[t.From] && hasChild[t.Child] && !resSeen[t.To] {
						resSeen[t.To] = true
						res = append(res, t.To)
					}
				}
				out.Delta = append(out.Delta, StepTriple{p.from, p.child, intern(res)})
			}
		}
	}

	out.NumStates = len(subsets)
	finals := map[State]bool{}
	for _, q := range a.Final {
		finals[q] = true
	}
	for i, qs := range subsets {
		for _, q := range qs {
			if finals[q] {
				out.Final = append(out.Final, State(i))
				break
			}
		}
	}
	return out
}

// ComplementUnranked returns a stepwise TVA accepting exactly the (tree,
// valuation) pairs a rejects, relative to a's alphabet and variable
// universe. Exponential in general (determinization).
func ComplementUnranked(a *Unranked) *Unranked {
	d := DeterminizeUnranked(a)
	finals := map[State]bool{}
	for _, q := range d.Final {
		finals[q] = true
	}
	var flipped []State
	for q := State(0); int(q) < d.NumStates; q++ {
		if !finals[q] {
			flipped = append(flipped, q)
		}
	}
	d.Final = flipped
	return d.Trim()
}

// Project existentially quantifies the variable v away: the result accepts
// (T, ν) iff a accepts (T, ν′) for some ν′ that extends ν with some
// placement of v. The variable leaves the universe.
func Project(a *Unranked, v tree.Var) *Unranked {
	out := &Unranked{
		NumStates: a.NumStates,
		Alphabet:  append([]tree.Label(nil), a.Alphabet...),
		Vars:      a.Vars.Remove(v),
		Delta:     append([]StepTriple(nil), a.Delta...),
		Final:     append([]State(nil), a.Final...),
	}
	seen := map[InitRule]bool{}
	for _, r := range a.Init {
		nr := InitRule{r.Label, r.Set.Remove(v), r.State}
		if !seen[nr] {
			seen[nr] = true
			out.Init = append(out.Init, nr)
		}
	}
	return out
}

// Cylindrify extends the variable universe to newVars ⊇ a.Vars: the new
// variables are unconstrained, i.e. every initial rule is duplicated for
// every subset of the added variables. The satisfying assignments become
// the old ones extended with arbitrary placements of the new variables.
func Cylindrify(a *Unranked, newVars tree.VarSet) *Unranked {
	added := newVars &^ a.Vars
	out := &Unranked{
		NumStates: a.NumStates,
		Alphabet:  append([]tree.Label(nil), a.Alphabet...),
		Vars:      newVars,
		Delta:     append([]StepTriple(nil), a.Delta...),
		Final:     append([]State(nil), a.Final...),
	}
	for _, r := range a.Init {
		tree.SubsetsOf(added, func(z tree.VarSet) {
			out.Init = append(out.Init, InitRule{r.Label, r.Set | z, r.State})
		})
	}
	return out
}
