package tva

import (
	"sort"

	"repro/internal/tree"
)

// Determinize performs the bottom-up subset construction, producing a
// deterministic binary TVA equivalent to a: for every (label, annotation)
// pair and every pair of child states there is at most one successor
// state. Only reachable subsets are materialized, but the construction is
// still exponential in |Q| in the worst case — this is exactly the cost
// the paper's combined-complexity result avoids, and the determinize-first
// baseline of experiment E5 measures.
func Determinize(a *Binary) *Binary {
	type key = string
	initBy := a.InitByLabel()
	deltaBy := a.DeltaByLabel()

	encode := func(qs []State) key {
		b := make([]byte, 0, len(qs)*2)
		for _, q := range qs {
			b = append(b, byte(q), byte(q>>8))
		}
		return key(b)
	}

	index := map[key]State{}
	var subsets [][]State
	intern := func(qs []State) State {
		k := encode(qs)
		if s, ok := index[k]; ok {
			return s
		}
		s := State(len(subsets))
		index[k] = s
		subsets = append(subsets, qs)
		return s
	}

	out := &Binary{Alphabet: append([]tree.Label(nil), a.Alphabet...), Vars: a.Vars}

	// Seed with all leaf subsets: one per (label, annotation) with a
	// nonempty state set.
	annotations := []tree.VarSet{}
	tree.SubsetsOf(a.Vars, func(s tree.VarSet) { annotations = append(annotations, s) })
	for _, l := range a.Alphabet {
		for _, ann := range annotations {
			var qs []State
			seen := map[State]bool{}
			for _, r := range initBy[l] {
				if r.Set == ann && !seen[r.State] {
					seen[r.State] = true
					qs = append(qs, r.State)
				}
			}
			if len(qs) == 0 {
				continue
			}
			sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
			out.Init = append(out.Init, InitRule{l, ann, intern(qs)})
		}
	}

	// Close under transitions: for every label and every known pair of
	// subset states, compute the successor subset.
	type pairKey struct {
		l      tree.Label
		s1, s2 State
	}
	done := map[pairKey]bool{}
	for frontier := 0; frontier < len(subsets); frontier++ {
		for _, l := range a.Alphabet {
			triples := deltaBy[l]
			if len(triples) == 0 {
				continue
			}
			for s1 := 0; s1 < len(subsets); s1++ {
				for _, s2pick := range []int{frontier} {
					for _, pair := range [][2]int{{s1, s2pick}, {s2pick, s1}} {
						pk := pairKey{l, State(pair[0]), State(pair[1])}
						if done[pk] {
							continue
						}
						done[pk] = true
						has1 := map[State]bool{}
						for _, q := range subsets[pair[0]] {
							has1[q] = true
						}
						has2 := map[State]bool{}
						for _, q := range subsets[pair[1]] {
							has2[q] = true
						}
						resSeen := map[State]bool{}
						var res []State
						for _, t := range triples {
							if has1[t.Left] && has2[t.Right] && !resSeen[t.Out] {
								resSeen[t.Out] = true
								res = append(res, t.Out)
							}
						}
						if len(res) == 0 {
							continue
						}
						sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
						s := intern(res)
						out.Delta = append(out.Delta, Triple{l, pk.s1, pk.s2, s})
					}
				}
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

// IsDeterministic reports whether the automaton has at most one initial
// state per (label, annotation) and one successor per (label, q1, q2).
func (a *Binary) IsDeterministic() bool {
	type ik struct {
		l tree.Label
		s tree.VarSet
	}
	seenI := map[ik]State{}
	for _, r := range a.Init {
		if q, ok := seenI[ik{r.Label, r.Set}]; ok && q != r.State {
			return false
		}
		seenI[ik{r.Label, r.Set}] = r.State
	}
	type dk struct {
		l      tree.Label
		q1, q2 State
	}
	seenD := map[dk]State{}
	for _, t := range a.Delta {
		if q, ok := seenD[dk{t.Label, t.Left, t.Right}]; ok && q != t.Out {
			return false
		}
		seenD[dk{t.Label, t.Left, t.Right}] = t.Out
	}
	return true
}

func mergeAlphabets(a, b []tree.Label) []tree.Label {
	seen := map[tree.Label]bool{}
	var out []tree.Label
	for _, l := range a {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for _, l := range b {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
