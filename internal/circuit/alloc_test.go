package circuit

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/tva"
)

// Allocation-regression guards for the builder hot path: the precompiled
// program plus the scratch arena make LeafBox allocate only the box
// header (the gates are the label's shared template) and InnerBox only
// the box with its gate data plus one slab for the gate arrays. These
// tests pin the steady-state allocation counts so a regression (a
// reintroduced map, a sort that boxes its closure, a slice that escapes)
// fails CI rather than silently eating the Lemma 7.3 repair budget. The
// InnerBox bound is one above the measured 2 to absorb compiler-version
// variance; a LeafBox cannot allocate less than its header.
const (
	maxLeafBoxAllocs  = 1
	maxInnerBoxAllocs = 3
)

// allocAutomaton is a small homogenized automaton exercising every gate
// flavor: ×-gates (two ∪-children), alias wires (⊤ sibling) and var
// gates.
func allocAutomaton(t *testing.T) *tva.Binary {
	t.Helper()
	x := tree.NewVarSet(0)
	raw := &tva.Binary{
		NumStates: 2,
		Alphabet:  alphaAB,
		Vars:      x,
		Init: []tva.InitRule{
			{Label: "a", Set: 0, State: 0}, {Label: "b", Set: 0, State: 0},
			{Label: "a", Set: x, State: 1}, {Label: "b", Set: x, State: 1},
		},
		Final: []tva.State{1},
	}
	for _, l := range alphaAB {
		raw.Delta = append(raw.Delta,
			tva.Triple{Label: l, Left: 0, Right: 0, Out: 0},
			tva.Triple{Label: l, Left: 1, Right: 0, Out: 1},
			tva.Triple{Label: l, Left: 0, Right: 1, Out: 1},
			tva.Triple{Label: l, Left: 1, Right: 1, Out: 1},
		)
	}
	return raw.Homogenize()
}

func TestLeafBoxAllocsSteadyState(t *testing.T) {
	bd := mustBuilder(t, allocAutomaton(t))
	bd.LeafBox("a", 0) // warm the template path
	var sink *Box
	got := testing.AllocsPerRun(200, func() {
		sink = bd.LeafBox("a", 1)
	})
	if got > maxLeafBoxAllocs {
		t.Fatalf("LeafBox allocates %.1f per call, want <= %d", got, maxLeafBoxAllocs)
	}
	_ = sink
}

func TestInnerBoxAllocsSteadyState(t *testing.T) {
	bd := mustBuilder(t, allocAutomaton(t))
	l := bd.LeafBox("a", 0)
	r := bd.LeafBox("b", 1)
	bd.InnerBox("a", 2, l, r) // warm the scratch arena
	var sink *Box
	got := testing.AllocsPerRun(200, func() {
		sink = bd.InnerBox("a", 2, l, r)
	})
	if got > maxInnerBoxAllocs {
		t.Fatalf("InnerBox allocates %.1f per call, want <= %d", got, maxInnerBoxAllocs)
	}
	_ = sink

	// Deeper boxes (inner children, ⊤/alias mix) must stay within the
	// same bound once the arena is warm.
	inner := bd.InnerBox("a", 3, l, r)
	bd.InnerBox("b", 4, inner, r)
	got = testing.AllocsPerRun(200, func() {
		sink = bd.InnerBox("b", 4, inner, r)
	})
	if got > maxInnerBoxAllocs {
		t.Fatalf("InnerBox (inner child) allocates %.1f per call, want <= %d", got, maxInnerBoxAllocs)
	}
}

// TestBuilderSharesProgram pins the cross-pipeline sharing contract:
// builders over content-equal automata — e.g. every registration of the
// same query in a QuerySet engine, which translates and homogenizes
// afresh each time — get the SAME compiled transition program from the
// process-wide cache, while a different automaton gets its own.
func TestBuilderSharesProgram(t *testing.T) {
	mk := func(seed int64) *tva.Binary {
		rng := rand.New(rand.NewSource(seed))
		return tva.RandomBinary(rng, 4, alphaAB, tree.NewVarSet(0), 0.3).Homogenize()
	}
	b1 := mustBuilder(t, mk(7))
	b2 := mustBuilder(t, mk(7)) // same seed: content-equal, distinct object
	if b1 == b2 || b1.A == b2.A {
		t.Fatal("distinct builders over distinct automaton objects expected")
	}
	if b1.Program() != b2.Program() {
		t.Fatal("content-equal automata should share one compiled program")
	}
	other := mustBuilder(t, allocAutomaton(t))
	if other.Program() == b1.Program() {
		t.Fatal("different automata must not share a program")
	}
}
