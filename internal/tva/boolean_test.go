package tva

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// sameAssignments checks two oracle outputs for equality.
func sameAssignments(t *testing.T, label string, want, got map[string]tree.Assignment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: |want|=%d |got|=%d", label, len(want), len(got))
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Fatalf("%s: missing %q", label, k)
		}
	}
}

func TestDeterminizeEquivalentAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	alpha := []tree.Label{"a", "b"}
	vars := tree.NewVarSet(0)
	for trial := 0; trial < 30; trial++ {
		a := RandomBinary(rng, 1+rng.Intn(4), alpha, vars, 0.4)
		d := Determinize(a)
		if !d.IsDeterministic() {
			t.Fatalf("trial %d: Determinize result not deterministic", trial)
		}
		bt := RandomBinaryTree(rng, 1+rng.Intn(4), alpha)
		want, _ := a.SatisfyingAssignments(bt, 6)
		got, _ := d.SatisfyingAssignments(bt, 6)
		sameAssignments(t, "determinize", want, got)
	}
}
