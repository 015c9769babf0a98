package enumerate

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestDescenderMatchesAt drives one long-lived Descender across many
// circuits and ranks — including interleaved revisits of earlier ranks
// — and checks every answer against At on a fresh Descender. This pins
// the scratch-reuse contract: recycled matrices, weights and ropes never
// leak state from one At call into the next.
func TestDescenderMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDescender()
	for trials := 0; trials < 26; {
		root, unamb, bd, c := countedCircuit(rng, 1+rng.Intn(3), 1+rng.Intn(8))
		if root == nil || !unamb {
			continue
		}
		trials++
		gamma, emptyOK := bd.RootAccepting(c)
		total, err := Total(root, gamma, emptyOK)
		if err != nil {
			t.Fatal(err)
		}
		if !total.IsInt64() || total.Int64() > 2048 {
			continue
		}
		n := int(total.Int64())
		// Visit ranks in a scrambled order so consecutive descents take
		// different shapes through the same scratch.
		for _, j := range rng.Perm(n) {
			want, err := new(Descender).At(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(j)))
			if err != nil {
				t.Fatalf("At(%d): %v", j, err)
			}
			got, err := d.AtInt(root, gamma, emptyOK, ModeIndexed, j)
			if err != nil {
				t.Fatalf("Descender.AtInt(%d): %v", j, err)
			}
			wk, gk := "<empty>", "<empty>"
			if want != nil {
				wk = want.Materialize().Key()
			}
			if got != nil {
				gk = got.Materialize().Key()
			}
			if wk != gk {
				t.Fatalf("rank %d: Descender = %s, want %s", j, gk, wk)
			}
		}
		if _, err := d.AtInt(root, gamma, emptyOK, ModeIndexed, n); err != ErrRankRange {
			t.Fatalf("past-the-end AtInt = %v, want ErrRankRange", err)
		}
		if _, err := d.AtInt(root, gamma, emptyOK, ModeIndexed, -1); err != ErrRankRange {
			t.Fatalf("AtInt(-1) = %v, want ErrRankRange", err)
		}
	}
}

// TestDescenderSteadyStateAllocs pins the point of the scratch: once the
// slabs reach the descent's high-water mark, ranking an answer performs
// (near) zero allocations beyond materialization. The bound is loose —
// big.Int growth may still allocate on some shapes — but a regression to
// per-call matrices/ropes would blow far past it.
func TestDescenderSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for {
		root, unamb, bd, c := countedCircuit(rng, 2, 16)
		if root == nil || !unamb {
			continue
		}
		gamma, emptyOK := bd.RootAccepting(c)
		total, err := Total(root, gamma, emptyOK)
		if err != nil {
			t.Fatal(err)
		}
		if !total.IsInt64() {
			continue
		}
		n := int(total.Int64())
		if n < 8 || n > 4096 {
			continue
		}
		d := NewDescender()
		j := 0
		work := func() {
			if _, err := d.AtInt(root, gamma, emptyOK, ModeIndexed, j%n); err != nil {
				t.Fatal(err)
			}
			j++
		}
		for i := 0; i < n; i++ {
			work() // touch every descent shape: reach the high-water mark
		}
		oneShot := testing.AllocsPerRun(20, func() {
			if _, err := new(Descender).At(root, gamma, emptyOK, ModeIndexed, big.NewInt(int64(j%n))); err != nil {
				t.Fatal(err)
			}
			j++
		})
		reused := testing.AllocsPerRun(20, work)
		if reused > 4 {
			t.Fatalf("steady-state Descender.At allocates %.1f/call, want ≈0 (At on a fresh Descender: %.1f)", reused, oneShot)
		}
		if reused > oneShot {
			t.Fatalf("Descender.At (%.1f allocs) costs more than At on a fresh Descender (%.1f)", reused, oneShot)
		}
		return
	}
}
