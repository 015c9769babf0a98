package engine_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file is the differential suite of signature-pruned repair: every
// script — the seeded corpus under testdata/differential plus fresh
// random ones — runs through TWO engines over the same document, the
// default (pruned) one and one with Options.FullRebuild, and after every
// batch the two must agree on the whole circuit STRUCTURE (box-for-box
// Sig + circuit.ShapeEqual over the published trees — a reused box must
// be gate for gate the box a rebuild would have produced), on the full
// result sequence (order included, so even enumeration order may not
// drift), on Count, and on At(j) probes. A final test pins that the
// suite actually exercises the reuse path (BoxesReused > 0 on a
// neutral-relabel stream) so the comparison can never silently
// degenerate into pruned-vs-pruned.

// drainSeq materializes the engine's enumeration order (unsorted).
func drainSeq(s *engine.Snapshot) []string {
	var out []string
	for a := range s.Results() {
		out = append(out, a.Key())
	}
	return out
}

// compareBoxTrees walks the two snapshots' circuit trees in lockstep
// and requires every box pair to agree on the structural signature AND
// on circuit.ShapeEqual, the exact relation the signature approximates.
// This is stronger than comparing answers: a reused box must be gate
// for gate the box the full rebuild produced (only Label/Node/identity
// may differ), at every trunk position, after every batch.
func compareBoxTrees(t *testing.T, s *diffScript, step int, pruned, full *engine.Snapshot) {
	t.Helper()
	var rec func(p, f *enumerate.IndexedBox)
	rec = func(p, f *enumerate.IndexedBox) {
		if (p == nil) != (f == nil) {
			t.Fatalf("step %d: box trees have different shapes\nscript:\n%s", step, s)
		}
		if p == nil {
			return
		}
		if p.Box.Sig != f.Box.Sig {
			t.Fatalf("step %d: box signatures diverge at n%d: %x vs %x\nscript:\n%s",
				step, p.Box.Node, p.Box.Sig, f.Box.Sig, s)
		}
		if !circuit.ShapeEqual(p.Box, f.Box) {
			t.Fatalf("step %d: box gate structure diverges at n%d\nscript:\n%s", step, p.Box.Node, s)
		}
		rec(p.Left, f.Left)
		rec(p.Right, f.Right)
	}
	rec(pruned.Root(), full.Root())
}

// comparePrunedFull checks one publication pair.
func comparePrunedFull(t *testing.T, s *diffScript, step int, pruned, full *engine.Snapshot) {
	t.Helper()
	for _, snap := range []*engine.Snapshot{pruned, full} {
		if err := snap.Validate(); err != nil {
			t.Fatalf("step %d: frozen snapshot invalid: %v\nscript:\n%s", step, err, s)
		}
	}
	compareBoxTrees(t, s, step, pruned, full)
	ps, fs := drainSeq(pruned), drainSeq(full)
	if !slices.Equal(ps, fs) {
		t.Fatalf("step %d: pruned and full-rebuild engines diverge\npruned: %v\nfull:   %v\nscript:\n%s", step, ps, fs, s)
	}
	if pc, fc := pruned.Count(), full.Count(); pc != fc {
		t.Fatalf("step %d: Count diverges: pruned %d, full %d\nscript:\n%s", step, pc, fc, s)
	}
	for _, j := range []int{0, len(ps) / 2, len(ps) - 1} {
		if j < 0 || j >= len(ps) {
			continue
		}
		pa, perr := pruned.At(j)
		fa, ferr := full.At(j)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("step %d: At(%d) errors diverge: %v vs %v\nscript:\n%s", step, j, perr, ferr, s)
		}
		if perr == nil && pa.Key() != fa.Key() {
			t.Fatalf("step %d: At(%d) diverges: %v vs %v\nscript:\n%s", step, j, pa, fa, s)
		}
	}
}

// runPrunedVsFull replays one script through both engines.
func runPrunedVsFull(t *testing.T, s *diffScript) {
	t.Helper()
	mkBatches := func() [][]engine.Update {
		out := make([][]engine.Update, len(s.batches))
		for bi, raw := range s.batches {
			for _, ed := range raw {
				u, err := parseDiffEdit(ed)
				if err != nil {
					t.Fatalf("%v\nscript:\n%s", err, s)
				}
				out[bi] = append(out[bi], u)
			}
		}
		return out
	}
	// Both twins are driven through the shared Engine half of either set.
	var pruned, full *engine.Engine
	var pid, fid engine.QueryID
	if s.isWord {
		q, err := diffWordQuery(s.query)
		if err != nil {
			t.Fatalf("script query: %v\nscript:\n%s", err, s)
		}
		pw, p := newWordQuery(t, s.letters, q, engine.Options{})
		fw, f := newWordQuery(t, s.letters, q, engine.Options{FullRebuild: true})
		pruned, pid, full, fid = &pw.Engine, p, &fw.Engine, f
	} else {
		q, err := diffTreeQuery(s.query)
		if err != nil {
			t.Fatalf("script query: %v\nscript:\n%s", err, s)
		}
		ut, err := tree.ParseUnranked(s.tree)
		if err != nil {
			t.Fatalf("script tree: %v\nscript:\n%s", err, s)
		}
		pt, p := newTreeQuery(t, ut.Clone(), q, engine.Options{})
		ft, f := newTreeQuery(t, ut, q, engine.Options{FullRebuild: true})
		pruned, pid, full, fid = &pt.Engine, p, &ft.Engine, f
	}
	comparePrunedFull(t, s, 0, pruned.Snapshot().Query(pid), full.Snapshot().Query(fid))
	for bi, batch := range mkBatches() {
		pm, _, perr := pruned.ApplyBatch(batch)
		fm, _, ferr := full.ApplyBatch(batch)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("batch %d: errors diverge: %v vs %v\nscript:\n%s", bi, perr, ferr, s)
		}
		comparePrunedFull(t, s, bi+1, pm.Query(pid), fm.Query(fid))
	}
}

// TestDifferentialPrunedVsFullCorpus replays the committed seed corpus
// through the pruned-vs-full comparison.
func TestDifferentialPrunedVsFullCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "differential", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus scripts found")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			s, err := parseDiffScript(string(data))
			if err != nil {
				t.Fatal(err)
			}
			runPrunedVsFull(t, s)
		})
	}
}

// TestDifferentialPrunedVsFullRandom draws fresh random edit scripts —
// trees and words, all query kinds including the ambiguous path query —
// for the pruned-vs-full comparison. Failures print the script in
// corpus format.
func TestDifferentialPrunedVsFullRandom(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, true)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) { runPrunedVsFull(t, s) })
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		s := randomDiffScript(rng, "span", true, true)
		t.Run(fmt.Sprintf("word%d", seed), func(t *testing.T) { runPrunedVsFull(t, s) })
	}
}

// TestPruningEngagesOnNeutralRelabels pins that signature-pruned repair
// actually fires: on a stream of relabels the query does not distinguish
// (non-b nodes toggling between a and c under select:b), the whole trunk
// is reused — BoxesReused grows, BoxesRebuilt stays flat — while the
// answers keep matching a FullRebuild twin, whose BoxesReused must stay
// zero. A query-visible relabel then checks pruning steps aside.
func TestPruningEngagesOnNeutralRelabels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ut := tva.RandomUnrankedTree(rng, 200, []tree.Label{"a", "b", "c"})
	q, err := diffTreeQuery("select:b")
	if err != nil {
		t.Fatal(err)
	}
	pruned, pid := newTreeQuery(t, ut.Clone(), q, engine.Options{})
	full, fid := newTreeQuery(t, ut.Clone(), q, engine.Options{FullRebuild: true})
	// relabel applies one relabel to both twins and returns their
	// resulting snapshots.
	relabel := func(id tree.NodeID, l tree.Label) (*engine.Snapshot, *engine.Snapshot) {
		t.Helper()
		u := []engine.Update{{Op: engine.OpRelabel, Node: id, Label: l}}
		pm, _, perr := pruned.ApplyBatch(u)
		fm, _, ferr := full.ApplyBatch(u)
		if perr != nil || ferr != nil {
			t.Fatalf("relabel: %v / %v", perr, ferr)
		}
		return pm.Query(pid), fm.Query(fid)
	}
	var neutral []tree.NodeID
	for _, n := range pruned.Tree().Nodes() {
		if n.Label != "b" {
			neutral = append(neutral, n.ID)
		}
	}
	if len(neutral) == 0 {
		t.Fatal("test tree has no neutral nodes")
	}
	base := pruned.Stats()
	rebuiltBase := base.BoxesRebuilt
	for i := 0; i < 40; i++ {
		id := neutral[rng.Intn(len(neutral))]
		l := tree.Label("a")
		if rng.Intn(2) == 0 {
			l = "c"
		}
		psnap, fsnap := relabel(id, l)
		comparePrunedFull(t, &diffScript{tree: "(neutral stream)", query: "select:b"}, i+1, psnap, fsnap)
	}
	st := pruned.Stats()
	if st.BoxesReused == 0 {
		t.Fatal("neutral relabels should reuse trunk boxes (BoxesReused stayed 0)")
	}
	if st.BoxesRebuilt != rebuiltBase {
		t.Fatalf("neutral relabels rebuilt %d boxes, want 0", st.BoxesRebuilt-rebuiltBase)
	}
	if fst := full.Stats(); fst.BoxesReused != 0 {
		t.Fatalf("FullRebuild engine reused %d boxes, want 0", fst.BoxesReused)
	}
	// The snapshot-side stats carry the same counter.
	if snapReused := pruned.Snapshot().Query(pid).Stats().BoxesReused; snapReused != st.BoxesReused {
		t.Fatalf("snapshot BoxesReused %d disagrees with engine stats %d", snapReused, st.BoxesReused)
	}

	// A visible relabel (b → a changes the answer set) must NOT be
	// pruned: answers change and boxes are rebuilt.
	var bNode tree.NodeID = tree.InvalidNode
	for _, n := range pruned.Tree().Nodes() {
		if n.Label == "b" {
			bNode = n.ID
			break
		}
	}
	if bNode == tree.InvalidNode {
		t.Skip("no b-labeled node left to relabel")
	}
	before := pruned.Snapshot().Query(pid).Count()
	psnap, fsnap := relabel(bNode, "a")
	comparePrunedFull(t, &diffScript{tree: "(visible relabel)", query: "select:b"}, 999, psnap, fsnap)
	if psnap.Count() != before-1 {
		t.Fatalf("visible relabel: count %d, want %d", psnap.Count(), before-1)
	}
	if after := pruned.Stats(); after.BoxesRebuilt == st.BoxesRebuilt {
		t.Fatal("visible relabel should rebuild trunk boxes")
	}
}
