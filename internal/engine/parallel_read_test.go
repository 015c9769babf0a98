package engine_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/mso"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file is the property suite of the rank-partitioned parallel
// read path: across the differential corpus (trees + words, ambiguous +
// unambiguous automata), ParallelAll(w) and
// the Chunks stream must reproduce the sequential enumeration answer
// for answer, in order — including mid-script, after every batch — and
// a parallel drain must see its own frozen snapshot while ApplyBatch
// publishes new versions underneath it. Run under -race these tests
// also pin the confinement discipline of the per-worker descenders.

// orderedKeys drains a snapshot's Results in enumeration order.
func orderedKeys(snap *engine.Snapshot) []string {
	var out []string
	for a := range snap.Results() {
		out = append(out, a.Key())
	}
	return out
}

// assignmentKeys projects materialized assignments to their keys.
func assignmentKeys(as []tree.Assignment) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Key()
	}
	return out
}

// forEachScriptSnapshot replays a differential script on the engine
// (no oracle) and hands every published snapshot to fn.
func forEachScriptSnapshot(t *testing.T, s *diffScript, fn func(step int, snap *engine.Snapshot)) {
	t.Helper()
	var e *engine.Engine
	var id engine.QueryID
	if s.isWord {
		q, err := diffWordQuery(s.query)
		if err != nil {
			t.Fatal(err)
		}
		we, wid := newWordQuery(t, s.letters, q, engine.Options{})
		e, id = &we.Engine, wid
	} else {
		q, err := diffTreeQuery(s.query)
		if err != nil {
			t.Fatal(err)
		}
		ut, err := tree.ParseUnranked(s.tree)
		if err != nil {
			t.Fatal(err)
		}
		te, tid := newTreeQuery(t, ut, q, engine.Options{})
		e, id = &te.Engine, tid
	}
	apply := func(batch []engine.Update) *engine.Snapshot {
		m, _, err := e.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch: %v\nscript:\n%s", err, s)
		}
		return m.Query(id)
	}
	fn(0, e.Snapshot().Query(id))
	for bi, raw := range s.batches {
		batch := make([]engine.Update, 0, len(raw))
		for _, ed := range raw {
			u, err := parseDiffEdit(ed)
			if err != nil {
				t.Fatalf("%v\nscript:\n%s", err, s)
			}
			batch = append(batch, u)
		}
		fn(bi+1, apply(batch))
	}
}

// checkParallelReads is the per-snapshot property: the snapshot's
// frozen units and its maintained derivation count must pass Validate,
// All() must equal the Results order, ParallelAll(w) must equal All()
// for every worker count, the Chunks stream must concatenate to exactly
// the same sequence at awkward chunk sizes, and Page(off, lim) must be
// the slice All()[off:off+lim].
func checkParallelReads(t *testing.T, s *diffScript, step int, snap *engine.Snapshot) {
	t.Helper()
	if err := snap.Validate(); err != nil {
		t.Fatalf("step %d: %v\nscript:\n%s", step, err, s)
	}
	want := orderedKeys(snap)
	if got := assignmentKeys(snap.All()); !equalStrings(got, want) {
		t.Fatalf("step %d (direct=%v): All diverges from Results order\nAll:     %v\nResults: %v\nscript:\n%s",
			step, snap.DirectAccess(), got, want, s)
	}
	for _, w := range []int{1, 2, 4, 8} {
		if got := assignmentKeys(snap.ParallelAll(w)); !equalStrings(got, want) {
			t.Fatalf("step %d: ParallelAll(%d) diverges (direct=%v)\ngot:  %v\nwant: %v\nscript:\n%s",
				step, w, snap.DirectAccess(), got, want, s)
		}
	}
	for _, cs := range []int{1, 3, 64} {
		var got []string
		for chunk := range snap.Chunks(4, cs) {
			if len(chunk) == 0 || len(chunk) > cs {
				t.Fatalf("step %d: Chunks(4, %d) yielded a chunk of %d answers\nscript:\n%s",
					step, cs, len(chunk), s)
			}
			got = append(got, assignmentKeys(chunk)...)
		}
		if !equalStrings(got, want) {
			t.Fatalf("step %d: Chunks(4, %d) diverges (direct=%v)\ngot:  %v\nwant: %v\nscript:\n%s",
				step, cs, snap.DirectAccess(), got, want, s)
		}
	}
	// Abandoning the stream early must neither deadlock nor panic.
	for range snap.Chunks(3, 2) {
		break
	}
	// Every page — one seek plus a streamed range on direct-access
	// snapshots — is the same slice of the full sequence, at the
	// boundary offsets and past the end.
	n := len(want)
	for _, off := range []int{0, 1, n / 3, n - 1, n, n + 5} {
		for _, lim := range []int{1, 7, n + 1} {
			if off < 0 {
				continue
			}
			got := assignmentKeys(snap.Page(off, lim))
			if w := want[min(off, n):min(off+lim, n)]; !equalStrings(got, w) {
				t.Fatalf("step %d: Page(%d, %d) diverges from All()[%d:%d] (direct=%v)\ngot:  %v\nwant: %v\nscript:\n%s",
					step, off, lim, off, off+lim, snap.DirectAccess(), got, w, s)
			}
		}
	}
}

// checkCountedSeek checks, at the enumeration layer on the snapshot's
// frozen root, the maintained derivation count against an enumeration
// that reads no count or index (ModeNaive, Section 5): that enumeration
// yields Results' answer set without duplicates, Derivations is at
// least its size and equals it on direct-access snapshots, whose counts
// are exact ranks. There, every RopesFromInt seek-then-stream range is
// the same slice of Results.
func checkCountedSeek(t *testing.T, s *diffScript, step int, snap *engine.Snapshot) {
	t.Helper()
	want := orderedKeys(snap)
	_, gamma, emptyOK := snap.Accepting()
	var naive []string
	for a := range enumerate.Assignments(snap.Root(), gamma, emptyOK, enumerate.ModeNaive) {
		naive = append(naive, a.Key())
	}
	sortedWant := append([]string(nil), want...)
	slices.Sort(sortedWant)
	slices.Sort(naive)
	if !equalStrings(naive, sortedWant) {
		t.Fatalf("step %d: ModeNaive enumerates %v, Results %v\nscript:\n%s", step, naive, sortedWant, s)
	}
	n := len(want)
	d := snap.Derivations()
	if d.Cmp(big.NewInt(int64(n))) < 0 || snap.DirectAccess() && !(d.IsInt64() && d.Int64() == int64(n)) {
		t.Fatalf("step %d (direct=%v): %d answers, Derivations = %s\nscript:\n%s", step, snap.DirectAccess(), n, d, s)
	}
	if !snap.DirectAccess() {
		return
	}
	desc := enumerate.GetDescender()
	defer enumerate.PutDescender(desc)
	for _, off := range []int{0, 1, n / 3, n - 1, n} {
		if off < 0 || off > n { // n < 2
			continue
		}
		ropes, err := desc.RopesFromInt(snap.Root(), gamma, emptyOK, enumerate.ModeIndexed, off)
		if err != nil {
			t.Fatalf("step %d: seek to %d of %d: %v\nscript:\n%s", step, off, n, err, s)
		}
		var got []string
		for r := range ropes {
			a := tree.Assignment{}
			if r != nil {
				a = r.Materialize()
			}
			got = append(got, a.Key())
			if len(got) == 7 {
				break
			}
		}
		if w := want[off:min(off+7, n)]; !equalStrings(got, w) {
			t.Fatalf("step %d: seek to %d diverges\ngot:  %v\nwant: %v\nscript:\n%s", step, off, got, w, s)
		}
	}
}

// readChecks are the per-snapshot properties the corpus suites run:
// the engine's own read paths ("indexed"), and the derivation counts
// and seek of the enumeration layer on the same frozen roots ("simple",
// the leg that checks the counts an Algorithm 1 seek would descend by).
var readChecks = map[string]func(*testing.T, *diffScript, int, *engine.Snapshot){
	"indexed": checkParallelReads,
	"simple":  checkCountedSeek,
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelAllMatchesSequential runs the read checks over the
// committed corpus. The corpus mixes trees and words and includes the
// ambiguous path query, so both the seek and the skip of the ranked
// stream are exercised (the test logs which snapshots engaged which).
func TestParallelAllMatchesSequential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "differential", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus scripts found")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := parseDiffScript(string(data))
		if err != nil {
			t.Fatal(err)
		}
		for cn, check := range readChecks {
			t.Run(filepath.Base(f)+"/"+cn, func(t *testing.T) {
				direct, fallback := 0, 0
				forEachScriptSnapshot(t, s, func(step int, snap *engine.Snapshot) {
					if snap.DirectAccess() {
						direct++
					} else {
						fallback++
					}
					check(t, s, step, snap)
				})
				t.Logf("%d direct-access snapshots, %d fallback", direct, fallback)
			})
		}
	}
}

// TestParallelAllMatchesSequentialRandom is the same property over
// freshly drawn random scripts, including the ambiguous path query.
func TestParallelAllMatchesSequentialRandom(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, true)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) {
			forEachScriptSnapshot(t, s, func(step int, snap *engine.Snapshot) {
				checkParallelReads(t, s, step, snap)
			})
		})
	}
	rng := rand.New(rand.NewSource(800))
	s := randomDiffScript(rng, "span", true, true)
	t.Run("word", func(t *testing.T) {
		forEachScriptSnapshot(t, s, func(step int, snap *engine.Snapshot) {
			checkParallelReads(t, s, step, snap)
		})
	})
}

// TestParallelAllMatchesPagesStructural is the seek differential over
// random structural scripts (subtree and range moves, grafts, deletes):
// trees and words, the read checks, and the product-heavy
// two-variable query, so seeks land inside products as well as on var
// gates. Every published snapshot must serve pages, ParallelAll and
// Chunks exactly as its own Results.
func TestParallelAllMatchesPagesStructural(t *testing.T) {
	queries := []string{"childpair", "ancestor", "select:b", "childpair"}
	for seed := int64(0); seed < 8; seed++ {
		isWord := seed%4 == 3
		rng := rand.New(rand.NewSource(900 + seed))
		q := queries[seed%int64(len(queries))]
		if isWord {
			q = "span"
		}
		s := randomDiffScript(rng, q, isWord, true)
		for cn, check := range readChecks {
			t.Run(fmt.Sprintf("%d/%s/%s", seed, q, cn), func(t *testing.T) {
				forEachScriptSnapshot(t, s, func(step int, snap *engine.Snapshot) {
					if !snap.DirectAccess() {
						t.Fatalf("step %d: %s lost direct access", step, q)
					}
					check(t, s, step, snap)
				})
			})
		}
	}
}

// wideTree builds "(a (b) (c) (b) ...)": a root with n alternating
// b/c children, so select:b has ~n/2 answers and every odd child ID is
// a b node.
func wideTree(t *testing.T, n int) *tree.Unranked {
	t.Helper()
	var b strings.Builder
	b.WriteString("(a")
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.WriteString(" (b)")
		} else {
			b.WriteString(" (c)")
		}
	}
	b.WriteString(")")
	ut, err := tree.ParseUnranked(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return ut
}

// TestParallelDrainSnapshotIsolation runs parallel drains of a pinned
// snapshot while ApplyBatch publishes new versions concurrently: every
// drain must reproduce the pinned version's answers exactly, no matter
// how many relabels land mid-drain. Under -race this also proves the
// read path shares nothing mutable with the writer.
func TestParallelDrainSnapshotIsolation(t *testing.T) {
	const kids = 240
	e, id := newTreeQuery(t, wideTree(t, kids), tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0), engine.Options{})
	snap0 := e.Snapshot().Query(id)
	want := assignmentKeys(snap0.All())
	if len(want) != kids/2 {
		t.Fatalf("seed answer count = %d, want %d", len(want), kids/2)
	}

	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if got := assignmentKeys(snap0.ParallelAll(4)); !equalStrings(got, want) {
					errc <- fmt.Sprintf("ParallelAll drained %d answers from the pinned snapshot, want %d", len(got), len(want))
					return
				}
				var got []string
				for chunk := range snap0.Chunks(3, 7) {
					got = append(got, assignmentKeys(chunk)...)
				}
				if !equalStrings(got, want) {
					errc <- fmt.Sprintf("Chunks drained %d answers from the pinned snapshot, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	// The writer: flip b children to c and back, one batch per flip,
	// racing the drains above.
	for flip := 0; flip < 20; flip++ {
		label := tree.Label("c")
		if flip%2 == 1 {
			label = tree.Label("b")
		}
		var batch []engine.Update
		for id := 1; id <= kids; id += 8 {
			batch = append(batch, engine.Update{Op: engine.OpRelabel, Node: tree.NodeID(id), Label: label})
		}
		if _, _, err := e.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
	// Sanity: the engine moved on — the latest snapshot differs from the
	// pinned one.
	if e.Snapshot().Version() == snap0.Version() {
		t.Fatal("writer published nothing")
	}
}

// TestParallelDrainSaturatedCount drains Chunks over 2^70 answers, so
// Count saturates at MaxInt: the chunk count must not overflow, and with
// one and with two workers the first chunk is Page(0, 4).
func TestParallelDrainSaturatedCount(t *testing.T) {
	alpha := []tree.Label{"a", "b"}
	q, err := mso.Compile(mso.HasLabel{X: 0, Label: "b"}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	ut, err := tree.ParseUnranked("(a" + strings.Repeat(" (b)", 70) + ")")
	if err != nil {
		t.Fatal(err)
	}
	e, id := newTreeQuery(t, ut, q, engine.Options{})
	snap := e.Snapshot().Query(id)
	if !snap.DirectAccess() || snap.Count() != math.MaxInt {
		t.Fatalf("direct=%v Count=%d, want direct access and a saturated count", snap.DirectAccess(), snap.Count())
	}
	want := assignmentKeys(snap.Page(0, 4))
	if len(want) != 4 {
		t.Fatalf("Page(0, 4) has %d answers", len(want))
	}
	for _, workers := range []int{1, 2} {
		for chunk := range snap.Chunks(workers, 4) {
			if got := assignmentKeys(chunk); !equalStrings(got, want) {
				t.Fatalf("Chunks(%d, 4) first chunk = %v, want Page(0, 4) = %v", workers, got, want)
			}
			break
		}
	}
}

// TestParallelDrainAllocations is the allocation guard of the descent
// scratch: per answer, the rank-partitioned parallel drain must not
// allocate more than the sequential Page sweep (the workers' fixed
// setup — descenders, goroutines, the output slice — is amortized over
// a large answer set).
func TestParallelDrainAllocations(t *testing.T) {
	const kids = 4000
	e, id := newTreeQuery(t, wideTree(t, kids), tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0), engine.Options{})
	snap := e.Snapshot().Query(id)
	if !snap.DirectAccess() {
		t.Fatal("select query lost direct access")
	}
	n := snap.Count()
	if n != kids/2 {
		t.Fatalf("Count = %d, want %d", n, kids/2)
	}
	snap.Page(0, n) // warm both paths once
	snap.ParallelAll(4)
	perPage := testing.AllocsPerRun(3, func() { snap.Page(0, n) }) / float64(n)
	perPar := testing.AllocsPerRun(3, func() { snap.ParallelAll(4) }) / float64(n)
	t.Logf("allocs/answer: Page %.2f, ParallelAll(4) %.2f", perPage, perPar)
	if perPar > perPage+0.5 {
		t.Fatalf("parallel drain allocates %.2f/answer, sequential Page %.2f/answer", perPar, perPage)
	}
}

// TestReadStats pins the read-path counters: answers flow into
// AnswersEnumerated from every read API, and exactly the fanned-out
// drains bump ParallelDrains.
func TestReadStats(t *testing.T) {
	e, id := newTreeQuery(t, wideTree(t, 64), tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0), engine.Options{})
	snap := e.Snapshot().Query(id)
	n := snap.Count()
	stats := e.Stats

	base := stats()
	if got := assignmentKeys(snap.All()); len(got) != n {
		t.Fatalf("All returned %d answers, want %d", len(got), n)
	}
	afterAll := stats()
	if afterAll.AnswersEnumerated < base.AnswersEnumerated+int64(n) {
		t.Fatalf("All moved AnswersEnumerated %d -> %d, want +%d",
			base.AnswersEnumerated, afterAll.AnswersEnumerated, n)
	}
	if afterAll.ParallelDrains != base.ParallelDrains {
		t.Fatalf("All bumped ParallelDrains to %d", afterAll.ParallelDrains)
	}

	snap.ParallelAll(4)
	afterPar := stats()
	if afterPar.ParallelDrains != afterAll.ParallelDrains+1 {
		t.Fatalf("ParallelAll moved ParallelDrains %d -> %d, want +1",
			afterAll.ParallelDrains, afterPar.ParallelDrains)
	}
	if afterPar.AnswersEnumerated < afterAll.AnswersEnumerated+int64(n) {
		t.Fatalf("ParallelAll moved AnswersEnumerated %d -> %d, want +%d",
			afterAll.AnswersEnumerated, afterPar.AnswersEnumerated, n)
	}

	for range snap.Chunks(4, 8) {
	}
	afterChunks := stats()
	if afterChunks.ParallelDrains != afterPar.ParallelDrains+1 {
		t.Fatalf("Chunks moved ParallelDrains %d -> %d, want +1",
			afterPar.ParallelDrains, afterChunks.ParallelDrains)
	}
	if afterChunks.AnswersEnumerated < afterPar.AnswersEnumerated+int64(n) {
		t.Fatalf("Chunks moved AnswersEnumerated %d -> %d, want +%d",
			afterPar.AnswersEnumerated, afterChunks.AnswersEnumerated, n)
	}
}
