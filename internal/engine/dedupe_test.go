package engine_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file is the differential and lifecycle suite of the multi-query
// optimizer (DESIGN.md §9): registrations of content-equal automata
// share ONE refcounted pipeline, and nothing observable may change —
// every script runs through an engine with k duplicate registrations
// DEDUPED and an engine with the same registrations under
// Options.NoDedupe (one private pipeline each, the pre-optimizer
// behavior), and after every batch each query pair must agree on the
// full result sequence, Count, At probes and Page slices. A refcount
// churn stress registers and unregisters twins under -race while edits
// stream: a QueryID leaving must never retire the boxes its live twin
// still serves.

// compareDedupePair checks the whole per-query read surface of one
// (deduped, private) snapshot pair after one batch.
func compareDedupePair(t *testing.T, s *diffScript, step, qi int, dedup, plain *engine.Snapshot) {
	t.Helper()
	ds, ps := drainSeq(dedup), drainSeq(plain)
	if !slices.Equal(ds, ps) {
		t.Fatalf("step %d query %d: dedupe and NoDedupe engines diverge\ndedupe:   %v\nnodedupe: %v\nscript:\n%s",
			step, qi, ds, ps, s)
	}
	if dc, pc := dedup.Count(), plain.Count(); dc != pc {
		t.Fatalf("step %d query %d: Count diverges: dedupe %d, nodedupe %d\nscript:\n%s", step, qi, dc, pc, s)
	}
	for _, j := range []int{0, len(ds) / 2, len(ds) - 1, len(ds)} {
		if j < 0 {
			continue
		}
		da, derr := dedup.At(j)
		pa, perr := plain.At(j)
		if (derr == nil) != (perr == nil) {
			t.Fatalf("step %d query %d: At(%d) errors diverge: %v vs %v\nscript:\n%s", step, qi, j, derr, perr, s)
		}
		if derr == nil && da.Key() != pa.Key() {
			t.Fatalf("step %d query %d: At(%d) diverges: %v vs %v\nscript:\n%s", step, qi, j, da, pa, s)
		}
	}
	for _, off := range []int{0, len(ds) / 2} {
		dp, pp := dedup.Page(off, 3), plain.Page(off, 3)
		if len(dp) != len(pp) {
			t.Fatalf("step %d query %d: Page(%d,3) lengths diverge: %d vs %d\nscript:\n%s",
				step, qi, off, len(dp), len(pp), s)
		}
		for i := range dp {
			if dp[i].Key() != pp[i].Key() {
				t.Fatalf("step %d query %d: Page(%d,3)[%d] diverges\nscript:\n%s", step, qi, off, i, s)
			}
		}
	}
}

// runDedupeVsNoDedupe replays one script through two QuerySets over the
// same document — the query registered dupes times with the optimizer on
// vs the same registrations under NoDedupe — and compares every query
// pair after every batch. It also pins that the optimizer actually
// engaged on the dedupe side and stayed off on the other.
func runDedupeVsNoDedupe(t *testing.T, s *diffScript) {
	t.Helper()
	const dupes = 3
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

	var dedupIDs, plainIDs []engine.QueryID
	var dedupEng, plainEng interface {
		Snapshot() *engine.MultiSnapshot
		Stats() engine.EngineStats
		ApplyBatch([]engine.Update) (*engine.MultiSnapshot, []tree.NodeID, error)
	}
	if s.isWord {
		q, err := diffWordQuery(s.query)
		if err != nil {
			t.Fatalf("script query: %v\nscript:\n%s", err, s)
		}
		dw, err := engine.NewWordSet(s.letters)
		if err != nil {
			t.Fatalf("engine: %v\nscript:\n%s", err, s)
		}
		pw, err := engine.NewWordSet(s.letters)
		if err != nil {
			t.Fatalf("engine: %v\nscript:\n%s", err, s)
		}
		for i := 0; i < dupes; i++ {
			did, err := dw.Register(q, engine.Options{})
			if err != nil {
				t.Fatalf("register: %v\nscript:\n%s", err, s)
			}
			pid, err := pw.Register(q, engine.Options{NoDedupe: true})
			if err != nil {
				t.Fatalf("register: %v\nscript:\n%s", err, s)
			}
			dedupIDs, plainIDs = append(dedupIDs, did), append(plainIDs, pid)
		}
		dedupEng, plainEng = dw, pw
	} else {
		q, err := diffTreeQuery(s.query)
		if err != nil {
			t.Fatalf("script query: %v\nscript:\n%s", err, s)
		}
		ut, err := tree.ParseUnranked(s.tree)
		if err != nil {
			t.Fatalf("script tree: %v\nscript:\n%s", err, s)
		}
		dt := engine.NewTreeSet(ut.Clone())
		pt := engine.NewTreeSet(ut)
		for i := 0; i < dupes; i++ {
			did, err := dt.Register(q, engine.Options{})
			if err != nil {
				t.Fatalf("register: %v\nscript:\n%s", err, s)
			}
			pid, err := pt.Register(q, engine.Options{NoDedupe: true})
			if err != nil {
				t.Fatalf("register: %v\nscript:\n%s", err, s)
			}
			dedupIDs, plainIDs = append(dedupIDs, did), append(plainIDs, pid)
		}
		dedupEng, plainEng = dt, pt
	}

	if st := dedupEng.Stats(); st.Pipelines != 1 || st.PipelinesShared != 1 || st.RegistrationsDeduped != dupes-1 {
		t.Fatalf("dedupe engine: pipelines %d shared %d deduped %d, want 1/1/%d\nscript:\n%s",
			st.Pipelines, st.PipelinesShared, st.RegistrationsDeduped, dupes-1, s)
	}
	if st := plainEng.Stats(); st.Pipelines != dupes || st.RegistrationsDeduped != 0 {
		t.Fatalf("NoDedupe engine: pipelines %d deduped %d, want %d/0\nscript:\n%s",
			st.Pipelines, st.RegistrationsDeduped, dupes, s)
	}

	check := func(step int, dm, pm *engine.MultiSnapshot) {
		for qi := range dedupIDs {
			compareDedupePair(t, s, step, qi, dm.Query(dedupIDs[qi]), pm.Query(plainIDs[qi]))
		}
	}
	check(0, dedupEng.Snapshot(), plainEng.Snapshot())
	for bi, batch := range mkBatches() {
		dm, _, derr := dedupEng.ApplyBatch(batch)
		pm, _, perr := plainEng.ApplyBatch(batch)
		if (derr == nil) != (perr == nil) {
			t.Fatalf("batch %d: errors diverge: %v vs %v\nscript:\n%s", bi, derr, perr, s)
		}
		check(bi+1, dm, pm)
	}
}

// TestDedupeDifferentialCorpus replays the committed seed corpus through
// the dedupe-vs-NoDedupe comparison.
func TestDedupeDifferentialCorpus(t *testing.T) {
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
			runDedupeVsNoDedupe(t, s)
		})
	}
}

// TestDedupeDifferentialRandom draws fresh random edit scripts — trees
// and words, ambiguous (path://a//b) and unambiguous queries — for the
// dedupe-vs-NoDedupe comparison.
func TestDedupeDifferentialRandom(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, true)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) { runDedupeVsNoDedupe(t, s) })
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		s := randomDiffScript(rng, "span", true, true)
		t.Run(fmt.Sprintf("word%d", seed), func(t *testing.T) { runDedupeVsNoDedupe(t, s) })
	}
}

// TestDedupeStatsLifecycle walks the refcount lifecycle on one engine:
// twins share a pipeline (and a published *Snapshot), distinct automata
// and NoDedupe registrations stay private, a twin's departure leaves the
// shared pipeline serving, and the last departure retires it without
// breaking the cumulative counters.
func TestDedupeStatsLifecycle(t *testing.T) {
	ut, err := tree.ParseUnranked("(a (b) (a (b) (c)))")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := diffTreeQuery("select:b")
	if err != nil {
		t.Fatal(err)
	}
	qa, err := diffTreeQuery("ancestor")
	if err != nil {
		t.Fatal(err)
	}
	qs := engine.NewTreeSet(ut)

	id1, err := qs.Register(qb, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := qs.Register(qb, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := qs.Stats()
	if st.Queries != 2 || st.Pipelines != 1 || st.PipelinesShared != 1 || st.RegistrationsDeduped != 1 {
		t.Fatalf("after twin registration: %+v", st)
	}
	if st.QueryBoxesRebuilt[id1] != st.QueryBoxesRebuilt[id2] {
		t.Fatalf("twins must report the shared pipeline's counter: %d vs %d",
			st.QueryBoxesRebuilt[id1], st.QueryBoxesRebuilt[id2])
	}
	if st.BoxesRebuilt != st.QueryBoxesRebuilt[id1] {
		t.Fatalf("shared pipeline double-counted: total %d, pipeline %d", st.BoxesRebuilt, st.QueryBoxesRebuilt[id1])
	}
	m := qs.Snapshot()
	if m.Query(id1) != m.Query(id2) {
		t.Fatal("twins should project the same published snapshot")
	}

	// A distinct automaton and a NoDedupe duplicate each get their own
	// pipeline; a later deduped registration still joins the SHARED one.
	if _, err := qs.Register(qa, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	idPriv, err := qs.Register(qb, engine.Options{NoDedupe: true})
	if err != nil {
		t.Fatal(err)
	}
	st = qs.Stats()
	if st.Pipelines != 3 || st.PipelinesShared != 1 || st.RegistrationsDeduped != 1 {
		t.Fatalf("after distinct+NoDedupe registrations: %+v", st)
	}
	if m = qs.Snapshot(); m.Query(idPriv) == m.Query(id1) {
		t.Fatal("NoDedupe registration must not share the twin pipeline's snapshot")
	}
	id3, err := qs.Register(qb, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st = qs.Stats()
	if st.RegistrationsDeduped != 2 || st.Pipelines != 3 {
		t.Fatalf("deduped registration should join the shared pipeline, not the NoDedupe one: %+v", st)
	}

	// Unregistering one twin leaves the shared pipeline fully serving;
	// edits after the departure keep every remaining query correct.
	before := drainSeq(qs.Snapshot().Query(id2))
	if err := qs.Unregister(id1); err != nil {
		t.Fatal(err)
	}
	if got := drainSeq(qs.Snapshot().Query(id2)); !slices.Equal(got, before) {
		t.Fatalf("twin diverged after partner unregistered: %v vs %v", got, before)
	}
	m, _, err = qs.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: 0, Label: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	want := drainSeq(m.Query(idPriv))
	if got := drainSeq(m.Query(id2)); !slices.Equal(got, want) {
		t.Fatalf("shared pipeline diverged from private twin after edit: %v vs %v", got, want)
	}
	if got := drainSeq(m.Query(id3)); !slices.Equal(got, want) {
		t.Fatalf("second twin diverged after edit: %v vs %v", got, want)
	}

	// The last twin's departure retires the pipeline; the cumulative
	// BoxesRebuilt total must not drop (released counters are folded in).
	total := qs.Stats().BoxesRebuilt
	if err := qs.Unregister(id2); err != nil {
		t.Fatal(err)
	}
	if err := qs.Unregister(id3); err != nil {
		t.Fatal(err)
	}
	st = qs.Stats()
	if st.PipelinesShared != 0 {
		t.Fatalf("no shared pipeline should remain: %+v", st)
	}
	if st.BoxesRebuilt < total {
		t.Fatalf("cumulative BoxesRebuilt went backwards: %d -> %d", total, st.BoxesRebuilt)
	}
	// A fresh registration after full retirement builds anew and may be
	// shared again.
	id4, err := qs.Register(qb, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id5, err := qs.Register(qb, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m = qs.Snapshot()
	if m.Query(id4) != m.Query(id5) {
		t.Fatal("post-retirement twins should share a fresh pipeline")
	}
	if got := drainSeq(m.Query(id4)); !slices.Equal(got, drainSeq(m.Query(idPriv))) {
		t.Fatal("fresh shared pipeline diverges from the standing private one")
	}
}

// TestDedupeRefcountChurnStress is the -race stress of the refcount
// lifecycle: writers stream batches while churners register and
// unregister duplicate automata against permanently standing twins. A
// QueryID unregistered while its twin stays live must not retire the
// shared boxes — every churner compares its freshly registered twin
// against the permanent one on the SAME MultiSnapshot before leaving,
// and readers keep draining the permanent queries throughout. One spec
// has no permanent twin, so two churners race whole build/retire cycles
// against each other (the splice-in convergence path).
func TestDedupeRefcountChurnStress(t *testing.T) {
	specs := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	queries := make([]*tva.Unranked, len(specs))
	for i, sp := range specs {
		q, err := diffTreeQuery(sp)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	rng := rand.New(rand.NewSource(21))
	ut := tva.RandomUnrankedTree(rng, 120, []tree.Label{"a", "b", "c"})
	qs := engine.NewTreeSet(ut)

	// Permanent twins for the first three specs; spec 3 churns bare.
	perm := make([]engine.QueryID, 3)
	for i := 0; i < 3; i++ {
		id, err := qs.Register(queries[i], engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		perm[i] = id
	}

	var (
		done    atomic.Bool
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure string
	)
	fail := func(msg string) {
		failMu.Lock()
		if failure == "" {
			failure = msg
		}
		failMu.Unlock()
		done.Store(true)
	}

	// Churners: register a duplicate, verify against the live twin on
	// one consistent MultiSnapshot, unregister, repeat.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := c % 3
			if c == 3 {
				spec = 3 // bare spec: no permanent twin, races churner 2's builds
			}
			for !done.Load() {
				id, err := qs.Register(queries[spec], engine.Options{})
				if err != nil {
					fail(fmt.Sprintf("churner %d register: %v", c, err))
					return
				}
				m := qs.Snapshot()
				mine := drainSeq(m.Query(id))
				if spec < 3 {
					if twin := drainSeq(m.Query(perm[spec])); !slices.Equal(mine, twin) {
						fail(fmt.Sprintf("churner %d: twin diverged: %d vs %d answers", c, len(mine), len(twin)))
						return
					}
				} else if n := m.Query(id).Count(); n != len(mine) {
					fail(fmt.Sprintf("churner %d: Count %d != drained %d", c, n, len(mine)))
					return
				}
				if err := qs.Unregister(id); err != nil {
					fail(fmt.Sprintf("churner %d unregister: %v", c, err))
					return
				}
			}
		}(c)
	}
	// The second bare-spec churner (shares spec 3 with churner 3).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			id, err := qs.Register(queries[3], engine.Options{})
			if err != nil {
				fail(fmt.Sprintf("bare churner register: %v", err))
				return
			}
			snap := qs.Snapshot().Query(id)
			if n := snap.Count(); n < 0 {
				fail("bare churner: negative count")
				return
			}
			if err := qs.Unregister(id); err != nil {
				fail(fmt.Sprintf("bare churner unregister: %v", err))
				return
			}
		}
	}()
	// Readers drain the permanent queries from whatever version is live.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				m := qs.Snapshot()
				for _, id := range perm {
					if s := m.Query(id); s != nil {
						drainSeq(s)
					}
				}
				if st := qs.Stats(); st.Pipelines > st.Queries {
					fail(fmt.Sprintf("stats invariant broken: %d pipelines > %d queries", st.Pipelines, st.Queries))
					return
				}
			}
		}()
	}

	// Writer: random valid batches, like the engine stress writer.
	labels := []tree.Label{"a", "b", "c"}
	wrng := rand.New(rand.NewSource(22))
	for i := 0; i < 150 && !done.Load(); i++ {
		tr := qs.Tree()
		nodes := tr.Nodes()
		k := 1 + wrng.Intn(5)
		var batch []engine.Update
		switch wrng.Intn(3) {
		case 0:
			for j := 0; j < k; j++ {
				n := nodes[wrng.Intn(len(nodes))]
				batch = append(batch, engine.Update{Op: engine.OpRelabel, Node: n.ID, Label: labels[wrng.Intn(3)]})
			}
		case 1:
			for j := 0; j < k; j++ {
				n := nodes[wrng.Intn(len(nodes))]
				batch = append(batch, engine.Update{Op: engine.OpInsertFirstChild, Node: n.ID, Label: labels[wrng.Intn(3)]})
			}
		default:
			var leaves []tree.NodeID
			for _, n := range nodes {
				if n.IsLeaf() && n.Parent != nil {
					leaves = append(leaves, n.ID)
				}
			}
			wrng.Shuffle(len(leaves), func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })
			for j := 0; j < k && j < len(leaves); j++ {
				batch = append(batch, engine.Update{Op: engine.OpDelete, Node: leaves[j]})
			}
			if len(batch) == 0 {
				batch = append(batch, engine.Update{Op: engine.OpRelabel, Node: tr.Root.ID, Label: labels[wrng.Intn(3)]})
			}
		}
		if _, _, err := qs.ApplyBatch(batch); err != nil {
			fail(fmt.Sprintf("writer batch %d: %v", i, err))
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}

	// After the churn, the permanent twins still answer exactly like a
	// freshly built private pipeline over the final document.
	oracle, err := qs.Register(queries[0], engine.Options{NoDedupe: true})
	if err != nil {
		t.Fatal(err)
	}
	m := qs.Snapshot()
	if got, want := drainSeq(m.Query(perm[0])), drainSeq(m.Query(oracle)); !slices.Equal(got, want) {
		t.Fatalf("permanent twin diverged from fresh oracle after churn: %d vs %d answers", len(got), len(want))
	}
}
