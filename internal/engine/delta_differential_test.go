package engine_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/tree"
)

// This file is the differential oracle of answer-delta streaming: the
// same edit scripts as differential_test.go run through an engine with a
// Subscribe consumer attached, and after every batch the consumer's
// materialized set — the initial resync folded with every received
// Delta — is compared against a full re-enumeration of the published
// snapshot. The fold is STRICT (removing an absent answer or adding a
// present one fails immediately), so the deltas must be exact, not just
// eventually consistent. Unambiguous queries exercise the count-guided
// co-descent differ; the ambiguous path query exercises the full-drain
// fallback.

const deltaRecvTimeout = 30 * time.Second

// deltaConsumer folds a subscription's Delta stream into a materialized
// answer set, strictly.
type deltaConsumer struct {
	ch        <-chan engine.Delta
	set       map[string]tree.Assignment
	version   uint64
	coalesced int
	resyncs   int
}

func newDeltaConsumer(t *testing.T, ch <-chan engine.Delta) *deltaConsumer {
	t.Helper()
	c := &deltaConsumer{ch: ch, set: map[string]tree.Assignment{}}
	d := c.recv(t)
	if d.Resync == nil {
		t.Fatalf("first delta of a subscription must be a resync, got %+v", d)
	}
	c.fold(t, d)
	return c
}

func (c *deltaConsumer) recv(t *testing.T) engine.Delta {
	t.Helper()
	select {
	case d, ok := <-c.ch:
		if !ok {
			t.Fatalf("delta channel closed at version %d", c.version)
		}
		return d
	case <-time.After(deltaRecvTimeout):
		t.Fatalf("no delta within %v (at version %d)", deltaRecvTimeout, c.version)
	}
	panic("unreachable")
}

func (c *deltaConsumer) fold(t *testing.T, d engine.Delta) {
	t.Helper()
	if d.Version < c.version {
		t.Fatalf("delta version went backwards: %d after %d", d.Version, c.version)
	}
	if d.Coalesced {
		c.coalesced++
	}
	if d.Resync != nil {
		if d.Added != nil || d.Removed != nil {
			t.Fatalf("resync delta carries a diff: %+v", d)
		}
		c.resyncs++
		c.set = map[string]tree.Assignment{}
		for a := range d.Resync.Results() {
			c.set[a.Key()] = a
		}
		c.version = d.Version
		return
	}
	for _, l := range [][]tree.Assignment{d.Removed, d.Added} {
		for i := 1; i < len(l); i++ {
			if l[i-1].Key() >= l[i].Key() {
				t.Fatalf("delta v%d is not in key order: %q before %q", d.Version, l[i-1].Key(), l[i].Key())
			}
		}
	}
	for _, a := range d.Removed {
		k := a.Key()
		if _, ok := c.set[k]; !ok {
			t.Fatalf("delta v%d removes absent answer %s", d.Version, k)
		}
		delete(c.set, k)
	}
	for _, a := range d.Added {
		k := a.Key()
		if _, ok := c.set[k]; ok {
			t.Fatalf("delta v%d adds already-present answer %s", d.Version, k)
		}
		c.set[k] = a
	}
	c.version = d.Version
}

// advance folds deltas until the consumer's version reaches target (the
// just-published version; coalesced deltas may cover several steps in
// one receive, but never overshoot the latest publication).
func (c *deltaConsumer) advance(t *testing.T, target uint64) {
	t.Helper()
	for c.version < target {
		c.fold(t, c.recv(t))
	}
	if c.version != target {
		t.Fatalf("delta stream overshot: at %d, wanted %d", c.version, target)
	}
}

func (c *deltaConsumer) keys() []string {
	out := make([]string, 0, len(c.set))
	for k := range c.set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// runDeltaScript replays one script with a subscriber attached and
// fails on any divergence between the delta-replayed set and a full
// re-enumeration of the published snapshot after every batch.
func runDeltaScript(t *testing.T, s *diffScript, opts engine.Options) {
	t.Helper()
	// The replay needs only the shared Engine half of either set.
	var e *engine.Engine
	var id engine.QueryID
	if s.isWord {
		q, err := diffWordQuery(s.query)
		if err != nil {
			t.Fatalf("script query: %v\nscript:\n%s", err, s)
		}
		we, wid := newWordQuery(t, s.letters, q, opts)
		e, id = &we.Engine, wid
	} else {
		q, err := diffTreeQuery(s.query)
		if err != nil {
			t.Fatalf("script query: %v\nscript:\n%s", err, s)
		}
		ut, err := tree.ParseUnranked(s.tree)
		if err != nil {
			t.Fatalf("script tree: %v\nscript:\n%s", err, s)
		}
		te, tid := newTreeQuery(t, ut, q, opts)
		e, id = &te.Engine, tid
	}
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	c := newDeltaConsumer(t, ch)
	if want := resultKeys(e.Snapshot().Query(id).Results()); !slices.Equal(c.keys(), want) {
		t.Fatalf("initial resync diverges\nreplayed: %v\nfull:     %v\nscript:\n%s", c.keys(), want, s)
	}
	for bi, raw := range s.batches {
		batch := make([]engine.Update, 0, len(raw))
		for _, ed := range raw {
			u, err := parseDiffEdit(ed)
			if err != nil {
				t.Fatalf("%v\nscript:\n%s", err, s)
			}
			batch = append(batch, u)
		}
		m, _, err := e.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v\nscript:\n%s", bi, err, s)
		}
		c.advance(t, m.Version())
		if want := resultKeys(m.Query(id).Results()); !slices.Equal(c.keys(), want) {
			t.Fatalf("batch %d: delta replay diverges\nreplayed: %v\nfull:     %v\nscript:\n%s",
				bi, c.keys(), want, s)
		}
	}
}

// TestDeltaReplayCorpus replays the committed differential corpus with a
// delta subscriber (all query kinds, including the ambiguous path query
// on the fallback path).
func TestDeltaReplayCorpus(t *testing.T) {
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
			runDeltaScript(t, s, engine.Options{})
		})
	}
}

// TestDeltaReplayRandom draws random leaf-edit scripts — trees across
// all query kinds and words — and checks the delta replay after every
// batch.
func TestDeltaReplayRandom(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, false)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) { runDeltaScript(t, s, engine.Options{}) })
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		s := randomDiffScript(rng, "span", true, false)
		t.Run(fmt.Sprintf("word%d", seed), func(t *testing.T) { runDeltaScript(t, s, engine.Options{}) })
	}
}

// TestDeltaReplayStructural is the structural half: subtree moves,
// grafts and deletes (whose repair reuses moved regions wholesale — the
// exact units the co-descent prunes on) and word range ops, against
// ambiguous and unambiguous automata.
func TestDeltaReplayStructural(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, true)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) { runDeltaScript(t, s, engine.Options{}) })
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		s := randomDiffScript(rng, "span", true, true)
		t.Run(fmt.Sprintf("word%d", seed), func(t *testing.T) { runDeltaScript(t, s, engine.Options{}) })
	}
}

// TestDeltaReplayAmbiguousMulti runs the keyed diff of ambiguous
// automata on answers of several singletons, where the order of the
// flat answer records must still be tree.SortByKey's: seeded random
// automata over two variables ("random2:<seed>") that fail the
// registration-time unambiguity check, on three structural scripts and
// one leaf-edit script whose answer sets stay small. The seeds were
// picked for deltas that carry answers of two singletons; the test
// asserts that such answers occur.
func TestDeltaReplayAmbiguousMulti(t *testing.T) {
	for _, seed := range []int64{9, 33, 79, 94} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			s := randomDiffScript(rng, fmt.Sprintf("random2:%d", seed), false, seed%2 == 1)
			multi := false
			forEachScriptSnapshot(t, s, func(step int, snap *engine.Snapshot) {
				if snap.DirectAccess() {
					t.Fatalf("step %d: the automaton passed the unambiguity check", step)
				}
				for a := range snap.Results() {
					multi = multi || len(a) >= 2
				}
			})
			if !multi {
				t.Fatal("no answer has two singletons")
			}
			runDeltaScript(t, s, engine.Options{})
		})
	}
}

// TestDeltaReplayWithoutRecord covers the publications whose old
// snapshot carries no answer record, so that the keyed diff of the
// ambiguous //a//b query drains the old version as well as the new one:
// the first publication after a Subscribe that follows edits, and the
// first after re-registering an unregistered query. It also covers
// publications that short-circuit the diff (a registration and an
// unregistration of another query, and an edit whose repair reuses the
// whole trunk), before and after a record exists.
// The strict replay checks every delta; KeyedDiffAnswers shows which
// versions each diff drained.
func TestDeltaReplayWithoutRecord(t *testing.T) {
	ut, err := tree.ParseUnranked("(a (b) (c) (a (b) (c (b)) (b) (c)) (b) (c (a (b))))")
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewTreeSet(ut)
	register := func(spec string) engine.QueryID {
		q, err := diffTreeQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		id, err := e.Register(q, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	relabel := func(n tree.NodeID, l tree.Label) *engine.MultiSnapshot {
		m, _, err := e.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: n, Label: l}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var c *deltaConsumer
	var id engine.QueryID
	subscribe := func() {
		ch, err := e.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		c = newDeltaConsumer(t, ch)
	}
	drained := func() int64 { return e.Stats().KeyedDiffAnswers }
	// publish runs one publication and checks the replayed set and the
	// number of answers the keyed diff enumerated for it.
	publish := func(what string, do func() *engine.MultiSnapshot, wantDrained func(ps, ns *engine.Snapshot) int) {
		t.Helper()
		before := drained()
		ps := e.Snapshot().Query(id)
		m := do()
		ns := m.Query(id)
		c.advance(t, m.Version())
		if want := resultKeys(ns.Results()); !slices.Equal(c.keys(), want) {
			t.Fatalf("%s: delta replay diverges\nreplayed: %v\nfull:     %v", what, c.keys(), want)
		}
		if got, want := drained()-before, int64(wantDrained(ps, ns)); got != want {
			t.Fatalf("%s: the keyed diff enumerated %d answers, want %d", what, got, want)
		}
	}
	none := func(_, _ *engine.Snapshot) int { return 0 }
	both := func(ps, ns *engine.Snapshot) int { return ps.Count() + ns.Count() }
	newOnly := func(_, ns *engine.Snapshot) int { return ns.Count() }

	id = register("path://a//b")
	relabel(2, "b") // edits before any subscription leave no record
	relabel(7, "b")
	subscribe()
	var other engine.QueryID
	publish("registration before any record", func() *engine.MultiSnapshot {
		other = register("select:c")
		return e.Snapshot()
	}, none)
	publish("first edit after subscribing", func() *engine.MultiSnapshot { return relabel(1, "c") }, both)
	publish("second edit", func() *engine.MultiSnapshot { return relabel(2, "c") }, newOnly)
	publish("unregistration carrying the record", func() *engine.MultiSnapshot {
		if err := e.Unregister(other); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot()
	}, none)
	publish("edit after the carried record", func() *engine.MultiSnapshot { return relabel(9, "a") }, newOnly)

	if err := e.Unregister(id); err != nil {
		t.Fatal(err)
	}
	id = register("path://a//b")
	subscribe()
	publish("first edit after re-registering", func() *engine.MultiSnapshot { return relabel(1, "b") }, both)
	// Node 9 is an a leaf: as a c leaf it has the same box, so the
	// repair reuses the whole trunk and the diff short-circuits.
	publish("fully reused edit", func() *engine.MultiSnapshot { return relabel(9, "c") }, none)
	publish("edit after a fully reused one", func() *engine.MultiSnapshot { return relabel(12, "c") }, newOnly)
}

// TestDeltaReplayModeNaive runs the co-descent differ over the naive
// box enumeration (enumerate.NewDiffer(ModeNaive)) on the engine's own
// published roots through the same structural replay: after every
// batch its diff must be exactly the set difference of the two
// snapshots' answers.
func TestDeltaReplayModeNaive(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		s := randomDiffScript(rng, "select:b", false, true)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) {
			differ := enumerate.NewDiffer(enumerate.ModeNaive)
			var prev *engine.Snapshot
			forEachScriptSnapshot(t, s, func(step int, snap *engine.Snapshot) {
				if prev != nil {
					_, og, oe := prev.Accepting()
					_, ng, ne := snap.Accepting()
					added, removed := differ.Diff(prev.Root(), og, oe, snap.Root(), ng, ne)
					old, cur := keySet(prev.All()), keySet(snap.All())
					if got, want := assignmentKeys(added), setMinus(cur, old); !slices.Equal(got, want) {
						t.Fatalf("step %d: added %v, want %v\nscript:\n%s", step, got, want, s)
					}
					if got, want := assignmentKeys(removed), setMinus(old, cur); !slices.Equal(got, want) {
						t.Fatalf("step %d: removed %v, want %v\nscript:\n%s", step, got, want, s)
					}
				}
				prev = snap
			})
		})
	}
}

// keySet projects answers to the set of their keys.
func keySet(as []tree.Assignment) map[string]bool {
	out := make(map[string]bool, len(as))
	for _, a := range as {
		out[a.Key()] = true
	}
	return out
}

// setMinus returns the keys of a not in b, sorted (the differ's order).
func setMinus(a, b map[string]bool) []string {
	out := []string{}
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// selectBSet parses the tree and registers the select:b script query as
// its one standing query.
func selectBSet(t *testing.T, tr string) (*engine.TreeSet, engine.QueryID) {
	t.Helper()
	ut, err := tree.ParseUnranked(tr)
	if err != nil {
		t.Fatal(err)
	}
	q, err := diffTreeQuery("select:b")
	if err != nil {
		t.Fatal(err)
	}
	return newTreeQuery(t, ut, q, engine.Options{})
}

// TestDeltaCoalescing starves the consumer while many batches publish:
// the pending delta must coalesce (Coalesced set), the composed fold
// must still land exactly on the final answer set, and with a tiny
// resync limit the composition must degrade to a snapshot resync.
func TestDeltaCoalescing(t *testing.T) {
	build := func(t *testing.T) (*engine.TreeSet, engine.QueryID, <-chan engine.Delta) {
		e, id := selectBSet(t, "(a (b) (c) (b) (c) (b) (c))")
		ch, err := e.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		return e, id, ch
	}
	churn := func(t *testing.T, e *engine.TreeSet, id engine.QueryID) *engine.Snapshot {
		// Far more publications than channel capacity + pending slot can
		// hold without the consumer draining: coalescing must engage.
		var last *engine.Snapshot
		for i := 0; i < 64; i++ {
			l := tree.Label("b")
			if i%2 == 1 {
				l = "c"
			}
			m, _, err := e.ApplyBatch([]engine.Update{
				{Op: engine.OpRelabel, Node: 1, Label: l},
				{Op: engine.OpRelabel, Node: 3, Label: l},
			})
			if err != nil {
				t.Fatal(err)
			}
			last = m.Query(id)
		}
		return last
	}
	t.Run("coalesce", func(t *testing.T) {
		e, id, ch := build(t)
		last := churn(t, e, id)
		c := newDeltaConsumer(t, ch)
		c.advance(t, last.Version())
		if c.coalesced == 0 {
			t.Fatal("64 undrained publications never coalesced")
		}
		if want := resultKeys(last.Results()); !slices.Equal(c.keys(), want) {
			t.Fatalf("coalesced replay diverges\nreplayed: %v\nfull: %v", c.keys(), want)
		}
		if st := e.Stats(); st.DeltasCoalesced == 0 {
			t.Fatalf("Stats().DeltasCoalesced = 0 after coalescing run: %+v", st)
		}
	})
	t.Run("resync", func(t *testing.T) {
		e, id, ch := build(t)
		e.SetDeltaResyncLimit(1)
		ch2, err := e.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		last := churn(t, e, id)
		for _, watch := range []<-chan engine.Delta{ch, ch2} {
			c := newDeltaConsumer(t, watch)
			c.advance(t, last.Version())
			if want := resultKeys(last.Results()); !slices.Equal(c.keys(), want) {
				t.Fatalf("replay diverges\nreplayed: %v\nfull: %v", c.keys(), want)
			}
		}
	})
}

// TestDeltaResyncEngages: with resync limit 1, any coalesced composition
// with ≥2 changed answers must arrive as a Resync delta.
func TestDeltaResyncEngages(t *testing.T) {
	e, id := selectBSet(t, "(a (b) (c) (b) (c))")
	e.SetDeltaResyncLimit(1)
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	// Consume the seed resync FIRST, then starve: otherwise every
	// publication merges into the still-pending seed and the overflow
	// path never runs.
	c := newDeltaConsumer(t, ch)
	var last *engine.Snapshot
	for i := 0; i < 64; i++ {
		l := tree.Label("b")
		if i%2 == 1 {
			l = "c"
		}
		m, _, err := e.ApplyBatch([]engine.Update{
			{Op: engine.OpRelabel, Node: 1, Label: l},
			{Op: engine.OpRelabel, Node: 3, Label: l},
		})
		if err != nil {
			t.Fatal(err)
		}
		last = m.Query(id)
	}
	c.advance(t, last.Version())
	if c.resyncs < 2 { // the seed resync plus at least one overflow
		t.Fatalf("starved subscription with limit 1 never resynced (resyncs=%d, coalesced=%d)",
			c.resyncs, c.coalesced)
	}
	if want := resultKeys(last.Results()); !slices.Equal(c.keys(), want) {
		t.Fatalf("resync replay diverges\nreplayed: %v\nfull: %v", c.keys(), want)
	}
}

// TestDeltaUnregisterCloses: unregistering the query closes every
// subscriber channel.
func TestDeltaUnregisterCloses(t *testing.T) {
	e, id := selectBSet(t, "(a (b))")
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister(id); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(deltaRecvTimeout)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed, as required
			}
		case <-deadline:
			t.Fatal("channel not closed after Unregister")
		}
	}
}

// TestDeltaStats: a subscribed engine surfaces the delta counters.
func TestDeltaStats(t *testing.T) {
	e, id := selectBSet(t, "(a (b) (c))")
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := e.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: 2, Label: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	c := newDeltaConsumer(t, ch)
	c.advance(t, m.Version())
	st := e.Stats()
	if st.DeltasEmitted == 0 {
		t.Fatalf("DeltasEmitted = 0 after a subscribed publication: %+v", st)
	}
	if st.AnswersAdded != 1 || st.AnswersRemoved != 0 {
		t.Fatalf("AnswersAdded/Removed = %d/%d, want 1/0", st.AnswersAdded, st.AnswersRemoved)
	}
	if st.KeyedDiffs != 0 || st.KeyedDiffAnswers != 0 {
		t.Fatalf("KeyedDiffs/KeyedDiffAnswers = %d/%d on an unambiguous query, want 0/0", st.KeyedDiffs, st.KeyedDiffAnswers)
	}
}

// TestDeltaStatsKeyedDiff: on a subscribed ambiguous query the first
// publication drains both versions, every later one only the new
// version, whose answer count it leaves on the snapshot: Count reads it
// without enumerating.
func TestDeltaStatsKeyedDiff(t *testing.T) {
	ut, err := tree.ParseUnranked("(a (b) (c) (a (b) (c)) (b))")
	if err != nil {
		t.Fatal(err)
	}
	q, err := diffTreeQuery("path://a//b")
	if err != nil {
		t.Fatal(err)
	}
	e, id := newTreeQuery(t, ut, q, engine.Options{})
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	c := newDeltaConsumer(t, ch)
	prev := e.Snapshot().Query(id).Count()
	var wantAnswers int64
	for i, l := range []tree.Label{"b", "c", "b"} {
		m, _, err := e.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: 2, Label: l}})
		if err != nil {
			t.Fatal(err)
		}
		c.advance(t, m.Version())
		ns := m.Query(id)
		enumerated := e.Stats().AnswersEnumerated
		n := ns.Count()
		if got := e.Stats().AnswersEnumerated; got != enumerated {
			t.Fatalf("publication %d: Count enumerated %d answers the keyed diff already counted", i, got-enumerated)
		}
		if want := len(ns.All()); n != want {
			t.Fatalf("publication %d: Count = %d, want %d", i, n, want)
		}
		if wantAnswers += int64(n); i == 0 {
			wantAnswers += int64(prev)
		}
		st := e.Stats()
		if st.KeyedDiffs != int64(i+1) || st.KeyedDiffAnswers != wantAnswers {
			t.Fatalf("publication %d: KeyedDiffs/KeyedDiffAnswers = %d/%d, want %d/%d",
				i, st.KeyedDiffs, st.KeyedDiffAnswers, i+1, wantAnswers)
		}
	}
}
