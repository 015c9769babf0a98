package engine_test

import (
	"fmt"
	"iter"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/mso"
	"repro/internal/paths"
	"repro/internal/spanner"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file is the differential oracle of the direct-access subsystem:
// edit scripts — the seeded corpus under testdata/differential plus
// freshly drawn random ones — run through the snapshot engine
// (TreeSet/WordSet) while an independent rebuild-from-scratch oracle
// replays the same edits, and after every batch the engine's Results,
// Count, and At(j) are checked against it. Scripts are plain text so a
// failing random script can be pasted into the corpus verbatim (the
// test prints it in corpus format on failure).
//
// Script format, one directive per line ('#' comments):
//
//	tree (a (b) (a (b)))          // or:  word a b a b
//	query select:b                // select:<l> | ancestor | childpair |
//	                              // path:<expr> | span (words)
//	batch relabel 0 b; insert 1 a // tree ops: relabel/insert/insertR/delete
//	batch insertA 0 b; delete 2   // word ops: relabel/insertA/insertB/delete
//	batch deleteSub 3             // structural tree ops: deleteSub <id>,
//	batch moveSub 2 5             //   moveSub/moveSubR <id> <dest>,
//	batch insertSub 1 (a (b))     //   insertSub/insertSubR <id> <sexpr>
//	batch moveRange 1 2 3         // word range ops: moveRange <from> <k> <to>,
//	batch insertRange 0 a b       //   insertRange <pos> <labels...>,
//	batch deleteRange 2 2         //   deleteRange <from> <k>, concat <labels...>
//
// After every batch the maintained term's height budget is re-verified
// on every node (Engine.CheckBalanceDeep), so the corpus doubles as the
// balance-invariant oracle for structural edits.

// resultKeys drains an enumeration into sorted assignment keys.
func resultKeys(rs iter.Seq[tree.Assignment]) []string {
	var out []string
	for a := range rs {
		out = append(out, a.Key())
	}
	slices.Sort(out)
	return out
}

// diffScript is one parsed differential script.
type diffScript struct {
	isWord  bool
	tree    string
	letters []tree.Label
	query   string
	batches [][]string // raw edit strings per batch
}

func (s *diffScript) String() string {
	var b strings.Builder
	if s.isWord {
		parts := make([]string, len(s.letters))
		for i, l := range s.letters {
			parts[i] = string(l)
		}
		fmt.Fprintf(&b, "word %s\n", strings.Join(parts, " "))
	} else {
		fmt.Fprintf(&b, "tree %s\n", s.tree)
	}
	fmt.Fprintf(&b, "query %s\n", s.query)
	for _, batch := range s.batches {
		fmt.Fprintf(&b, "batch %s\n", strings.Join(batch, "; "))
	}
	return b.String()
}

func parseDiffScript(text string) (*diffScript, error) {
	s := &diffScript{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		directive, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch directive {
		case "tree":
			s.tree = rest
		case "word":
			s.isWord = true
			for _, f := range strings.Fields(rest) {
				s.letters = append(s.letters, tree.Label(f))
			}
		case "query":
			s.query = rest
		case "batch":
			var batch []string
			for _, ed := range strings.Split(rest, ";") {
				if ed = strings.TrimSpace(ed); ed != "" {
					batch = append(batch, ed)
				}
			}
			s.batches = append(s.batches, batch)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", ln+1, directive)
		}
	}
	if (s.tree == "") == (len(s.letters) == 0) {
		return nil, fmt.Errorf("script needs exactly one of tree/word")
	}
	if s.query == "" {
		return nil, fmt.Errorf("script needs a query")
	}
	return s, nil
}

// parseDiffEdit turns one edit directive into an Update: leaf ops
// ("relabel 3 b", word insertA/insertB), structural tree ops
// (deleteSub/moveSub/moveSubR/insertSub/insertSubR) and word range ops
// (moveRange/insertRange/deleteRange/concat, positional).
func parseDiffEdit(ed string) (engine.Update, error) {
	f := strings.Fields(ed)
	if len(f) < 2 {
		return engine.Update{}, fmt.Errorf("malformed edit %q", ed)
	}
	ints := func(args ...string) ([]int, error) {
		out := make([]int, len(args))
		for i, a := range args {
			v, err := strconv.Atoi(a)
			if err != nil {
				return nil, fmt.Errorf("edit %q: %w", ed, err)
			}
			out[i] = v
		}
		return out, nil
	}
	labels := func(args []string) []tree.Label {
		out := make([]tree.Label, len(args))
		for i, a := range args {
			out[i] = tree.Label(a)
		}
		return out
	}
	// Word range ops take positions, not node IDs.
	switch f[0] {
	case "moveRange":
		if len(f) != 4 {
			return engine.Update{}, fmt.Errorf("edit %q needs from k to", ed)
		}
		v, err := ints(f[1], f[2], f[3])
		if err != nil {
			return engine.Update{}, err
		}
		return engine.Update{Op: engine.OpMoveRange, From: v[0], K: v[1], To: v[2]}, nil
	case "insertRange":
		if len(f) < 3 {
			return engine.Update{}, fmt.Errorf("edit %q needs pos labels", ed)
		}
		v, err := ints(f[1])
		if err != nil {
			return engine.Update{}, err
		}
		return engine.Update{Op: engine.OpInsertRange, From: v[0], Labels: labels(f[2:])}, nil
	case "deleteRange":
		if len(f) != 3 {
			return engine.Update{}, fmt.Errorf("edit %q needs from k", ed)
		}
		v, err := ints(f[1], f[2])
		if err != nil {
			return engine.Update{}, err
		}
		return engine.Update{Op: engine.OpDeleteRange, From: v[0], K: v[1]}, nil
	case "concat":
		return engine.Update{Op: engine.OpConcat, Labels: labels(f[1:])}, nil
	}
	id, err := strconv.Atoi(f[1])
	if err != nil {
		return engine.Update{}, err
	}
	u := engine.Update{Node: tree.NodeID(id)}
	switch f[0] {
	case "deleteSub":
		u.Op = engine.OpDeleteSubtree
		return u, nil
	case "moveSub", "moveSubR":
		if len(f) != 3 {
			return engine.Update{}, fmt.Errorf("edit %q needs id dest", ed)
		}
		v, err := ints(f[2])
		if err != nil {
			return engine.Update{}, err
		}
		u.Op = engine.OpMoveSubtreeFirstChild
		if f[0] == "moveSubR" {
			u.Op = engine.OpMoveSubtreeRightSibling
		}
		u.Dest = tree.NodeID(v[0])
		return u, nil
	case "insertSub", "insertSubR":
		frag, err := tree.ParseUnranked(strings.Join(f[2:], " "))
		if err != nil {
			return engine.Update{}, fmt.Errorf("edit %q fragment: %w", ed, err)
		}
		u.Op = engine.OpInsertSubtreeFirstChild
		if f[0] == "insertSubR" {
			u.Op = engine.OpInsertSubtreeRightSibling
		}
		u.Fragment = frag
		return u, nil
	}
	ops := map[string]engine.UpdateOp{
		"relabel": engine.OpRelabel, "insert": engine.OpInsertFirstChild, "insertR": engine.OpInsertRightSibling,
		"insertA": engine.OpInsertAfter, "insertB": engine.OpInsertBefore, "delete": engine.OpDelete,
	}
	op, ok := ops[f[0]]
	if !ok {
		return engine.Update{}, fmt.Errorf("unknown edit op %q", f[0])
	}
	u.Op = op
	if op != engine.OpDelete {
		if len(f) != 3 {
			return engine.Update{}, fmt.Errorf("edit %q needs a label", ed)
		}
		u.Label = tree.Label(f[2])
	}
	return u, nil
}

func diffTreeQuery(spec string) (*tva.Unranked, error) {
	alpha := []tree.Label{"a", "b", "c"}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "select":
		return tva.SelectLabel(alpha, tree.Label(arg), 0), nil
	case "ancestor":
		return tva.MarkedAncestor("a", "b", "c", 0), nil
	case "childpair":
		return mso.CompileFO(mso.Child{X: 0, Y: 1}, alpha, 0, 1)
	case "path":
		return paths.MustCompile(arg, alpha, 0), nil
	case "random2": // a seeded random automaton over two variables
		seed, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, err
		}
		return tva.RandomUnranked(rand.New(rand.NewSource(seed)), 3, alpha, tree.NewVarSet(0, 1), 0.3), nil
	}
	return nil, fmt.Errorf("unknown tree query %q", spec)
}

func diffWordQuery(spec string) (*tva.WVA, error) {
	if spec != "span" {
		return nil, fmt.Errorf("unknown word query %q", spec)
	}
	return spanner.CompileWVA(
		spanner.Contains(spanner.Cat(
			spanner.Lit{Label: "a"},
			spanner.Capture{Var: 0, Inner: spanner.Plus{Inner: spanner.Lit{Label: "b"}}})),
		[]tree.Label{"a", "b", "c"})
}

// newTreeQuery registers q as the one standing query of a fresh
// TreeSet: the single-query shape the differential suites drive.
func newTreeQuery(t testing.TB, ut *tree.Unranked, q *tva.Unranked, opts engine.Options) (*engine.TreeSet, engine.QueryID) {
	t.Helper()
	s := engine.NewTreeSet(ut)
	id, err := s.Register(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// newWordQuery registers q as the one standing query of a fresh WordSet.
func newWordQuery(t testing.TB, letters []tree.Label, q *tva.WVA, opts engine.Options) (*engine.WordSet, engine.QueryID) {
	t.Helper()
	s, err := engine.NewWordSet(letters)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Register(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// runDiffScript replays one script and fails the test on any divergence
// between the engine and the rebuild oracle, or between At(j) and the
// engine's own enumeration order.
func runDiffScript(t *testing.T, s *diffScript) {
	t.Helper()
	if s.isWord {
		runDiffWord(t, s)
		return
	}
	q, err := diffTreeQuery(s.query)
	if err != nil {
		t.Fatalf("script query: %v\nscript:\n%s", err, s)
	}
	ut, err := tree.ParseUnranked(s.tree)
	if err != nil {
		t.Fatalf("script tree: %v\nscript:\n%s", err, s)
	}
	oracle, err := baseline.NewRebuildEnumerator(ut.Clone(), q, engine.Options{})
	if err != nil {
		t.Fatalf("oracle: %v\nscript:\n%s", err, s)
	}
	e, id := newTreeQuery(t, ut, q, engine.Options{})
	checkAgainstOracle(t, s, 0, e.Snapshot().Query(id), resultKeys(oracle.Results()))
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
		if err := e.CheckBalanceDeep(); err != nil {
			t.Fatalf("batch %d: height budget violated: %v\nscript:\n%s", bi, err, s)
		}
		for _, u := range batch {
			if _, err := oracle.Apply(u); err != nil {
				t.Fatalf("oracle batch %d: %v\nscript:\n%s", bi, err, s)
			}
		}
		checkAgainstOracle(t, s, bi+1, m.Query(id), resultKeys(oracle.Results()))
	}
}

// checkAgainstOracle deep-validates one snapshot (Snapshot.Validate),
// compares it with the oracle's sorted result keys and checks At(j)
// self-consistency on every rank.
func checkAgainstOracle(t *testing.T, s *diffScript, step int, snap *engine.Snapshot, want []string) {
	t.Helper()
	if err := snap.Validate(); err != nil {
		t.Fatalf("step %d: frozen snapshot invalid: %v\nscript:\n%s", step, err, s)
	}
	var drained []tree.Assignment
	for a := range snap.Results() {
		drained = append(drained, a)
	}
	got := make([]string, len(drained))
	for i, a := range drained {
		got[i] = a.Key()
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: results diverge\nengine: %v\noracle: %v\nscript:\n%s", step, got, want, s)
	}
	if c := snap.Count(); c != len(want) {
		t.Fatalf("step %d: Count = %d, oracle %d (direct=%v)\nscript:\n%s",
			step, c, len(want), snap.DirectAccess(), s)
	}
	for j := range drained {
		a, err := snap.At(j)
		if err != nil {
			t.Fatalf("step %d: At(%d): %v\nscript:\n%s", step, j, err, s)
		}
		if a.Key() != drained[j].Key() {
			t.Fatalf("step %d: At(%d) = %v, Results[%d] = %v\nscript:\n%s",
				step, j, a, j, drained[j], s)
		}
	}
	if _, err := snap.At(len(drained)); err == nil {
		t.Fatalf("step %d: At past end succeeded\nscript:\n%s", step, s)
	}
	// Page windows must agree with the enumeration order, including a
	// window running past the end (short page, never an error).
	n := len(drained)
	for _, win := range [][2]int{{0, n + 1}, {n / 3, 2}, {n, 3}} {
		off, lim := win[0], win[1]
		if lim <= 0 {
			continue
		}
		page := snap.Page(off, lim)
		end := min(off+lim, n)
		if len(page) != end-off {
			t.Fatalf("step %d: Page(%d,%d) returned %d answers, want %d\nscript:\n%s",
				step, off, lim, len(page), end-off, s)
		}
		for i, a := range page {
			if a.Key() != drained[off+i].Key() {
				t.Fatalf("step %d: Page(%d,%d)[%d] = %v, Results[%d] = %v\nscript:\n%s",
					step, off, lim, i, a, off+i, drained[off+i], s)
			}
		}
	}
}

func runDiffWord(t *testing.T, s *diffScript) {
	t.Helper()
	q, err := diffWordQuery(s.query)
	if err != nil {
		t.Fatalf("script query: %v\nscript:\n%s", err, s)
	}
	e, id := newWordQuery(t, s.letters, q, engine.Options{})
	// The rebuilt oracle numbers letters positionally while the engine
	// keeps stable letter IDs: map the oracle's positions onto the
	// engine's current IDs before comparing.
	oracleKeys := func() []string {
		ids, labels := e.Word()
		o, oid := newWordQuery(t, labels, q, engine.Options{})
		var keys []string
		for a := range o.Snapshot().Query(oid).Results() {
			mapped := make(tree.Assignment, len(a))
			for i, sg := range a {
				mapped[i] = tree.Singleton{Var: sg.Var, Node: ids[sg.Node]}
			}
			keys = append(keys, mapped.Normalize().Key())
		}
		slices.Sort(keys)
		return keys
	}
	checkAgainstOracle(t, s, 0, e.Snapshot().Query(id), oracleKeys())
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
		if err := e.CheckBalanceDeep(); err != nil {
			t.Fatalf("batch %d: height budget violated: %v\nscript:\n%s", bi, err, s)
		}
		checkAgainstOracle(t, s, bi+1, m.Query(id), oracleKeys())
	}
}

// TestDifferentialOracleCorpus replays the committed seed corpus: the
// smoke half of the oracle, fast enough for every CI run.
func TestDifferentialOracleCorpus(t *testing.T) {
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
			runDiffScript(t, s)
		})
	}
}

// TestDifferentialOracleRandom draws random edit scripts — trees and
// words, all query kinds including the ambiguous path query — and runs
// them through the oracle. A failure prints the script in corpus
// format, ready to be committed under testdata/differential.
func TestDifferentialOracleRandom(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, false)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) { runDiffScript(t, s) })
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		s := randomDiffScript(rng, "span", true, false)
		t.Run(fmt.Sprintf("word%d", seed), func(t *testing.T) { runDiffScript(t, s) })
	}
}

// TestDifferentialOracleStructural is the structural half of the random
// oracle: weighted scripts where roughly half the edits are subtree
// grafts, moves and deletes (trees) or range moves, inserts, deletes and
// concats (words), against ambiguous and unambiguous automata. The
// height budget is invariant-checked after every batch (runDiffScript).
func TestDifferentialOracleStructural(t *testing.T) {
	queries := []string{"select:b", "ancestor", "childpair", "path://a//b"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		s := randomDiffScript(rng, queries[seed%int64(len(queries))], false, true)
		t.Run(fmt.Sprintf("tree%d", seed), func(t *testing.T) { runDiffScript(t, s) })
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		s := randomDiffScript(rng, "span", true, true)
		t.Run(fmt.Sprintf("word%d", seed), func(t *testing.T) { runDiffScript(t, s) })
	}
}

// randomDiffScript builds a random script by simulating the document so
// every generated edit is valid when replayed. With structural set, the
// draw is weighted half-and-half between leaf and structural edits —
// the fix for the old relabel-dominated scripts, which structurally
// exercised nothing but single-leaf splices.
func randomDiffScript(rng *rand.Rand, query string, isWord, structural bool) *diffScript {
	labels := []string{"a", "b", "c"}
	pick := func() string { return labels[rng.Intn(len(labels))] }
	kinds := 4
	if structural {
		kinds = 8
	}
	s := &diffScript{isWord: isWord, query: query}
	if isWord {
		n := 5 + rng.Intn(10)
		sim := make([]int, n) // letter IDs
		for i := range sim {
			s.letters = append(s.letters, tree.Label(pick()))
			sim[i] = i
		}
		next := n
		for b := 0; b < 6; b++ {
			var batch []string
			for k := 0; k < 1+rng.Intn(3); k++ {
				i := rng.Intn(len(sim))
				id := sim[i]
				switch rng.Intn(kinds) {
				case 0:
					batch = append(batch, fmt.Sprintf("relabel %d %s", id, pick()))
				case 1:
					batch = append(batch, fmt.Sprintf("insertA %d %s", id, pick()))
					sim = append(sim[:i+1], append([]int{next}, sim[i+1:]...)...)
					next++
				case 2:
					batch = append(batch, fmt.Sprintf("insertB %d %s", id, pick()))
					sim = append(sim[:i], append([]int{next}, sim[i:]...)...)
					next++
				case 3:
					if len(sim) > 1 {
						batch = append(batch, fmt.Sprintf("delete %d", id))
						sim = append(sim[:i], sim[i+1:]...)
					}
				case 4: // moveRange
					from := rng.Intn(len(sim))
					k := 1 + rng.Intn(len(sim)-from)
					rest := len(sim) - k
					to := rng.Intn(rest+1) - 1
					batch = append(batch, fmt.Sprintf("moveRange %d %d %d", from, k, to))
					block := slices.Clone(sim[from : from+k])
					remain := append(slices.Clone(sim[:from]), sim[from+k:]...)
					sim = slices.Concat(remain[:to+1], block, remain[to+1:])
				case 5: // insertRange
					pos := rng.Intn(len(sim) + 1)
					m := 1 + rng.Intn(3)
					parts := make([]string, m)
					fresh := make([]int, m)
					for j := 0; j < m; j++ {
						parts[j] = pick()
						fresh[j] = next
						next++
					}
					batch = append(batch, fmt.Sprintf("insertRange %d %s", pos, strings.Join(parts, " ")))
					sim = slices.Concat(sim[:pos:pos], fresh, sim[pos:])
				case 6: // deleteRange (word must stay nonempty)
					if len(sim) < 2 {
						continue
					}
					from := rng.Intn(len(sim) - 1)
					k := 1 + rng.Intn(min(len(sim)-from, len(sim)-1))
					batch = append(batch, fmt.Sprintf("deleteRange %d %d", from, k))
					sim = slices.Concat(sim[:from:from], sim[from+k:])
				default: // concat
					m := 1 + rng.Intn(3)
					parts := make([]string, m)
					for j := 0; j < m; j++ {
						parts[j] = pick()
						sim = append(sim, next)
						next++
					}
					batch = append(batch, "concat "+strings.Join(parts, " "))
				}
			}
			if len(batch) > 0 {
				s.batches = append(s.batches, batch)
			}
		}
		return s
	}
	// Serialize and reparse so the simulated node IDs match the IDs the
	// replay will assign (ParseUnranked numbers nodes in preorder).
	s.tree = tva.RandomUnrankedTree(rng, 6+rng.Intn(12), []tree.Label{"a", "b", "c"}).String()
	ut, err := tree.ParseUnranked(s.tree)
	if err != nil {
		panic(err)
	}
	for b := 0; b < 6; b++ {
		var batch []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			nodes := ut.Nodes()
			nd := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(kinds) {
			case 0:
				l := pick()
				batch = append(batch, fmt.Sprintf("relabel %d %s", nd.ID, l))
				if err := ut.Relabel(nd.ID, tree.Label(l)); err != nil {
					panic(err)
				}
			case 1:
				l := pick()
				batch = append(batch, fmt.Sprintf("insert %d %s", nd.ID, l))
				if _, err := ut.InsertFirstChild(nd.ID, tree.Label(l)); err != nil {
					panic(err)
				}
			case 2:
				if nd.Parent != nil {
					l := pick()
					batch = append(batch, fmt.Sprintf("insertR %d %s", nd.ID, l))
					if _, err := ut.InsertRightSibling(nd.ID, tree.Label(l)); err != nil {
						panic(err)
					}
				}
			case 3:
				if nd.IsLeaf() && nd.Parent != nil {
					batch = append(batch, fmt.Sprintf("delete %d", nd.ID))
					if err := ut.Delete(nd.ID); err != nil {
						panic(err)
					}
				}
			case 4: // deleteSub (keep at least half the tree)
				if nd.Parent != nil && ut.SubtreeSize(nd.ID) <= ut.Size()/2 {
					batch = append(batch, fmt.Sprintf("deleteSub %d", nd.ID))
					if _, _, err := ut.DeleteSubtree(nd.ID); err != nil {
						panic(err)
					}
				}
			case 5: // moveSub / moveSubR
				dest := nodes[rng.Intn(len(nodes))]
				if nd.Parent == nil || ut.InSubtree(nd.ID, dest.ID) {
					continue
				}
				if rng.Intn(2) == 0 || dest.Parent == nil {
					batch = append(batch, fmt.Sprintf("moveSub %d %d", nd.ID, dest.ID))
					if err := ut.MoveSubtreeFirstChild(nd.ID, dest.ID); err != nil {
						panic(err)
					}
				} else {
					batch = append(batch, fmt.Sprintf("moveSubR %d %d", nd.ID, dest.ID))
					if err := ut.MoveSubtreeRightSibling(nd.ID, dest.ID); err != nil {
						panic(err)
					}
				}
			default: // insertSub / insertSubR
				frag := tva.RandomUnrankedTree(rng, 1+rng.Intn(4), []tree.Label{"a", "b", "c"})
				fs := frag.String()
				parsed, err := tree.ParseUnranked(fs)
				if err != nil {
					panic(err)
				}
				if rng.Intn(2) == 0 || nd.Parent == nil {
					batch = append(batch, fmt.Sprintf("insertSub %d %s", nd.ID, fs))
					if _, err := ut.GraftFirstChild(nd.ID, parsed); err != nil {
						panic(err)
					}
				} else {
					batch = append(batch, fmt.Sprintf("insertSubR %d %s", nd.ID, fs))
					if _, err := ut.GraftRightSibling(nd.ID, parsed); err != nil {
						panic(err)
					}
				}
			}
		}
		if len(batch) > 0 {
			s.batches = append(s.batches, batch)
		}
	}
	return s
}
