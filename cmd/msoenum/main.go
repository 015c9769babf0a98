// Command msoenum evaluates one or more queries on a tree from the
// command line, optionally replaying a stream of edits, re-enumerating
// after each. It runs on the multi-query snapshot engine: all queries
// stand on ONE maintained structure, every edit publishes ONE
// MultiSnapshot covering them all, and the results are read from it.
//
// Usage:
//
//	msoenum -tree '(a (b) (a (b)))' -query select:b
//	msoenum -tree '(u (u (u)))' -query ancestor:m:u:s \
//	        -edits 'relabel 0 m; relabel 2 s'
//	msoenum -tree '(a (b))' -query select:b -batch \
//	        -edits 'insert 0 b; relabel 1 a'
//	msoenum -tree '(a (b) (c))' -query select:b -query select:c \
//	        -edits 'relabel 2 b'       # two standing queries, shared trunk
//
// Repeating an identical query spec engages the multi-query optimizer:
// content-equal queries are deduped onto one refcounted pipeline, and a
// one-line "shared pipeline" note reports how many registrations were
// served without building (repair cost per edit scales with pipelines,
// not with registered queries).
//
// Queries (-query is repeatable; each one becomes a standing query):
//
//	select:<label>              X0 selects a node with the label
//	ancestor:<m>:<u>:<s>        special s-nodes with an m-labeled proper
//	                            ancestor over alphabet {m,u,s} (Thm 9.2)
//	descdepth:<witness>:<k>     nodes with a witness-descendant at depth k
//	figure:<fig>:<cap>          fig-nodes with no cap child (MSO-compiled)
//
// Edits (semicolon-separated):
//
//	relabel <id> <label>
//	insert <id> <label>      (first child)
//	insertR <id> <label>     (right sibling)
//	delete <id>
//
// Structural edits splice whole subtrees in O(log n + boundary),
// preserving the node IDs of moved subtrees:
//
//	deleteSub <id>              delete the whole subtree of <id>
//	moveSub <id> <dest>         move it to be <dest>'s first child subtree
//	moveSubR <id> <dest>        move it to be <dest>'s right sibling
//	insertSub <id> <sexpr>      graft a fragment as <id>'s first child,
//	insertSubR <id> <sexpr>     ... or right sibling, e.g.
//	                            'insertSub 0 (a (b) (c))'
//
// With -batch the whole edit stream is applied as one QuerySet.ApplyBatch
// call: a single publication, with box and index repair amortized across
// the batch (and the term work shared across all standing queries), and
// one enumeration per query at the end.
//
// Direct access (no enumeration cost):
//
//	-count          print only the result count per query, read from the
//	                maintained counting semiring in O(poly|Q|) when the
//	                query is unambiguous (marked "direct")
//	-page OFF:LIM   print results OFF..OFF+LIM-1: one count-guided seek
//	                to OFF, then LIM enumeration steps — "page
//	                1000000:20" costs the same as "0:20" on
//	                direct-access queries
//
// Parallel enumeration:
//
//	-jobs N         drain full result sets with N workers (0 = all
//	                cores): the rank range [0, Count()) is cut into
//	                chunks, each served by one seek plus streaming, and
//	                streamed back in enumeration order via
//	                Snapshot.Chunks
//
// Answer-delta streaming:
//
//	-watch          with -edits: print the initial results once, then per
//	                edit (or per batch with -batch) only the CHANGE — one
//	                "+assignment" line per answer gained, one
//	                "-assignment" line per answer lost — read from the
//	                engine's Subscribe stream, which computes deltas on
//	                the write path in time proportional to the change,
//	                not the answer-set size
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	enumtrees "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msoenum:", err)
		os.Exit(1)
	}
}

// queryList collects repeated -query flags.
type queryList []string

func (q *queryList) String() string { return strings.Join(*q, ",") }

func (q *queryList) Set(s string) error {
	*q = append(*q, s)
	return nil
}

// standing is one registered query: its CLI spec and its ID in the set.
type standing struct {
	spec string
	id   enumtrees.QueryID
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("msoenum", flag.ContinueOnError)
	treeFlag := fs.String("tree", "", "tree as an S-expression, e.g. '(a (b))'")
	var queryFlags queryList
	fs.Var(&queryFlags, "query", "query spec (repeatable; see -help)")
	editsFlag := fs.String("edits", "", "semicolon-separated edit stream")
	batchFlag := fs.Bool("batch", false, "apply the edit stream as one batched update")
	maxPrint := fs.Int("max", 20, "maximum results to print per enumeration")
	statsFlag := fs.Bool("stats", false, "print structure statistics")
	countFlag := fs.Bool("count", false, "print only result counts (O(poly|Q|) for unambiguous queries)")
	pageFlag := fs.String("page", "", "print results OFF:LIM by direct access instead of the first -max")
	jobsFlag := fs.Int("jobs", 1, "workers for full-result drains (0 = all cores); order is preserved")
	watchFlag := fs.Bool("watch", false, "with -edits: stream per-edit answer deltas (+/- lines) instead of re-printing results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watchFlag && *editsFlag == "" {
		return fmt.Errorf("-watch needs -edits")
	}
	if *jobsFlag < 0 {
		return fmt.Errorf("-jobs wants N >= 0")
	}
	view := printView{count: *countFlag, pageOff: -1, max: *maxPrint, jobs: *jobsFlag}
	if *pageFlag != "" {
		offStr, limStr, ok := strings.Cut(*pageFlag, ":")
		off, errOff := strconv.Atoi(offStr)
		lim, errLim := strconv.Atoi(limStr)
		if !ok || errOff != nil || errLim != nil {
			return fmt.Errorf("-page wants OFF:LIM, got %q", *pageFlag)
		}
		if off < 0 || lim <= 0 {
			return fmt.Errorf("-page wants OFF >= 0 and LIM > 0")
		}
		view.pageOff, view.pageLim = off, lim
	}

	if *treeFlag == "" || len(queryFlags) == 0 {
		fs.Usage()
		return fmt.Errorf("-tree and at least one -query are required")
	}
	t, err := enumtrees.ParseTree(*treeFlag)
	if err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	alphabet := collectLabels(t)
	qs := enumtrees.NewQuerySet(t)
	queries := make([]standing, 0, len(queryFlags))
	for _, spec := range queryFlags {
		q, err := buildQuery(spec, alphabet)
		if err != nil {
			return fmt.Errorf("query %q: %w", spec, err)
		}
		id, err := qs.Register(q, enumtrees.Options{})
		if err != nil {
			return fmt.Errorf("preprocess %q: %w", spec, err)
		}
		queries = append(queries, standing{spec: spec, id: id})
	}
	// Content-equal queries are deduped onto one refcounted pipeline by
	// the multi-query optimizer; say so, since the repair cost the user
	// pays per edit scales with pipelines, not registered queries.
	if st := qs.Stats(); st.RegistrationsDeduped > 0 {
		fmt.Fprintf(w, "shared pipeline: %d of %d queries deduped onto %d pipeline(s)\n",
			st.RegistrationsDeduped, st.Queries, st.Pipelines)
	}
	printAll(w, qs.Snapshot(), queries, view)

	// -watch: one Subscribe stream per standing query. The first delta of
	// a subscription is the base-version resync; the base results were
	// just printed, so it is consumed and dropped here, and every
	// publication below prints only its +/- lines.
	var watchers []<-chan enumtrees.Delta
	if *watchFlag {
		for _, q := range queries {
			ch, err := qs.Subscribe(q.id)
			if err != nil {
				return fmt.Errorf("subscribe %q: %w", q.spec, err)
			}
			<-ch
			watchers = append(watchers, ch)
		}
	}

	if *editsFlag != "" {
		var edits []string
		for _, ed := range strings.Split(*editsFlag, ";") {
			if ed = strings.TrimSpace(ed); ed != "" {
				edits = append(edits, ed)
			}
		}
		if *batchFlag {
			batch := make([]enumtrees.Update, 0, len(edits))
			for _, ed := range edits {
				u, err := parseEdit(ed)
				if err != nil {
					return fmt.Errorf("edit %q: %w", ed, err)
				}
				batch = append(batch, u)
			}
			m, ids, err := qs.ApplyBatch(batch)
			if err != nil {
				return err
			}
			for _, id := range ids {
				if id != enumtrees.InvalidNode {
					fmt.Fprintf(w, "  (new node %d)\n", id)
				}
			}
			fmt.Fprintf(w, "\nafter batch of %d edits (snapshot v%d): %s\n", len(batch), m.Version(), t)
			if *watchFlag {
				printDeltas(w, m.Version(), queries, watchers)
			} else {
				printAll(w, m, queries, view)
			}
		} else {
			for _, ed := range edits {
				m, err := applyEdit(w, qs, ed)
				if err != nil {
					return fmt.Errorf("edit %q: %w", ed, err)
				}
				fmt.Fprintf(w, "\nafter %q: %s\n", ed, t)
				if *watchFlag {
					printDeltas(w, m.Version(), queries, watchers)
				} else {
					printAll(w, m, queries, view)
				}
			}
		}
	}
	if *statsFlag {
		m := qs.Snapshot()
		for _, q := range queries {
			if len(queries) == 1 {
				fmt.Fprintf(w, "\nstats: %+v\n", m.Query(q.id).Stats())
			} else {
				fmt.Fprintf(w, "\nstats [%s]: %+v\n", q.spec, m.Query(q.id).Stats())
			}
		}
	}
	return nil
}

func collectLabels(t *enumtrees.Tree) []enumtrees.Label {
	seen := map[enumtrees.Label]bool{}
	var out []enumtrees.Label
	for _, n := range t.Nodes() {
		if !seen[n.Label] {
			seen[n.Label] = true
			out = append(out, n.Label)
		}
	}
	return out
}

func buildQuery(spec string, alphabet []enumtrees.Label) (*enumtrees.TreeAutomaton, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "select":
		if len(parts) != 2 {
			return nil, fmt.Errorf("usage: select:<label>")
		}
		alphabet = withLabels(alphabet, enumtrees.Label(parts[1]))
		return enumtrees.SelectLabel(alphabet, enumtrees.Label(parts[1]), 0), nil
	case "ancestor":
		if len(parts) != 4 {
			return nil, fmt.Errorf("usage: ancestor:<marked>:<unmarked>:<special>")
		}
		return enumtrees.MarkedAncestor(
			enumtrees.Label(parts[1]), enumtrees.Label(parts[2]), enumtrees.Label(parts[3]), 0), nil
	case "descdepth":
		k := 0 // stays 0, and so fails below, when <k> is absent or not a number
		if len(parts) == 3 {
			k, _ = strconv.Atoi(parts[2])
		}
		alphabet = withLabels(alphabet, enumtrees.Label(parts[1]))
		q, err := enumtrees.DescendantAtDepth(alphabet, enumtrees.Label(parts[1]), k, 0)
		if err != nil {
			return nil, fmt.Errorf("usage: descdepth:<witness>:<k>, k >= 1 (%w)", err)
		}
		return q, nil
	case "figure":
		if len(parts) != 3 {
			return nil, fmt.Errorf("usage: figure:<fig>:<cap>")
		}
		alphabet = withLabels(alphabet, enumtrees.Label(parts[1]), enumtrees.Label(parts[2]))
		phi := enumtrees.Conj(
			enumtrees.HasLabel{X: 0, Label: enumtrees.Label(parts[1])},
			enumtrees.Not{F: enumtrees.Exists{X: 1, F: enumtrees.Conj(
				enumtrees.Sing{X: 1},
				enumtrees.HasLabel{X: 1, Label: enumtrees.Label(parts[2])},
				enumtrees.Child{X: 0, Y: 1},
			)}},
		)
		return enumtrees.CompileMSOFirstOrder(phi, alphabet, 0)
	default:
		return nil, fmt.Errorf("unknown query kind %q", parts[0])
	}
}

func withLabels(alphabet []enumtrees.Label, ls ...enumtrees.Label) []enumtrees.Label {
	seen := map[enumtrees.Label]bool{}
	for _, l := range alphabet {
		seen[l] = true
	}
	for _, l := range ls {
		if !seen[l] {
			seen[l] = true
			alphabet = append(alphabet, l)
		}
	}
	return alphabet
}

// parseEdit turns one textual edit into a batch update.
func parseEdit(ed string) (enumtrees.Update, error) {
	fields := strings.Fields(ed)
	if len(fields) < 2 {
		return enumtrees.Update{}, fmt.Errorf("malformed edit")
	}
	id64, err := strconv.Atoi(fields[1])
	if err != nil {
		return enumtrees.Update{}, err
	}
	u := enumtrees.Update{Node: enumtrees.NodeID(id64)}
	switch fields[0] {
	case "relabel", "insert", "insertR":
		if len(fields) != 3 {
			return enumtrees.Update{}, fmt.Errorf("usage: %s <id> <label>", fields[0])
		}
		u.Label = enumtrees.Label(fields[2])
		switch fields[0] {
		case "relabel":
			u.Op = enumtrees.OpRelabel
		case "insert":
			u.Op = enumtrees.OpInsertFirstChild
		default:
			u.Op = enumtrees.OpInsertRightSibling
		}
	case "delete":
		u.Op = enumtrees.OpDelete
	case "deleteSub":
		u.Op = enumtrees.OpDeleteSubtree
	case "moveSub", "moveSubR":
		if len(fields) != 3 {
			return enumtrees.Update{}, fmt.Errorf("usage: %s <id> <dest>", fields[0])
		}
		dest, err := strconv.Atoi(fields[2])
		if err != nil {
			return enumtrees.Update{}, err
		}
		u.Dest = enumtrees.NodeID(dest)
		u.Op = enumtrees.OpMoveSubtreeFirstChild
		if fields[0] == "moveSubR" {
			u.Op = enumtrees.OpMoveSubtreeRightSibling
		}
	case "insertSub", "insertSubR":
		frag, err := enumtrees.ParseTree(strings.Join(fields[2:], " "))
		if err != nil {
			return enumtrees.Update{}, fmt.Errorf("fragment: %w", err)
		}
		u.Fragment = frag
		u.Op = enumtrees.OpInsertSubtreeFirstChild
		if fields[0] == "insertSubR" {
			u.Op = enumtrees.OpInsertSubtreeRightSibling
		}
	default:
		return enumtrees.Update{}, fmt.Errorf("unknown edit %q", fields[0])
	}
	return u, nil
}

func applyEdit(w io.Writer, qs *enumtrees.QuerySet, ed string) (*enumtrees.MultiSnapshot, error) {
	u, err := parseEdit(ed)
	if err != nil {
		return nil, err
	}
	v, err := qs.Apply(u)
	if err != nil {
		return qs.Snapshot(), err
	}
	switch u.Op {
	case enumtrees.OpInsertFirstChild, enumtrees.OpInsertRightSibling:
		fmt.Fprintf(w, "  (new node %d)\n", v)
	case enumtrees.OpInsertSubtreeFirstChild, enumtrees.OpInsertSubtreeRightSibling:
		fmt.Fprintf(w, "  (new subtree %d)\n", v)
	}
	return qs.Snapshot(), nil
}

// printView selects what printResults shows: the default prefix of the
// enumeration, only the count (-count), or one direct-access page
// (-page OFF:LIM). jobs != 1 drains full results through the parallel
// rank-partitioned path (-jobs N).
type printView struct {
	count   bool
	pageOff int
	pageLim int
	max     int
	jobs    int
}

// printDeltas drains each query's Subscribe stream up to the just-
// published version and prints only the change: one "+assignment" line
// per answer gained, one "-assignment" line per answer lost (both
// sorted by key). A resync delta (possible if the terminal consumer
// ever fell far behind) prints the re-established result count instead.
func printDeltas(w io.Writer, target uint64, queries []standing, chans []<-chan enumtrees.Delta) {
	for i, q := range queries {
		if len(queries) > 1 {
			fmt.Fprintf(w, "[%s]\n", q.spec)
		}
		adds, rems := 0, 0
		for v := uint64(0); v < target; {
			d, ok := <-chans[i]
			if !ok {
				return
			}
			if d.Resync != nil {
				fmt.Fprintf(w, "  (resync: %d result(s) at v%d)\n", d.Resync.Count(), d.Version)
			}
			for _, a := range d.Added {
				fmt.Fprintf(w, "  +%v\n", a)
				adds++
			}
			for _, a := range d.Removed {
				fmt.Fprintf(w, "  -%v\n", a)
				rems++
			}
			v = d.Version
		}
		fmt.Fprintf(w, "%d added, %d removed\n", adds, rems)
	}
}

// printAll prints each standing query's results; with several queries
// every block is prefixed by the query's spec.
func printAll(w io.Writer, m *enumtrees.MultiSnapshot, queries []standing, v printView) {
	for _, q := range queries {
		if len(queries) > 1 {
			fmt.Fprintf(w, "[%s]\n", q.spec)
		}
		printResults(w, m.Query(q.id), v)
	}
}

func printResults(w io.Writer, snap *enumtrees.Snapshot, v printView) {
	if v.count {
		how := "drained"
		if snap.DirectAccess() {
			how = "direct"
		}
		fmt.Fprintf(w, "%d result(s) [%s]\n", snap.Count(), how)
		return
	}
	if v.pageOff >= 0 {
		for i, asg := range snap.Page(v.pageOff, v.pageLim) {
			fmt.Fprintf(w, "  #%d %v\n", v.pageOff+i, asg)
		}
		fmt.Fprintf(w, "page %d:%d of %d result(s)\n", v.pageOff, v.pageLim, snap.Count())
		return
	}
	n := 0
	if v.jobs != 1 {
		// Parallel drain: workers materialize disjoint rank ranges, each
		// by one seek plus streaming; Chunks streams them back in
		// enumeration order, so the printed prefix is identical to
		// Results().
		for chunk := range snap.Chunks(v.jobs, 256) {
			for _, asg := range chunk {
				if n < v.max {
					fmt.Fprintf(w, "  %v\n", asg)
				}
				n++
			}
		}
	} else {
		for asg := range snap.Results() {
			if n < v.max {
				fmt.Fprintf(w, "  %v\n", asg)
			}
			n++
		}
	}
	if n > v.max {
		fmt.Fprintf(w, "  … %d more\n", n-v.max)
	}
	fmt.Fprintf(w, "%d result(s)\n", n)
}
